import json
import math
import re
import sys
import typing
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR
import wbancomp
from wbancomp import _row_fault, metrics, rundir
from wbancomp.cli import EXIT_OK, main
from wbancomp.rundir import (_EVENT_COLUMNS, _FLOAT, _ROW, DelaySums,
                             DeviceRun, RunLog)


@given(st.floats(min_value=0.0, allow_infinity=False)
       | st.sampled_from([-0.0, 5e-324, 1e-05, 0.0001, 1e16,
                          9999999999999998.0, sys.float_info.max]))
def test_repr_of_every_finite_float_fits_the_float_columns(x):
    for name in ["time_ms", "cd_ms", "dtr_ms", "dd_ms", "arrival_ms"]:
        assert re.fullmatch(_EVENT_COLUMNS[name][0], repr(x))


def test_stated_field_kinds_are_the_annotations():
    hints = typing.get_type_hints(DeviceRun)
    assert tuple(hint.__name__ for hint in hints.values()) \
        == rundir._DEVICE_RUN_KINDS
    assert metrics._FLOAT_FIELDS == {
        name for name, hint
        in typing.get_type_hints(metrics.DeviceMetrics).items()
        if hint is float}


def reference_fold(path, sums: dict, summary: str) -> None:
    """The events fold one line at a time, as rundir read the file before it
    read blocks: the reference the block fold must agree with."""
    fullmatch = re.compile(_ROW + "\n?").fullmatch
    lineno = 1
    try:
        with path.open(errors="backslashreplace", newline="\n") as handle:
            if handle.readline().rstrip("\n") != ",".join(_EVENT_COLUMNS):
                raise ValueError("unexpected event columns")
            for lineno, line in enumerate(handle, start=2):
                match = fullmatch(line)
                if match is None:
                    raise ValueError(_row_fault(_EVENT_COLUMNS,
                                                line.rstrip("\n")))
                if "e+308" in line:
                    for name, cell in zip(_EVENT_COLUMNS, match.groups()):
                        if cell.endswith("e+308") and math.isinf(float(cell)):
                            raise ValueError(f"{name} {cell}: not {_FLOAT[1]}")
                (device_id, seq, _, _, transmitted, _, bits, cd_ms, dtr_ms,
                 dd_ms, _, _) = match.groups()
                # By text, as int() refuses a cell past its digit limit.
                device_sums = {str(key): value
                               for key, value in sums.items()}.get(device_id)
                if device_sums is None:
                    raise ValueError(
                        f"device_id {device_id} is not in {summary}")
                if seq != str(device_sums.rows):
                    raise ValueError(f"seq {seq}: expected {device_sums.rows} "
                                     f"for device {device_id}")
                if transmitted == "0":
                    device_sums.rows += 1
                    continue
                cd_ms, dtr_ms, dd_ms = map(float, (cd_ms, dtr_ms, dd_ms))
                if not math.isfinite(cd_ms + dd_ms + dtr_ms):
                    raise ValueError("cd_ms + dd_ms + dtr_ms is not finite")
                device_sums.add(int(bits), cd_ms, dtr_ms, dd_ms)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A simulated run of three devices and 360 events rows."""
    out = tmp_path_factory.mktemp("fold") / "run"
    assert main(["--out", str(out), "simulate",
                 str(SCENARIO_DIR / "temperature_sleep.cfg")]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def lines(run):
    """The run's events file lines, header first."""
    return (run / "runlog_events.csv").read_text().splitlines(keepends=True)


def expected(run) -> dict | str:
    """The reference fold's sums of the run, or its error message."""
    summary = json.loads((run / "runlog.json").read_text())
    sums = {entry["device_id"]: DelaySums() for entry in summary["devices"]}
    try:
        reference_fold(run / "runlog_events.csv", sums, "runlog.json")
    except ValueError as exc:
        return str(exc)
    return sums


def loaded(run, hint: int = wbancomp._BLOCK_HINT) -> dict | str:
    """RunLog.load's sums of the run, read in blocks of `hint`, or its error
    message."""
    with mock.patch.object(wbancomp, "_BLOCK_HINT", hint):
        try:
            return RunLog.load(run).sums
        except ValueError as exc:
            return str(exc)


def write_events(run, lines, data: bytes = b"") -> None:
    (run / "runlog_events.csv").write_bytes("".join(lines).encode() + data)


def set_cell(line: str, column: str, text: str) -> str:
    cells = line.rstrip("\n").split(",")
    cells[list(_EVENT_COLUMNS).index(column)] = text
    return ",".join(cells) + "\n"


CELL_TEXTS = ["", "x", "0", "1", "2", "3", "4", "01", "-1", " 1", "-0.0",
              "49.0", "1e+308", "9e+308", "1.7976931348623157e+308",
              "1.7976931348623159e+308", "nan", "5e-324", "20", "21", "2047",
              "-2048", "65535", "65536", "9" * 5000]


@st.composite
def mutated(draw, lines):
    """The lines after one to three edits: a line deleted or duplicated, a
    cell replaced, a row moved to another device, or the final newline
    dropped."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(
            ["delete", "duplicate", "cell", "device", "newline"]))
        if edit == "delete" and len(lines) > 1:
            del lines[index]
        elif edit == "duplicate":
            lines.insert(index, lines[index])
        elif edit == "cell":
            lines[index] = set_cell(
                lines[index], draw(st.sampled_from(list(_EVENT_COLUMNS))),
                draw(st.sampled_from(CELL_TEXTS)
                     | st.text("0123456789e+-.x", max_size=6)))
        elif edit == "device":
            lines[index] = set_cell(lines[index], "device_id",
                                    draw(st.sampled_from("1234")))
        elif edit == "newline":
            lines[-1] = lines[-1].rstrip("\n")
    return lines


@settings(max_examples=200)
@given(data=st.data())
def test_block_fold_agrees_with_the_line_fold(run, lines, data):
    write_events(run, data.draw(mutated(lines)))
    hint = data.draw(st.sampled_from([1, 64, 333, 1000, 4096,
                                      wbancomp._BLOCK_HINT]))
    assert loaded(run, hint) == expected(run)


def first_block(run, hint: int) -> int:
    """The number of rows in the events file's first block of `hint`."""
    with (run / "runlog_events.csv").open() as handle:
        handle.readline()
        return len(handle.readlines(hint))


def test_unedited_run_folds_alike_in_any_block_size(run, lines):
    # Device 1's 120 rows span several blocks of the smaller hints.
    write_events(run, lines)
    sums = expected(run)
    assert isinstance(sums, dict) and sums[1].rows == 120
    for hint in (1, 100, 1000, 5000, wbancomp._BLOCK_HINT):
        assert loaded(run, hint) == sums


def test_fault_on_the_first_line_of_a_second_block(run, lines):
    hint = 1000
    rows = first_block(run, hint)
    edited = list(lines)
    edited[rows + 1] = set_cell(edited[rows + 1], "value", "x")
    write_events(run, edited)
    assert loaded(run, hint) == expected(run)
    assert f"runlog_events.csv:{rows + 2}: value x:" in loaded(run, hint)


def test_rows_of_an_exact_multiple_of_the_hint(run, lines):
    body = lines[1:]
    for count in range(len(body), 0, -1):
        size = len("".join(body[:count]))
        hint = next((hint for hint in range(200, size // 3)
                     if size % hint == 0), None)
        if hint is not None:
            break
    write_events(run, lines[:1 + count])
    assert len("".join(lines[1:1 + count])) % hint == 0
    assert loaded(run, hint) == expected(run)
    assert isinstance(loaded(run, hint), dict)
    # A fault on the last line is still found.
    edited = lines[:1 + count]
    edited[-1] = set_cell(edited[-1], "seq", "0")
    write_events(run, edited)
    assert loaded(run, hint) == expected(run)
    assert f"runlog_events.csv:{count + 1}: seq 0:" in loaded(run, hint)


@pytest.mark.parametrize("seq_line, overflow_line, fault", [
    (6, 9, "runlog_events.csv:6: seq 9: expected 4 for device 1"),
    (9, 6, "runlog_events.csv:6: cd_ms 9e+308: not a finite non-negative"),
])
def test_first_of_a_seq_fault_and_an_overflow_in_one_block(
        run, lines, seq_line, overflow_line, fault):
    edited = list(lines)
    edited[seq_line - 1] = set_cell(edited[seq_line - 1], "seq", "9")
    edited[overflow_line - 1] = set_cell(edited[overflow_line - 1], "cd_ms",
                                         "9e+308")
    write_events(run, edited)
    assert loaded(run) == expected(run)
    assert fault in loaded(run)


@pytest.mark.parametrize("grammar_line, overflow_line, fault", [
    (6, 9, "runlog_events.csv:6: value x: not a canonical non-negative"),
    (9, 6, "runlog_events.csv:6: cd_ms 9e+308: not a finite non-negative"),
])
def test_first_of_a_grammar_fault_and_an_overflow_in_one_block(
        run, lines, grammar_line, overflow_line, fault):
    edited = list(lines)
    edited[grammar_line - 1] = set_cell(edited[grammar_line - 1], "value",
                                        "x")
    edited[overflow_line - 1] = set_cell(edited[overflow_line - 1], "cd_ms",
                                         "9e+308")
    write_events(run, edited)
    assert loaded(run) == expected(run)
    assert fault in loaded(run)


def test_fault_just_past_a_device_split_across_blocks(run, lines):
    hint = 1000
    rows = first_block(run, hint)
    assert lines[rows].split(",")[0] == lines[rows + 1].split(",")[0]
    edited = list(lines)
    del edited[rows + 1]
    write_events(run, edited)
    assert loaded(run, hint) == expected(run)
    # The first block holds device 1's seq 0 to rows - 1.
    assert f"runlog_events.csv:{rows + 2}: seq {rows + 1}: expected {rows} " \
        in loaded(run, hint)


@pytest.mark.parametrize("fault_line", [None, 40])
def test_undecodable_bytes_after_the_lines_before_them(run, lines, fault_line):
    # An undecodable byte is a bad cell of its line, so a bad line before it
    # is named first, at every block size.
    edited = list(lines)
    if fault_line is not None:
        edited[fault_line - 1] = set_cell(edited[fault_line - 1], "value", "x")
    write_events(run, edited, b"\xff\n")
    fault = (f":{fault_line}: value x:" if fault_line
             else f":{len(lines) + 1}: 1 cells, expected 12")
    for hint in (1000, wbancomp._BLOCK_HINT):
        assert loaded(run, hint) == expected(run)
        assert fault in loaded(run, hint)


@pytest.mark.parametrize("edit, fault", [
    (lambda lines: [line.replace("\n", "\r\n") for line in lines],
     ":1: unexpected event columns"),
    (lambda lines: lines[:1] + [line.replace("\n", "\r\n")
                                for line in lines[1:]],
     ":2: reconstructed 477\r: not a canonical non-negative integer"),
    (lambda lines: lines[:4] + [lines[4].replace("\n", "\r")] + lines[5:],
     ":5: 23 cells, expected 12"),
], ids=["crlf", "crlf-rows", "lone-cr-between-rows"])
def test_carriage_return_faults_its_line(run, lines, edit, fault):
    # A line ends at "\n" alone, as RunLog.save writes it.
    write_events(run, edit(lines))
    for hint in (1000, wbancomp._BLOCK_HINT):
        assert loaded(run, hint) == expected(run)
        assert fault in loaded(run, hint)
