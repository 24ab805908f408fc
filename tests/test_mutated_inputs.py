"""Mutated inputs never end in a traceback.

Each example takes one valid input (a scenario, a packet trace, an encode
CSV or a run directory), applies one mutation and runs it through
cli.main, which must return 0, 1 or 2 and, on failure, print a message
starting `error:` or `usage error:`. Mutations delete a line, duplicate a
line, or replace one value, cell or JSON scalar with a fixed token. No
mutation of a scenario grows a number, so no example can ask simulate for
a huge run. The packet trace, the encode CSV and the run directory also
take numbers at the edges of the float and int ranges, a quoted cell and a
non-ASCII digit; none of them is a #samples from 10**8 to sys.maxsize,
which decode would try to build. The packet trace, the encode CSV and the
events file also take a cell of 200,000 digits, past both csv's field
size limit and int()'s digit limit, and a failure on it must name the
file.
A 0xff byte, which no UTF-8 text holds, put anywhere in any input must
fail with a message that names that file, and in a packet trace or an
events file, whose every cell is checked, the line that holds the byte.
Every integer cell of those two files, and each trace header value, is
also set, one at a time, to a long cell or one just past its bound, which
must be refused at its line by its column's name.
"""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbancomp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

TOKENS = ["", "x", "-1", "0", "1.5", "nan", "inf", "1e400", "2,1", "%(x)s",
          "null", "[]"]
ROW_TOKENS = TOKENS + ["5e-324", "-0.0", "1.7976931348623157e308",
                       "9" * 400, "-" + "9" * 400, '"5"', "\u0663"]
LONG_CELL = "9" * 200_000

SCENARIO = """\
[run]
duration_s = 10
seed = 3

[channel]
base_latency_ms = 5

[energy]
battery_mah = 400

[sleep]
enabled = true
suppressions_before_sleep = 2

[device:temp]
id = 1
mode = CGLS
threshold = 1
signal = temperature
sample_period_ms = 500

[device:file]
id = 2
mode = CGLL
file = trace.csv
adc_range = 30,45
sample_period_ms = 1000
"""

TRACE_CSV = "temp_c\n" + "".join(f"{36 + i % 4 * 0.5}\n" for i in range(12))
CODES_CSV = "".join(f"{500 + (i * 7) % 40 - 20}\n" for i in range(30))

SETTINGS = settings(max_examples=60)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs: a scenario directory, a packet trace, a run dir."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "scenario.cfg").write_text(SCENARIO)
    (root / "trace.csv").write_text(TRACE_CSV)
    (root / "codes.csv").write_text(CODES_CSV)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--out", str(root / "codes.trace"), "encode",
                     str(root / "codes.csv"), "--threshold", "2"]) == EXIT_OK
        assert main(["--out", str(root / "run"), "simulate",
                     str(root / "scenario.cfg")]) == EXIT_OK
    return root


@st.composite
def mutated(draw, text: str, is_json: bool = False,
            tokens: list[str] = TOKENS, long_cell: bool = False) -> str:
    """text with one line deleted or duplicated, or one value replaced by
    one of tokens or, with long_cell, by LONG_CELL.

    A value is a JSON scalar, or else a comma-separated cell of what
    follows a line's last `=` (the whole line when it has none).
    """
    lines = text.splitlines(keepends=True)
    index = draw(st.integers(0, len(lines) - 1))
    ops = ["delete", "duplicate", "replace"]
    if long_cell:
        ops.append("lengthen")
    op = draw(st.sampled_from(ops))
    token = draw(st.sampled_from(tokens))
    if op == "lengthen":
        token = LONG_CELL
    if op == "delete":
        del lines[index]
    elif op == "duplicate":
        lines.insert(index, lines[index])
    elif is_json:
        doc = json.loads(text)
        *parents, last = draw(st.sampled_from(list(_scalar_paths(doc))))
        target = doc
        for key in parents:
            target = target[key]
        try:
            target[last] = json.loads(token)
        except ValueError:
            target[last] = token
        return json.dumps(doc, indent=2)
    else:
        head, eq, value = lines[index].rstrip("\n").rpartition("=")
        cells = value.split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = token
        lines[index] = head + eq + ",".join(cells) + "\n"
    return "".join(lines)


def _scalar_paths(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _scalar_paths(value, (*path, key))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _scalar_paths(value, (*path, index))
    else:
        yield path


def run_cli(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr, checking that it returned
    0, 1 or 2 without raising and that a failure printed an error message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_DATA)
    if rc != EXIT_OK:
        assert err.getvalue().startswith(("error:", "usage error:")), \
            err.getvalue()
    return rc, out.getvalue(), err.getvalue()


def assert_long_cell_names(path: Path, text: str, rc: int, err: str) -> None:
    """A failure on an input that holds the 200,000-digit cell names it."""
    if LONG_CELL in text and rc != EXIT_OK:
        assert err.startswith(f"error: {path}"), err[:300]


@SETTINGS
@given(st.data())
def test_mutated_scenario(inputs, data):
    name = data.draw(st.sampled_from(["scenario.cfg", "trace.csv"]))
    text = data.draw(mutated((inputs / name).read_text()))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copy(inputs / "scenario.cfg", work)
        shutil.copy(inputs / "trace.csv", work)
        (work / name).write_text(text)
        run_cli(["--out", str(work / "run"), "simulate",
                 str(work / "scenario.cfg")])


@SETTINGS
@given(st.data())
def test_mutated_packet_trace(inputs, data):
    text = data.draw(mutated((inputs / "codes.trace").read_text(),
                             tokens=ROW_TOKENS, long_cell=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "codes.trace"
        path.write_text(text)
        rc, _, err = run_cli(["--out", str(Path(tmp) / "codes.csv"),
                              "decode", str(path)])
    assert_long_cell_names(path, text, rc, err)


@SETTINGS
@given(st.data())
def test_mutated_encode_csv(inputs, data):
    text = data.draw(mutated((inputs / "codes.csv").read_text(),
                             tokens=ROW_TOKENS, long_cell=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "codes.csv"
        path.write_text(text)
        rc, _, err = run_cli(["--out", str(Path(tmp) / "codes.trace"),
                              "encode", str(path), "--threshold", "2"])
    assert_long_cell_names(path, text, rc, err)


@SETTINGS
@given(st.data())
def test_mutated_run_directory(inputs, data):
    name = data.draw(st.sampled_from(["runlog_events.csv", "runlog.json"]))
    is_json = name.endswith(".json")
    text = data.draw(mutated((inputs / "run" / name).read_text(), is_json,
                             ROW_TOKENS, long_cell=not is_json))
    fmt = data.draw(st.sampled_from(["csv", "json"]))
    with tempfile.TemporaryDirectory() as tmp:
        rundir = Path(tmp) / "run"
        shutil.copytree(inputs / "run", rundir)
        (rundir / name).write_text(text)
        rc, out, err = run_cli(["--format", fmt, "report", str(rundir)])
    assert_long_cell_names(rundir / name, text, rc, err)
    if rc == EXIT_OK and fmt == "json":
        # Strict JSON: no NaN or Infinity.
        json.loads(out, parse_constant=_reject)


def _reject(constant):
    raise AssertionError(f"report printed {constant}, which is not JSON")


# Each input file, and the command that reads it from a copy of the inputs
# in {dir}.
READERS = [
    ("scenario.cfg", ["--out", "{dir}/out", "simulate", "{dir}/scenario.cfg"]),
    ("trace.csv", ["--out", "{dir}/out", "simulate", "{dir}/scenario.cfg"]),
    ("codes.trace", ["--out", "{dir}/out.csv", "decode", "{dir}/codes.trace"]),
    ("codes.csv", ["--out", "{dir}/out.trace", "encode", "{dir}/codes.csv"]),
    ("run/runlog.json", ["report", "{dir}/run"]),
    ("run/runlog_events.csv", ["report", "{dir}/run"]),
]


@SETTINGS
@given(st.data())
def test_byte_that_is_not_utf8_names_its_file(inputs, data):
    name, argv = data.draw(st.sampled_from(READERS))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(inputs, work, dirs_exist_ok=True)
        path = work / name
        raw = path.read_bytes()
        at = data.draw(st.integers(0, len(raw)))
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        rc, _, err = run_cli([arg.format(dir=work) for arg in argv])
    assert rc == EXIT_DATA
    lineno = raw[:at].count(b"\n") + 1
    where = (f"{path}:{lineno}"
             if name in ("codes.trace", "run/runlog_events.csv") else path)
    assert err.startswith(f"error: {where}: "), err


# A cell past int()'s 4,300-digit limit, and one past csv's field limit too.
LONG_CELLS = ["9" * 5000, LONG_CELL]
# Each integer column of runlog_events.csv, and a short cell past its bound.
EVENT_INTS = {"device_id": "256", "seq": "100000", "value": "65536",
              "transmitted": "2", "residual": "2048", "codeword_bits": "21",
              "reconstructed": "65536"}
# Each integer cell of a packet trace by its line (a row's on line 6), and a
# short cell past its bound; None is the trace's own #samples.
TRACE_INTS = {"#samples": (2, "1" + "0" * 19),
              "#threshold": (3, "1" + "0" * 19),
              "#adc_bits": (4, "1" + "0" * 19),
              "#sample_period_ms": (5, "1" + "0" * 19), "seq": (6, None),
              "device_id": (6, "256"), "bit_count": (6, "65536")}


def assert_refused_by_name(rc: int, err: str, path: Path, lineno: int,
                           name: str) -> None:
    assert rc == EXIT_DATA
    assert re.match(rf"error: {re.escape(str(path))}:{lineno}: "
                    rf"{re.escape(name)}[ :]", err), err[:300]
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("transmitted", ["1", "0"], ids=["sent", "suppressed"])
@pytest.mark.parametrize("column", list(EVENT_INTS))
def test_every_integer_events_cell_is_bounded(inputs, tmp_path, column,
                                              transmitted):
    rundir = tmp_path / "run"
    shutil.copytree(inputs / "run", rundir)
    path = rundir / "runlog_events.csv"
    lines = path.read_text().splitlines(keepends=True)
    names = lines[0].rstrip("\n").split(",")
    index = next(index for index, line in enumerate(lines) if index and
                 line.split(",")[names.index("transmitted")] == transmitted)
    for cell in [*LONG_CELLS, EVENT_INTS[column]]:
        cells = lines[index].rstrip("\n").split(",")
        cells[names.index(column)] = cell
        path.write_text("".join(lines[:index]) + ",".join(cells) + "\n"
                        + "".join(lines[index + 1:]))
        rc, _, err = run_cli(["report", str(rundir)])
        assert_refused_by_name(rc, err, path, index + 1, column)


@pytest.mark.parametrize("name", list(TRACE_INTS))
def test_every_integer_trace_cell_is_bounded(inputs, tmp_path, name):
    path = tmp_path / "codes.trace"
    lines = (inputs / "codes.trace").read_text().splitlines(keepends=True)
    lineno, short = TRACE_INTS[name]
    for cell in [*LONG_CELLS, short or lines[1].rstrip("\n").split("=")[1]]:
        edited = list(lines)
        if name.startswith("#"):
            edited[lineno - 1] = f"{name}={cell}\n"
        else:
            cells = edited[lineno - 1].rstrip("\n").split(",")
            cells[["seq", "device_id", "bit_count"].index(name)] = cell
            edited[lineno - 1] = ",".join(cells) + "\n"
        path.write_text("".join(edited))
        rc, _, err = run_cli(["--out", str(tmp_path / "out.csv"), "decode",
                              str(path)])
        assert_refused_by_name(rc, err, path, lineno, name)
