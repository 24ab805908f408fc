import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DATA_DIR, REPO_ROOT, SCENARIO_DIR, codeword_literal,
                      literal_bits)
from wbancomp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wbancomp.codec import MAX_GROUP, codeword_bytes, group_of
from wbancomp.rundir import SampleEvent
from wbancomp.sink import Packet
from wbancomp.tracefile import PacketTrace, read_trace, write_trace


def write_codes(path: Path, codes):
    path.write_text("".join(f"{c}\n" for c in codes))


def test_encode_constant_file_sends_one_packet(tmp_path, capsys):
    src = tmp_path / "codes.csv"
    write_codes(src, [500] * 120)
    out = tmp_path / "packets.trace"
    rc = main(["--out", str(out), "encode", str(src), "--threshold", "1"])
    assert rc == EXIT_OK
    assert "original=120 transmitted=1" in capsys.readouterr().out
    trace = read_trace(out)
    assert trace.samples == 120
    assert len(trace.packets) == 1


def test_encode_golden_single_reading(tmp_path):
    src = tmp_path / "one.csv"
    write_codes(src, [38])
    out = tmp_path / "one.trace"
    assert main(["--out", str(out), "encode", str(src)]) == EXIT_OK
    trace = read_trace(out)
    (seq, packet), = trace.packets
    assert seq == 0
    assert packet == Packet(1, *literal_bits("110100110"))


def test_encode_empty_file_fails(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    rc = main(["--out", str(tmp_path / "x.trace"), "encode", str(src)])
    assert rc == EXIT_DATA
    assert "no readings" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("1024\n5\n", ":1: reading 1024 outside 10-bit range"),
    ("value\n5\n6\n-1\n7\n2000\n", ":4: reading -1 outside 10-bit range"),
    ("5\n\n3000\n7\nx\n", ":3: reading 3000 outside 10-bit range"),
    ("5\nx\n3000\n", ":2: non-numeric or missing value in column 0"),
    ("5\n6\nx\n", ":3: non-numeric or missing value in column 0"),
    ("0\n1023\n1024\n", ":3: reading 1024 outside 10-bit range"),
], ids=["first", "after-header", "ahead-of-a-bad-row", "behind-a-bad-row",
        "bad-row-only", "after-both-ends"])
def test_encode_names_the_first_bad_line(tmp_path, capsys, text, message):
    # Every reading is range-checked before any is filtered, but the error
    # names the first bad line in the file, as a line-by-line pass would.
    src = tmp_path / "codes.csv"
    src.write_text(text)
    out = tmp_path / "packets.trace"
    assert main(["--out", str(out), "encode", str(src)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {src}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_encode_reads_any_csv_line_end(tmp_path, capsys, end):
    # A CSV is read as csv.reader reads it, unlike the row files the
    # commands write, whose lines end at "\n" alone.
    outputs = []
    for name, text in (("lf", "value\n5\n6\n9\n"),
                       ("other", f"value{end}5{end}6{end}9{end}")):
        src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.trace"
        src.write_bytes(text.encode())
        assert main(["--out", str(out), "encode", str(src)]) == EXIT_OK
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith("original=3 transmitted=3 ")


def test_encode_reads_its_input_once(tmp_path, capsys, monkeypatch):
    # The reading out of range is named from the one pass that read it.
    from wbancomp import tracefile

    calls = []
    read_column = tracefile.read_column

    def counted(*args):
        calls.append(args)
        return read_column(*args)

    monkeypatch.setattr(tracefile, "read_column", counted)
    src = tmp_path / "codes.csv"
    src.write_text("5\n6\n1024\n7\n")
    assert main(["--out", str(tmp_path / "x.trace"), "encode",
                 str(src)]) == EXIT_DATA
    assert capsys.readouterr().err == \
        f"error: {src}:3: reading 1024 outside 10-bit range\n"
    assert len(calls) == 1


def test_encode_requires_out(tmp_path):
    src = tmp_path / "codes.csv"
    write_codes(src, [1, 2, 3])
    assert main(["encode", str(src)]) == EXIT_USAGE


def test_decode_golden_packet(tmp_path, capsys):
    src = tmp_path / "one.csv"
    write_codes(src, [38])
    trace = tmp_path / "one.trace"
    main(["--out", str(trace), "encode", str(src)])
    capsys.readouterr()
    assert main(["decode", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out == "38\n"


def test_encode_decode_identity_lossless(tmp_path):
    rng = random.Random(77)
    codes = [rng.randrange(1024) for _ in range(400)]
    src = tmp_path / "codes.csv"
    write_codes(src, codes)
    trace = tmp_path / "codes.trace"
    recon = tmp_path / "recon.csv"
    assert main(["--out", str(trace), "encode", str(src)]) == EXIT_OK
    assert main(["--out", str(recon), "decode", str(trace)]) == EXIT_OK
    assert recon.read_bytes() == src.read_bytes()


def test_lossy_decode_reconstructs_within_threshold(tmp_path):
    rng = random.Random(31)
    value, codes = 512, []
    for _ in range(500):
        value = min(1023, max(0, value + rng.randint(-6, 6)))
        codes.append(value)
    src = tmp_path / "codes.csv"
    write_codes(src, codes)
    trace = tmp_path / "codes.trace"
    recon = tmp_path / "recon.csv"
    assert main(["--out", str(trace), "encode", str(src),
                 "--threshold", "2"]) == EXIT_OK
    assert main(["--out", str(recon), "decode", str(trace)]) == EXIT_OK
    decoded = [int(line) for line in recon.read_text().splitlines()]
    assert len(decoded) == len(codes)
    assert max(abs(a - b) for a, b in zip(codes, decoded)) <= 2


def test_encode_is_deterministic(tmp_path):
    src = tmp_path / "codes.csv"
    write_codes(src, [38, 40, 45, 45, 41])
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    for path in (a, b):
        assert main(["--out", str(path), "encode", str(src),
                     "--threshold", "1"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_decode_truncated_packet_reports_index(tmp_path, capsys):
    src = tmp_path / "codes.csv"
    write_codes(src, [38, 500, 700])
    trace = tmp_path / "codes.trace"
    main(["--out", str(trace), "encode", str(src)])
    lines = trace.read_text().splitlines()
    seq, dev, bits, payload = lines[-1].split(",")
    # two extra zero bits leave a fragment no codeword can fill
    lines[-1] = f"{seq},{dev},{int(bits) + 2},{payload}"
    trace.write_text("\n".join(lines) + "\n")
    rc = main(["decode", str(trace)])
    assert rc == EXIT_DATA
    # A row that fails to decode is named by its line, the file's last.
    assert capsys.readouterr().err == (
        f"error: {trace}:{len(lines)}: stream ended inside a codeword "
        f"prefix\n")


def write_packet_trace(path: Path, samples: int, rows) -> None:
    """A device-1 trace with one packet per (sample index, *residuals) row."""
    write_trace(path, PacketTrace(samples=samples, packets=[
        (seq, Packet(1, *literal_bits("".join(map(codeword_literal,
                                                  residuals)))))
        for seq, *residuals in rows]))


@pytest.mark.parametrize("samples,rows,held", [
    (4, [(0, 10), (2, 5), (2, -3)], [10, 10, 12, 12]),
    (5, [(3, 4), (0, 10), (1, -1)], [10, 9, 9, 13, 13]),
    (4, [(2, 5), (0, 1), (2, -3, 1)], [1, 1, 4, 4]),
    (4, [(2, 7)], [0, 0, 7, 7]),
    (5, [(0, 1), (1, 1)], [1, 2, 2, 2, 2]),
], ids=["two-packets-one-sample", "out-of-order-lines",
        "out-of-order-at-one-sample", "first-packet-late",
        "trailing-samples-without-packets"])
def test_decode_holds_values_in_sample_order(tmp_path, samples, rows, held):
    # Each sample shows the value after every packet up to its index;
    # packets at one sample apply in file order.
    trace = tmp_path / "t.trace"
    write_packet_trace(trace, samples, rows)
    out = tmp_path / "out.csv"
    assert main(["--out", str(out), "decode", str(trace)]) == EXIT_OK
    assert out.read_text() == "".join(f"{v}\n" for v in held)


def test_decode_names_first_failing_packet_in_sample_order(tmp_path, capsys):
    # Two packets whose readings fall below 0, the later sample first in
    # the file: 10 - 20 at sample 4, and 10 - 11 at sample 3.
    trace = tmp_path / "t.trace"
    write_packet_trace(trace, 6, [(0, 10), (4, -20), (3, -11)])
    assert main(["decode", str(trace)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {trace}: packet at sample 3: reading -1 outside "
        f"[0, 2**10)\n")
    # A row no codeword fills is a row fault, named by its line in file
    # order before any reading is checked: two packets whose payload starts
    # with the malformed prefix '1110', the later sample on line 7.
    write_packet_trace(trace, 6, [(0, 10)])
    with trace.open("a") as handle:
        handle.write("4,1,4,e0\n3,1,4,e0\n")
    assert main(["decode", str(trace)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {trace}:7: non-canonical prefix '1110'\n")


@st.composite
def decode_traces(draw):
    """(samples, rows, bad) for a device-1 trace at adc_bits 11.

    Each row is (seq, residuals) with one to three codewords, so rows of
    one are encoder payloads and the others are not. The residuals step
    between readings in seq order, the rows are then shuffled, and seqs
    repeat. Row number `bad`, if not None, ends in the malformed prefix
    '1110'.
    """
    samples = draw(st.integers(1, 12))
    seqs = sorted(draw(st.lists(st.integers(0, samples - 1), min_size=1,
                                max_size=10)))
    value, rows = 0, []
    for seq in seqs:
        residuals = []
        for reading in draw(st.lists(st.integers(0, 2047), min_size=1,
                                     max_size=3)):
            residuals.append(reading - value)
            value = reading
        rows.append((seq, residuals))
    rows = draw(st.permutations(rows))
    return samples, rows, draw(st.none() | st.integers(0, len(rows) - 1))


def folded_readings(samples, rows, bad) -> str:
    """What decode prints for decode_traces' trace, or the error it names
    after the trace's path: the bad row by its line, rows starting on line
    6, else the rows fold through one running value in stable seq order."""
    if bad is not None:
        return f":{6 + bad}: non-canonical prefix '1110'"
    lines, value, held = [], 0, "0"
    for seq, residuals in sorted(rows, key=lambda row: row[0]):
        lines += [held] * (seq - len(lines))
        value += sum(residuals)
        if not 0 <= value < 2048:
            return (f": packet at sample {seq}: reading {value} outside "
                    f"[0, 2**11)")
        held = str(value)
    lines += [held] * (samples - len(lines))
    return "".join(f"{line}\n" for line in lines)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(decode_traces())
def test_decode_folds_shuffled_rows_in_seq_order(trace_rows):
    samples, rows, bad = trace_rows
    with tempfile.TemporaryDirectory() as tmp:
        trace, out = Path(tmp) / "t.trace", Path(tmp) / "out.csv"
        write_trace(trace, PacketTrace(samples=samples, adc_bits=11, packets=[
            (seq, Packet(1, *literal_bits(
                "".join(map(codeword_literal, residuals))
                + ("1110" if index == bad else ""))))
            for index, (seq, residuals) in enumerate(rows)]))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--out", str(out), "decode", str(trace)])
        expected = folded_readings(samples, rows, bad)
        if code == EXIT_OK:
            assert out.read_text() == expected
        else:
            assert (code, err.getvalue()) == (
                EXIT_DATA, f"error: {trace}{expected}\n")


def test_decode_builds_no_packet(tmp_path, capsys, monkeypatch):
    # Rows of several codewords miss the lookup, and decode from their
    # cells all the same.
    def refuse(*args):
        raise AssertionError("decode built a Packet")

    trace = tmp_path / "t.trace"
    write_packet_trace(trace, 4, [(0, 10, 5), (2, -3, 1)])
    monkeypatch.setattr(Packet, "__init__", refuse)
    assert main(["decode", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out == "15\n15\n13\n13\n"


# What encode writes for the single reading 38 (codeword d300, 9 bits).
GOLDEN_TRACE = ("#packet-trace v1\n#samples=1\n#threshold=0\n#adc_bits=10\n"
                "#sample_period_ms=0\n0,1,9,d300\n")


@pytest.mark.parametrize("row, message", [
    # A 9-bit codeword (39, as d380 carries it) with its 7 pad bits set.
    ("0,1,9,d3ff", ":6: pad bits past bit_count are set"),
    # One hex digit short of 20 bits.
    ("0,1,20,ffff0", ":6: payload ffff0: not lowercase hex of whole bytes"),
], ids=["set-pad-bits", "odd-length-hex"])
def test_decode_rejects_a_payload_no_encoder_writes(tmp_path, capsys, row,
                                                    message):
    trace = tmp_path / "t.trace"
    trace.write_text(GOLDEN_TRACE.replace("0,1,9,d300", row))
    assert main(["decode", str(trace)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"error: {trace}{message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("old, new, where", [
    ("0,1,9,d300", " 0,+1,9 ,d3 00", "6: seq  0: not "),
    ("0,1,9,d300", "0,1,9,D300", "6: payload D300: not "),
    ("0,1,9,d300", "00,1,9,d300", "6: seq 00: not "),
    ("0,1,9,d300", "0,1_0,9,d300", "6: device_id 1_0: not "),
    ("0,1,9,d300", "# note\n0,1,9,d300", "6: 1 cells, expected 4"),
    ("0,1,9,d300", "\n0,1,9,d300", "6: 0 cells, expected 4"),
    ("#samples=1\n#threshold=0", "#threshold=0\n#samples=1",
     "2: expected '#samples=N'"),
    ("#threshold=0\n#adc_bits=10\n#sample_period_ms=0\n", "",
     "3: expected '#threshold=N'"),
    ("#samples=1", "#samples=+1", "2: expected '#samples=N'"),
    ("#samples=1", "#samples= 1", "2: expected '#samples=N'"),
    ("#samples=1", "# note\n#samples=1", "2: expected '#samples=N'"),
    # "\udcff" is written as the byte 0xff, which is not UTF-8.
    ("0,1,9,d300", "0,1,9,d3\udcff", "6: payload d3\\xff: not "),
    ("#threshold=0", "#threshold=\udcff", "3: expected '#threshold=N'"),
    # A line ends at "\n" alone.
    ("0,1,9,d300\n", "0,1,9,d300\r\n", "6: payload d300\r: not "),
    ("0,1,9,d300\n", "0,1,9,d300\r0,1,9,d300\n", "6: 7 cells, expected 4"),
    ("#samples=1\n", "#samples=1\r\n", "2: expected '#samples=N'"),
    ("#packet-trace v1\n", "#packet-trace v1\r", "1: not a packet trace"),
], ids=["padded-and-signed-cells", "uppercase-hex", "zero-led-seq",
        "underscored-device-id", "comment-row", "blank-row", "header-order",
        "header-of-samples-only", "signed-samples", "padded-samples",
        "comment-in-header", "undecodable-row", "undecodable-header",
        "crlf-row", "lone-cr-between-rows", "crlf-header", "lone-cr-header"])
def test_decode_rejects_a_trace_no_writer_writes(tmp_path, capsys, old, new,
                                                 where):
    # Each of these but the undecodable ones once decoded to 38 with exit 0;
    # those named no line.
    trace = tmp_path / "t.trace"
    trace.write_text(GOLDEN_TRACE.replace(old, new), errors="surrogateescape")
    assert main(["decode", str(trace)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {trace}:{where}")
    assert captured.out == ""


@pytest.mark.parametrize("adc_bits, residual, message", [
    # The codeword 011010 carries -5.
    (3, -5, "reading -5 outside [0, 2**3)"),
    (3, 8, "reading 8 outside [0, 2**3)"),
])
def test_decode_rejects_a_reading_no_adc_makes(tmp_path, capsys, adc_bits,
                                               residual, message):
    trace = tmp_path / "t.trace"
    write_trace(trace, PacketTrace(samples=2, adc_bits=adc_bits, packets=[
        (0, Packet(1, *codeword_bytes(residual)))]))
    assert main(["decode", str(trace)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {trace}: packet at sample 0: {message}\n")


@pytest.mark.parametrize("adc_bits, residual", [(3, 7)])
def test_decode_keeps_readings_in_the_adc_range(tmp_path, capsys, adc_bits,
                                                residual):
    trace = tmp_path / "t.trace"
    write_trace(trace, PacketTrace(samples=2, adc_bits=adc_bits, packets=[
        (0, Packet(1, *codeword_bytes(residual)))]))
    assert main(["decode", str(trace)]) == EXIT_OK
    assert capsys.readouterr().out == f"{residual}\n{residual}\n"


@pytest.mark.parametrize("residual", [-5, 2000])
def test_decode_refuses_an_adc_bits_0_trace(tmp_path, capsys, residual):
    # Only simulate writes adc_bits 0, and its CGWC payloads carry raw
    # readings, not residuals. A 2000 once decoded with exit 0.
    trace = tmp_path / "t.trace"
    write_trace(trace, PacketTrace(samples=2, adc_bits=0, packets=[
        (0, Packet(1, *codeword_bytes(residual)))]))
    assert main(["decode", str(trace)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {trace}: #adc_bits=0: a run directory's trace, which holds "
        f"no ADC width to decode with\n")


@pytest.mark.parametrize("rows, message", [
    ("0,1,9,d300\n1,2,9,d300\n",
     ": trace holds 2 devices; decode expects a single-device trace"),
    ("", ": trace holds no packets"),
    # d300 is an encoder payload, so the id is range-checked on a hit too.
    ("0,256,9,d300\n", ":6: device_id 256 outside [0, 255]"),
], ids=["two-devices", "header-only", "device-id-256"])
def test_decode_refuses_a_trace_of_no_single_device(tmp_path, capsys, rows,
                                                    message):
    trace = tmp_path / "t.trace"
    trace.write_text(GOLDEN_TRACE.replace("#samples=1", "#samples=2")
                     .replace("0,1,9,d300\n", rows))
    assert main(["decode", str(trace)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"error: {trace}{message}\n"
    assert captured.out == ""


def test_decode_refuses_an_adc_width_no_writer_emits(tmp_path, capsys):
    # encode caps --adc-bits at 11; these rows once decoded to 2047 and
    # 4094 with exit 0.
    trace = tmp_path / "t.trace"
    trace.write_text(GOLDEN_TRACE.replace("#samples=1", "#samples=2")
                     .replace("#adc_bits=10", "#adc_bits=16")
                     .replace("0,1,9,d300\n", "0,1,20,ff7ff0\n1,1,20,ff7ff0\n"))
    assert main(["decode", str(trace)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"error: {trace}: #adc_bits=16: outside [1, 11]\n"
    assert captured.out == ""


def test_decode_refuses_a_run_directorys_trace(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["--out", str(run), "simulate",
                 str(SCENARIO_DIR / "temperature_sleep.cfg")]) == EXIT_OK
    capsys.readouterr()
    assert main(["decode", str(run / "packets.trace")]) == EXIT_DATA
    assert "#adc_bits=0: a run directory's trace" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["encode", "{input}", "--threshold", "-1"], "--threshold -1"),
    (["encode", "{input}", "--device-id", "300"], "--device-id 300"),
    (["encode", "{input}", "--sample-period-ms", "-5"], "--sample-period-ms -5"),
    (["signals", "dump", "--file", "{input}", "--range", "0,1",
      "--adc-bits", "20"], "--adc-bits 20"),
    (["signals", "dump", "--file", "{input}", "--range", "0,1",
      "--period-ms", "0"], "--period-ms 0"),
    (["signals", "dump", "--kind", "ecg", "--samples", "-5"], "--samples -5"),
], ids=["encode-threshold", "encode-device-id", "encode-sample-period-ms",
        "dump-adc-bits", "dump-period-ms", "dump-samples"])
def test_bad_flag_named_before_input_is_read(tmp_path, capsys, argv, flag):
    # The input file does not exist: an error naming the flag shows the
    # flag was checked first.
    missing = str(tmp_path / "absent.csv")
    argv = [missing if arg == "{input}" else arg for arg in argv]
    rc = main(["--out", str(tmp_path / "out"), *argv])
    assert rc == EXIT_USAGE
    assert flag in capsys.readouterr().err


def test_decode_missing_file(tmp_path):
    assert main(["decode", str(tmp_path / "absent.trace")]) == EXIT_DATA


def test_decode_of_more_samples_than_fit_in_memory_is_data_error(tmp_path):
    # A list of 10**15 readings fails to allocate at once, so this holds no
    # memory; a subprocess shows that no traceback reaches the user.
    trace = tmp_path / "huge.trace"
    trace.write_text("#packet-trace v1\n#samples=1000000000000000\n"
                     "#threshold=0\n#adc_bits=10\n#sample_period_ms=0\n"
                     "0,1,9,d300\n")
    done = subprocess.run(
        [sys.executable, "-m", "wbancomp.cli", "decode", str(trace)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert done.returncode == EXIT_DATA
    assert done.stderr == (f"error: {trace}: #samples=1000000000000000: too "
                           f"many samples to decode in memory\n")


_HUGE_INT = "1" + "0" * 400


@pytest.mark.parametrize("command, edit, named", [
    ("simulate", ("duration_s = 60", "duration_s = 1e307"),
     "device t: sample count is past the float range"),
    ("simulate", ("sample_period_ms = 500", f"sample_period_ms = {_HUGE_INT}"),
     "device t: sample count is past the float range"),
    ("report", ('"duration_ms": 600000.0', f'"duration_ms": {_HUGE_INT}'),
     "runlog.json: duration_ms: not a positive number"),
    ("report", ('"battery_mah": 400.0', f'"battery_mah": {_HUGE_INT}'),
     "runlog.json: device 0: battery_mah: not a number"),
    ("decode", ("#samples=120", "#samples=9999999999999999999"),
     "huge.trace: #samples=9999999999999999999: too many samples to decode "
     "in memory"),
], ids=["duration", "sample-period", "report-duration", "report-battery",
        "decode-samples"])
def test_numbers_past_the_float_or_index_range_are_located(
        tmp_path, capsys, command, edit, named):
    # Each of these once ended in an OverflowError traceback, exit 1.
    if command == "simulate":
        path = tmp_path / "huge.cfg"
        path.write_text(_ONE_DEVICE.replace(*edit))
        argv = ["simulate", str(path)]
    elif command == "report":
        out = tmp_path / "run"
        main(["--out", str(out), "simulate",
              str(SCENARIO_DIR / "temperature_sleep.cfg")])
        path = out / "runlog.json"
        path.write_text(path.read_text().replace(*edit, 1))
        argv = ["report", str(out)]
    else:
        path = tmp_path / "huge.trace"
        path.write_text("#packet-trace v1\n#samples=120\n#threshold=0\n"
                        "#adc_bits=10\n#sample_period_ms=0\n0,1,9,d300\n"
                        .replace(*edit))
        argv = ["decode", str(path)]
    assert edit[1] in path.read_text()
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert "Traceback" not in err


def test_range_wider_than_the_float_range_is_refused(tmp_path, capsys):
    # quantize divides by max - min, which overflows: once exit 2 with
    # "cannot convert float NaN to integer".
    src = tmp_path / "v.csv"
    src.write_text("1e308\n")
    wide = "-1.7e308,1.7e308"
    assert main(["signals", "dump", "--file", str(src),
                 f"--range={wide}"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: --range: max - min is past the float range, got "
        f"{wide!r}\n")
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(_ONE_DEVICE.replace(
        "signal = temperature", f"file = v.csv\nadc_range = {wide}"))
    assert main(["simulate", str(cfg)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: [device:t] adc_range: max - min is past the float range, "
        f"got {wide!r}\n")


@pytest.mark.parametrize("argv,named", [
    (["--kind", "bogus"], ["'temperature'", "'ecg'", "'ppg'"]),
    (["--kind", "ecg", "--adc-bits", "17"], ["--adc-bits 17", "[1, 16]"]),
    # A synthetic signal reads no physical range: --range would be ignored.
    (["--kind", "ecg", "--range", "0,1"], ["--range", "--file"]),
    # Nor does it read a column.
    (["--kind", "ecg", "--column", "7"], ["--column", "--file"]),
    # A file trace is as long as its file: --samples would be ignored. The
    # flag is refused before the absent file is read.
    (["--file", "absent.csv", "--range", "0,1", "--samples", "2"],
     ["--samples", "--file"]),
], ids=["kind", "adc-bits", "range-on-kind", "column-on-kind",
        "samples-on-file"])
def test_signals_dump_names_its_limits(capsys, argv, named):
    assert main(["signals", "dump", *argv]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert all(text in err for text in named), err


def test_signals_dump_synthetic(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["--seed", "5", "--out", str(out), "signals", "dump",
               "--kind", "temperature", "--samples", "10",
               "--period-ms", "500"])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "timestamp_ms,code"
    assert len(lines) == 11
    assert lines[1].startswith("0,")
    assert lines[2].startswith("500,")


def test_signals_dump_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        main(["--seed", "5", "--out", str(path), "signals", "dump",
              "--kind", "ppg", "--samples", "50", "--period-ms", "100"])
    assert a.read_bytes() == b.read_bytes()


def test_signals_dump_file_requires_range(tmp_path):
    src = tmp_path / "t.csv"
    src.write_text("37.0\n")
    rc = main(["signals", "dump", "--file", str(src)])
    assert rc == EXIT_USAGE


def test_signals_dump_bad_range_is_usage_error(tmp_path, capsys):
    src = tmp_path / "t.csv"
    src.write_text("37.0\n")
    for bad in ("a,b", "2,1"):
        rc = main(["signals", "dump", "--file", str(src), "--range", bad])
        assert rc == EXIT_USAGE
        assert "--range:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["encode", "{input}"],
    ["signals", "dump", "--file", "{input}", "--range", "0,1000"],
], ids=["encode", "dump"])
def test_negative_column_is_usage_error(tmp_path, capsys, argv):
    # A negative index would read the last column of each row.
    src = tmp_path / "two.csv"
    src.write_text("1,500\n2,501\n")
    out = tmp_path / "out"
    argv = [str(src) if arg == "{input}" else arg for arg in argv]
    rc = main(["--out", str(out), *argv, "--column", "-1"])
    assert rc == EXIT_USAGE
    assert "--column -1" in capsys.readouterr().err
    assert not out.exists()


def test_encode_rejects_adc_bits_beyond_codec(tmp_path, capsys):
    src = tmp_path / "codes.csv"
    write_codes(src, [3000])
    out = tmp_path / "x.trace"
    rc = main(["--out", str(out), "encode", str(src), "--adc-bits", "12"])
    assert rc == EXIT_USAGE
    assert "--adc-bits" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_writes_outputs_deterministically(tmp_path):
    cfg = SCENARIO_DIR / "temperature_sleep.cfg"
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_OK
    names = ["runlog_events.csv", "runlog.json", "metrics.csv",
             "metrics.json", "packets.trace"]
    for name in names:
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# SHA-256 of every file `simulate` writes, per shipped scenario. A change
# that moves any of them must update the hash and say why in CHANGES.md.
PINNED_OUTPUTS = {
    "four_device": {
        "metrics.csv":
            "c99204bb17db5690bf2648d59dfb232677cc0e5c9d2632990b12e6581f9cfc16",
        "metrics.json":
            "39a1065991a1ffa6f9f51f66e093d555b2ff91a8905fac212bbb97cd2d557a17",
        "packets.trace":
            "cdeccced6479dfb9a33ad8786da803467fd9b50d2456b88b9a57147d363dadef",
        "runlog.json":
            "bc7a83786c0c4c25016a6a5cee29340756760b59713cc47af6c40040b907f862",
        "runlog_events.csv":
            "1c0cbf9db4f75fbe1d39a83a9ddbfea2dc839c925465d7b9215561ae1b5ffa03",
    },
    "lifetime_table": {
        "metrics.csv":
            "2f6cbb3b11aaab1ce7c720e66a53feb6cf83b0f9aba216b08e86db103e4ce4d1",
        "metrics.json":
            "b1f6f908b69b40ed9b65a4435f9e22f4ae613032f766f919f7db4a13176760a6",
        "packets.trace":
            "c00e8135200a162b58384ffe7a753379900349889666873713a2d4f131a83641",
        "runlog.json":
            "57411fd9923f061b93d20d6d8756771242b0b5487b0e1b7cdbed2d616814e201",
        "runlog_events.csv":
            "834f419bf32799a39bda894626ed3f42b436743bba9bab831931a91f26460c99",
    },
    "temperature_sleep": {
        "metrics.csv":
            "fd3c54653b6f01e9ed8f1829f583367df037f3fda17a6aad8d9f1111a3887636",
        "metrics.json":
            "3cf89d962cafa2856c63857e87fa880c9797989622e5753c95ae771dbac35d94",
        "packets.trace":
            "322da83b4fed89bff3cb8ca534124125ca07a309f89be71a413d2f4b4163d61f",
        "runlog.json":
            "0a9ab848fa4cddcbdf342237b5d60d273fea0659cfa9e84a5fbe75d1bd7f355c",
        "runlog_events.csv":
            "7ce2ff1db378a4d9f1b8ddb3dece51fc71442b6c741b74b532d59a7712d6316f",
    },
}


# The same for the benchmark's two simulation workloads at seed 1, whose
# inputs perfbench/workloads.py generates.
PINNED_BENCH_OUTPUTS = {
    "mixed_ward": {
        "metrics.csv":
            "868f4f852c49745cd7e505034ad9bf35edaf4b852cd957f92341fa67501ec61a",
        "metrics.json":
            "d2db7d641bf061dd0d21333201ad87229ccbf5cc66841be7955bfd647cdb33a4",
        "packets.trace":
            "1b8161726d75faff3ff31f4fdb6624694fceac5fa5a69eaecd9dabe916386a28",
        "runlog.json":
            "fe89cc07f7898ec104f9f36cf486c60d4d83e67607bdcf62b73a9d181f6197d5",
        "runlog_events.csv":
            "4227e439dd011dc504fce7e872ab0098004d15eccf3852a0ff7ad2f6becb067e",
    },
    "sleep_ward": {
        "metrics.csv":
            "9b25d26c6ec47523286fd9649cd1cbe8f428792dd15993dec471ba78c6a4d81e",
        "metrics.json":
            "1b247a5a423691a1de8f568a9f6670dc82c57d5cb8877d07db90a50200750835",
        "packets.trace":
            "8d69134b5c532580c641c58b9f9f17432fd2f50dc8fe7c1d12623b362695f56f",
        "runlog.json":
            "d1fb7bb72506189346e226f71534a83fd25d1b968f89ccbf19fd369564d658f6",
        "runlog_events.csv":
            "2ea24d033070d5c8d495d6c1c0b92dda867e6e9dd95ce639bf09afd8f122faa8",
    },
}


# The same for tests/data's long, sleep-heavy scenario, whose devices
# spend most of 15 minutes in suppressed stretches.
PINNED_TEST_OUTPUTS = {
    "long_sleep": {
        "metrics.csv":
            "f5f56f77ce87c055d26c760123df981eec1edc7885aa6eccccdfcf001483b279",
        "metrics.json":
            "528cc78cbab8cd0684234e2d0304a808eaa81af6ae0c97bbabf52f6355f21c33",
        "packets.trace":
            "caa898506984397c927fe2d065f1f9559427f4f6ea07269e76740eac9999bb41",
        "runlog.json":
            "f5aae75d2c75b4c82f55a85e656a63ebf3f17705bbe6d2421b44cea9b9084ffa",
        "runlog_events.csv":
            "a730cf5f5a86c7b7bc6354e16c59d197b778c649b7cb71c1fa4cbb55d04c626c",
    },
}


def bench_scenario(workload: str, seed: int, directory: Path) -> Path:
    """Write a benchmark workload's inputs into `directory`; return its cfg."""
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.generate(workload, seed, directory).scenario


@pytest.mark.parametrize(
    "scenario", sorted(PINNED_OUTPUTS) + sorted(PINNED_BENCH_OUTPUTS)
    + sorted(PINNED_TEST_OUTPUTS))
def test_simulate_outputs_are_pinned(tmp_path, scenario):
    out = tmp_path / "run"
    if scenario in PINNED_OUTPUTS:
        cfg, pinned = SCENARIO_DIR / f"{scenario}.cfg", PINNED_OUTPUTS[scenario]
    elif scenario in PINNED_TEST_OUTPUTS:
        cfg, pinned = DATA_DIR / f"{scenario}.cfg", PINNED_TEST_OUTPUTS[scenario]
    else:
        cfg = bench_scenario(scenario, 1, tmp_path / "inputs")
        pinned = PINNED_BENCH_OUTPUTS[scenario]
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_OK
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert written == pinned


def pinned_readings():
    """About 5,000 seeded 11-bit readings: 40% repeats, a walk of small and
    some larger steps, and 1% full-range jumps, so the deltas reach every
    codec group."""
    rng = random.Random(2047)
    value, codes = 1024, []
    for _ in range(5000):
        kind = rng.random()
        if kind < 0.01:
            value = rng.randrange(2048)
        elif kind < 0.6:
            step = rng.gauss(0, 48 if kind < 0.05 else 6)
            value = min(2047, max(0, value + round(step)))
        codes.append(value)
    return codes


# SHA-256 of `packets.trace` and of encode's stdout for pinned_readings(),
# with zero deltas suppressed (the default) and sent.
PINNED_CODEC_OUTPUTS = {
    (): ("496ca2757e1b32cc55d53fbf92c529a5f8a55feedca721f41af3b62a94120339",
         "7d9d95f168ff0db46bf7bbdfeccccf0eb4de43d0a2c1facb9b9e0716a571562b"),
    ("--transmit-zeros",): (
        "9337280ee7d3f9722c4491aaee7d192a7327f016076b7c5788af204134f98a1e",
        "e576ee8874200b7e0b138f59196e0ddd6081a03b1cf6db0769622f3bc7c39af0"),
}


def test_encode_decode_outputs_are_pinned(tmp_path, capsys):
    codes = pinned_readings()
    deltas = [b - a for a, b in zip([0] + codes, codes)]
    assert {group_of(delta) for delta in deltas} == set(range(MAX_GROUP + 1))
    src = tmp_path / "codes.csv"
    write_codes(src, codes)
    for flags, pinned in PINNED_CODEC_OUTPUTS.items():
        trace, recon = tmp_path / "packets.trace", tmp_path / "recon.csv"
        assert main(["--out", str(trace), "encode", str(src), "--threshold",
                     "0", "--adc-bits", "11", *flags]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert (hashlib.sha256(trace.read_bytes()).hexdigest(),
                hashlib.sha256(stdout.encode()).hexdigest()) == pinned
        assert main(["--out", str(recon), "decode", str(trace)]) == EXIT_OK
        assert recon.read_bytes() == src.read_bytes()


def test_simulate_missing_scenario(tmp_path):
    assert main(["simulate", str(tmp_path / "absent.cfg")]) == EXIT_DATA


def test_simulate_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nduration_s = 60\n[device:a]\nid = 1\n"
                   "mode = CGLS\nthreshold = 0\nsignal = temperature\n"
                   "sample_period_ms = 500\n")
    assert main(["simulate", str(bad)]) == EXIT_DATA
    assert "CGLS" in capsys.readouterr().err


def test_simulate_prints_a_lifetime_past_1e26(tmp_path, capsys):
    # The table's half-up rounding once ran out of decimal digits at 1e26.
    cfg = tmp_path / "big.cfg"
    cfg.write_text("[run]\nduration_s = 10\n[energy]\nbattery_mah = 1e30\n"
                   "[device:t]\nid = 1\nmode = CGLL\nsignal = temperature\n"
                   "sample_period_ms = 1000\n")
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_OK
    table = capsys.readouterr().out.splitlines()
    life = float(table[1].split()[-1])
    assert life > 1e26
    # Past 2**53 a float is whole, so rounding leaves it as it is.
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert life == float(metrics[1].split(",")[-1])


@pytest.mark.parametrize("signal, param", [
    ("temperature", "step_probability = 2"),
    ("ecg", "beat_period = 3"),
    ("ppg", "pulse_period = 4"),
])
def test_bad_synth_param_is_located(tmp_path, capsys, signal, param):
    # Out-of-range synthetic parameters fail at parse time, naming the
    # device section and the parameter, before anything is written.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[run]\nduration_s = 60\n[device:wave]\nid = 1\n"
                   f"mode = CGLL\nsignal = {signal}\n"
                   f"sample_period_ms = 500\n{param}\n")
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "[device:wave]: " in err
    assert param.split()[0] in err
    assert not out.exists()


_ONE_DEVICE = ("[run]\nduration_s = 60\n[channel]\n[energy]\n"
               "[device:t]\nid = 1\nmode = CGLL\nsample_period_ms = 500\n"
               "signal = temperature\n")


@pytest.mark.parametrize("edit, where", [
    (("duration_s = 60", "duration_s = inf"),
     "[run] duration_s: not a finite number"),
    (("duration_s = 60", "duration_s = nan"),
     "[run] duration_s: not a finite number"),
    (("[channel]", "[channel]\nbase_latency_ms = nan"),
     "[channel] base_latency_ms: not a finite number"),
    (("signal = temperature", "signal = temperature\ncd_ms = nan"),
     "[device:t] cd_ms: not a finite number"),
    (("[energy]", "[energy]\nbattery_mah = inf"),
     "[energy] battery_mah: not a finite number"),
    (("id = 1", "id = 300"), "[device:t]: device_id 300 outside [0, 255]"),
    (("signal = temperature", "file = trace.csv\nadc_range = 30,45"),
     "trace.csv:3: reading nan is not finite"),
], ids=["duration-inf", "duration-nan", "channel-nan", "device-cd-nan",
        "battery-inf", "device-id-300", "trace-nan-row"])
def test_bad_scenario_input_is_located(tmp_path, capsys, edit, where):
    # Each input fails before anything is written, naming where it is; nan
    # would pass every range check and an infinity would reach int() or
    # Decimal.
    (tmp_path / "trace.csv").write_text("37.0\n37.5\nnan\n" + "37.0\n" * 120)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_ONE_DEVICE.replace(*edit))
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_DATA
    assert where in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source, key", [
    ("signal = temperature", "value_column = 1"),
    ("signal = temperature", "adc_range = 30,45"),
    ("file = trace.csv\nadc_range = 30,45", "seed = 4"),
    ("file = trace.csv\nadc_range = 30,45", "start_code = 400"),
    ("file = trace.csv\nadc_range = 30,45", "beat_period = 60"),
], ids=["signal-value_column", "signal-adc_range", "file-seed",
        "file-start_code", "file-beat_period"])
def test_key_the_source_never_reads_is_located(tmp_path, capsys, source, key):
    # Each of these once ran to exit 0 with the key ignored.
    (tmp_path / "trace.csv").write_text("37.0\n" * 120)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_ONE_DEVICE.replace("signal = temperature",
                                       f"{source}\n{key}"))
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "[device:t]" in err and key.split()[0] in err, err
    assert not out.exists()


def test_failed_run_keeps_an_existing_out_dir(tmp_path, capsys):
    # simulate makes --out only after the run, so a failed run leaves an
    # --out that was there as it was.
    (tmp_path / "trace.csv").write_text("37.0\nnan\n" + "37.0\n" * 120)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_ONE_DEVICE.replace(
        "signal = temperature", "file = trace.csv\nadc_range = 30,45"))
    out = tmp_path / "run"
    out.mkdir()
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_DATA
    assert "trace.csv:2: reading nan is not finite" in capsys.readouterr().err
    assert out.is_dir()


@pytest.mark.parametrize("out", ["a/b/run", "a/../b/run"])
def test_failed_run_removes_the_out_parents_it_made(tmp_path, capsys, out):
    # --out is made with its parents only after the run, so a failed run
    # makes no directory, and removes none that was there before.
    (tmp_path / "trace.csv").write_text("37.0\nnan\n" + "37.0\n" * 120)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_ONE_DEVICE.replace(
        "signal = temperature", "file = trace.csv\nadc_range = 30,45"))
    assert main(["--out", str(tmp_path / out), "simulate",
                 str(cfg)]) == EXIT_DATA
    assert "trace.csv:2: reading nan is not finite" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "bad.cfg", "trace.csv"]


def test_busy_time_past_the_period_by_rounding_is_refused(tmp_path, capsys):
    # cd + wake + transit adds up to exactly the 13 ms period, but the rest
    # the device loop charges, 13 - cd - wake - transit, is -8.9e-16 ms. The
    # run once stopped part-way, at the first wake, with an unlocated
    # "duration must be non-negative". The message names that rest: the
    # busy time, 13.0 ms, would not read as past the period.
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "[run]\nduration_s = 13\n"
        "[channel]\nbase_latency_ms = 5.3887543874591595\n"
        "[energy]\nwake_latency_ms = 1.5522851060339682\n"
        "[sleep]\nenabled = true\nsuppressions_before_sleep = 1\n"
        "[device:t]\nid = 1\nmode = CGLL\nsample_period_ms = 13\n"
        "signal = temperature\nstep_probability = 0.3\n"
        "cd_ms = 6.058960506506874\n")
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        "error: device t: per-sample busy time leaves a rest of "
        "-8.881784197001252e-16ms of the 13ms sample period\n")
    assert not out.exists()


@pytest.mark.parametrize("edit, refused", [
    # A raw device spends no cpu time: 500 - 460 - 49 would be negative.
    (("mode = CGLL", "mode = CGWC\ncd_ms = 460"), False),
    (("mode = CGLL", "mode = CGLL\ncd_ms = 460"), True),
    # Without sleep no stretch ends in a wake: 500 - 1 - 460 - 49 would be.
    (("[energy]", "[energy]\nwake_latency_ms = 460"), False),
    (("[energy]", "[energy]\nwake_latency_ms = 460\n"
      "[sleep]\nenabled = true"), True),
])
def test_busy_time_counts_only_what_the_loop_charges(tmp_path, capsys, edit,
                                                     refused):
    cfg = tmp_path / "busy.cfg"
    cfg.write_text(_ONE_DEVICE.replace(*edit))
    out = tmp_path / "run"
    code = main(["--out", str(out), "simulate", str(cfg)])
    err = capsys.readouterr().err
    if refused:
        assert code == EXIT_DATA
        assert err.startswith("error: device t: per-sample busy time leaves "
                              "a rest of -")
        assert err.endswith("ms of the 500ms sample period\n")
    else:
        assert (code, err) == (EXIT_OK, "")
        runlog = json.loads((out / "runlog.json").read_text())
        assert runlog["devices"][0]["state_time_ms"]["cpu"] == (
            0.0 if "CGWC" in edit[1] else 120.0)


@pytest.mark.parametrize("command", ["encode", "signals-dump", "simulate"])
def test_csv_field_past_the_reader_limit_is_located(tmp_path, capsys,
                                                    command):
    # csv.reader refuses a field longer than its limit: once a _csv.Error
    # traceback, exit 1.
    src = tmp_path / "wide.csv"
    src.write_text("37\n38\n1," + "x" * 200_000 + "\n39\n")
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(_ONE_DEVICE.replace(
        "signal = temperature", "file = wide.csv\nadc_range = 30,45"))
    argv = {"encode": ["--out", str(tmp_path / "wide.trace"), "encode",
                       str(src)],
            "signals-dump": ["signals", "dump", "--file", str(src),
                             "--range", "30,45"],
            "simulate": ["simulate", str(cfg)]}[command]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "wide.csv:3: field larger than field limit" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["encode", "simulate"])
def test_csv_line_of_digits_past_the_reader_limit_is_located(tmp_path, capsys,
                                                             command):
    # Text without quotes or carriage returns is parsed a column at a time,
    # but a line longer than csv.reader's field limit is still read as
    # csv.reader reads it: not as float's inf, nor past int's digit limit.
    src = tmp_path / "wide.csv"
    src.write_text("37\n38\n" + "9" * 200_000 + "\n39\n")
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(_ONE_DEVICE.replace(
        "signal = temperature", "file = wide.csv\nadc_range = 30,45"))
    argv = {"encode": ["--out", str(tmp_path / "wide.trace"), "encode",
                       str(src)],
            "simulate": ["simulate", str(cfg)]}[command]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {src}:3: field larger than field limit (131072)\n")


@pytest.mark.parametrize("command", ["encode", "signals-dump", "simulate"])
@pytest.mark.parametrize("header", ["", "value\n"], ids=["bare", "header"])
def test_csv_byte_order_mark_is_not_a_cell(tmp_path, capsys, command,
                                           header):
    # "\ufeff36" is no number: a mark read as text made the first reading a
    # header and dropped it.
    outputs = []
    for mark in ("", "\ufeff"):
        work = tmp_path / f"mark{len(mark)}"
        work.mkdir()
        (work / "v.csv").write_text(mark + header + "36\n37\n38\n")
        (work / "v.cfg").write_text(_ONE_DEVICE.replace(
            "signal = temperature", "file = v.csv\nadc_range = 30,45"
        ).replace("duration_s = 60", "duration_s = 1.5"))
        out = work / "out"
        argv = {"encode": ["encode", str(work / "v.csv")],
                "signals-dump": ["signals", "dump", "--file",
                                 str(work / "v.csv"), "--range", "30,45"],
                "simulate": ["simulate", str(work / "v.cfg")]}[command]
        assert main(["--out", str(out), *argv]) == EXIT_OK
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        outputs.append((capsys.readouterr(),
                        [path.read_bytes() for path in files]))
    assert outputs[0] == outputs[1]
    # All three readings are read: encode counts 3, and the others write the
    # third one's code, 545.
    third = {"encode": b"original=3 ", "signals-dump": b"\n2000,545\n",
             "simulate": b"\n1,2,1000.0,545,"}[command]
    assert third in outputs[0][0].out.encode() + b"".join(outputs[0][1])


def test_negative_zero_delays_keep_their_sign(tmp_path, capsys):
    # -0.0 == 0.0, so a cell cached by float value would write one device's
    # zero with another's sign. Each device's rows spell its own.
    devices = "".join(
        f"[device:t{i}]\nid = {i}\nmode = CGLL\nsample_period_ms = 5000\n"
        f"signal = temperature\nseed = 7\ncd_ms = {ms}\ndd_ms = {ms}\n"
        for i, ms in ((1, "0.0"), (2, "-0.0"), (3, "0.0")))
    cfg = tmp_path / "zeros.cfg"
    cfg.write_text("[run]\nduration_s = 15\n[channel]\n[energy]\n" + devices)
    out = tmp_path / "run"
    assert main(["--out", str(out), "simulate", str(cfg)]) == EXIT_OK
    rows = [f"{i},0,0.0,477,1,477,16,{ms},49.0,{ms},49.0,477\n"
            f"{i},1,5000.0,477,0,,0,{ms},0.0,0.0,,477\n"
            f"{i},2,10000.0,477,0,,0,{ms},0.0,0.0,,477\n"
            for i, ms in ((1, "0.0"), (2, "-0.0"), (3, "0.0"))]
    assert (out / "runlog_events.csv").read_text() == (
        ",".join(SampleEvent._fields) + "\n" + "".join(rows))
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.encode() == \
        (out / "metrics.csv").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scenario", sorted(PINNED_OUTPUTS))
def test_report_reproduces_simulate_metrics(tmp_path, capsys, scenario, fmt):
    # report folds the events file back into the sums simulate computed,
    # so it writes the metrics file simulate wrote, byte for byte, both to
    # stdout and to --out.
    out = tmp_path / "run"
    main(["--out", str(out), "simulate", str(SCENARIO_DIR / f"{scenario}.cfg")])
    capsys.readouterr()
    written = (out / f"metrics.{fmt}").read_bytes()
    assert main(["--format", fmt, "report", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.encode() == written
    copy = tmp_path / f"report.{fmt}"
    assert main(["--format", fmt, "--out", str(copy), "report",
                 str(out)]) == EXIT_OK
    assert copy.read_bytes() == written


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_refuses_a_duration_too_short_to_count_in_hours(tmp_path,
                                                               capsys, fmt):
    # The smallest positive float passes runlog.json's positive-number
    # check, but its hours underflow to 0.0: once a ZeroDivisionError
    # traceback, exit 1.
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])
    summary = out / "runlog.json"
    summary.write_text(summary.read_text().replace(
        '"duration_ms": 600000.0', '"duration_ms": 5e-324', 1))
    capsys.readouterr()
    assert main(["--format", fmt, "report", str(out)]) == EXIT_DATA
    assert capsys.readouterr() == (
        "", f"error: {summary}: duration_ms 5e-324: too short to count in "
            f"hours\n")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                    reason="this interpreter converts ints of any length")
def test_report_names_runlog_json_for_an_int_past_the_digit_limit(
        tmp_path, capsys):
    # json.loads raises the interpreter's advice for an int of more than
    # 4,300 digits, once reported with no key named. The text is written
    # directly, since json.dumps refuses such an int.
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])
    summary = out / "runlog.json"
    text, count = re.subn(r'"seed": [0-9]+', '"seed": ' + "9" * 5000,
                          summary.read_text(), count=1)
    assert count == 1
    summary.write_text(text)
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {summary}: seed: not an integer\n"


@pytest.mark.parametrize("digits", [20, 4300])
def test_report_reads_back_a_long_seed_simulate_wrote(tmp_path, capsys,
                                                      digits):
    # simulate takes a seed of any length int() reads, and report reads
    # back what simulate wrote.
    out = tmp_path / "run"
    assert main(["--seed", "9" * digits, "--out", str(out), "simulate",
                 str(SCENARIO_DIR / "temperature_sleep.cfg")]) == EXIT_OK
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_report_on_non_run_directory(tmp_path):
    assert main(["report", str(tmp_path)]) == EXIT_DATA


def _edit_events(edit):
    """A run-directory mangler that edits the events file's lines in place."""
    def mangle(rundir):
        path = rundir / "runlog_events.csv"
        lines = path.read_text().splitlines(keepends=True)
        edit(lines)
        path.write_text("".join(lines))
    return mangle


def _edit_third_event_line(edit):
    def change(lines):
        lines[2] = edit(lines[2])
    return _edit_events(change)


def _delete_row_of(device_id, index):
    # Rows are grouped by device: index 0 is the device's seq-0 row, and -1
    # its last.
    def delete(lines):
        lines.remove([line for line in lines
                      if line.startswith(f"{device_id},")][index])
    return _edit_events(delete)


def _edit_summary(edit):
    def mangle(rundir):
        path = rundir / "runlog.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return mangle


def _drop_payload_bits(doc):
    del doc["devices"][1]["payload_bits"]


def _string_samples(doc):
    doc["devices"][2]["samples"] = "120"


def _zero_samples(doc):
    doc["devices"][0]["samples"] = 0


def _infinite_battery(doc):
    doc["devices"][0]["battery_mah"] = float("inf")


def _infinite_lifetime(doc):
    # Finite values whose lifetime is past the float range.
    device = doc["devices"][0]
    device["battery_mah"] = 1.7e308
    device["state_charge_mah"] = dict.fromkeys(device["state_charge_mah"],
                                               1e-3)


def _set_cell(index, text):
    def edit(line):
        cells = line.rstrip("\n").split(",")
        cells[index] = text
        return ",".join(cells) + "\n"
    return edit


def _set_event_cell(lineno, column, text):
    # Line 1 is the header. Device 1 (raw, every row transmitted) is on
    # lines 2-121, and device 2 (lossless) starts on line 122 with a
    # transmitted row, then a suppressed one.
    def edit(lines):
        index = SampleEvent._fields.index(column)
        lines[lineno - 1] = _set_cell(index, text)(lines[lineno - 1])
    return _edit_events(edit)


def _swap_rows(lines):
    # Device 1's seq 1 and 2 rows: their cells are alike, so the counts
    # and sums would still agree.
    lines[2], lines[3] = lines[3], lines[2]


@pytest.mark.parametrize("mangle, where", [
    (_edit_third_event_line(lambda line: "1,2\n"), "runlog_events.csv:3:"),
    (_edit_third_event_line(lambda line: "x" + line[line.index(","):]),
     "runlog_events.csv:3:"),
    # Cells the metrics do not use are checked all the same.
    (_edit_third_event_line(_set_cell(3, "x")), "runlog_events.csv:3:"),
    (_edit_third_event_line(_set_cell(10, "x")), "runlog_events.csv:3:"),
    # Device id 2 is the second device: its rows start on line 122, where
    # seq 1 now comes first, and a missing last row shows in the counts.
    (_delete_row_of(2, 0),
     "runlog_events.csv:122: seq 1: expected 0 for device 2"),
    (_delete_row_of(2, -1),
     "runlog.json: device 1: samples 120 and transmitted"),
    (_edit_summary(_drop_payload_bits), "runlog.json: device 1:"),
    (_edit_summary(_string_samples), "runlog.json: device 2: samples"),
    (_edit_summary(_zero_samples),
     "runlog.json: device 0: orig_pkt must be positive"),
    # json writes and reads Infinity, which is not JSON.
    (_edit_summary(_infinite_battery),
     "runlog.json: device 0: battery_mah: not a number"),
    (_edit_summary(_infinite_lifetime),
     "runlog.json: device 0: lifetime_h is not finite"),
], ids=["short-row", "non-numeric-cell", "non-numeric-value",
        "non-numeric-arrival", "deleted-event-row", "deleted-last-row",
        "missing-device-key", "mistyped-device-value",
        "inconsistent-device-values", "infinite-device-value",
        "infinite-lifetime"])
def test_report_locates_malformed_run_dir(tmp_path, capsys, mangle, where):
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])
    mangle(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_DATA
    assert where in capsys.readouterr().err


def test_report_reads_run_dir_with_rx_state(tmp_path, capsys):
    # Run directories written before the never-charged rx state was dropped
    # carry "rx": 0.0 in both state maps; they report the same metrics.
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])

    def add_rx(doc):
        for dev in doc["devices"]:
            dev["state_time_ms"]["rx"] = 0.0
            dev["state_charge_mah"]["rx"] = 0.0
    _edit_summary(add_rx)(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (out / "metrics.csv").read_text()


def test_report_reads_devices_interleaved_in_time(tmp_path, capsys):
    # Run directories written before devices ran one after another hold
    # their rows in time order; each device's rows are still in seq order.
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])

    def by_time(lines):
        lines[1:] = sorted(lines[1:], key=lambda row: float(row.split(",")[2]))
    _edit_events(by_time)(out)
    rows = (out / "runlog_events.csv").read_text().splitlines()[1:4]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (out / "metrics.csv").read_text()


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def _repeat_first_device(doc):
    doc["devices"].append(dict(doc["devices"][0]))


def _zero_battery(doc):
    doc["devices"][0]["battery_mah"] = 0


def _overflow_delay_sums(rundir):
    # Each row's cd_ms + dd_ms + dtr_ms stays finite, but the cd_ms sum of
    # device 1 (its rows on lines 2 and 5) overflows.
    path = rundir / "runlog_events.csv"
    lines = path.read_text().splitlines(keepends=True)
    for index in (1, 4):
        lines[index] = _set_cell(7, "1e+308")(lines[index])
    path.write_text("".join(lines))


def _overflow_run_delay_sum(rundir):
    # Each device's delay sums stay finite, but not the run's: cd_ms is
    # 1e+308 on the first transmitted row of every device.
    path = rundir / "runlog_events.csv"
    lines = path.read_text().splitlines(keepends=True)
    seen = set()
    for index, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[4] == "1" and cells[0] not in seen:
            seen.add(cells[0])
            lines[index] = _set_cell(7, "1e+308")(line)
    path.write_text("".join(lines))


def _set_first_device(key, value):
    def edit(doc):
        device = doc["devices"][0]
        if isinstance(device[key], dict):
            device[key]["idle"] = value
        else:
            device[key] = value
    return edit


def _overflow_charge_sum(doc):
    # Each charge is a finite number; their sum is not.
    charges = doc["devices"][0]["state_charge_mah"]
    charges["idle"] = charges["sleep"] = 1e308


@pytest.mark.parametrize("mangle, where", [
    (_edit_third_event_line(_set_cell(7, "nan")),
     "runlog_events.csv:3: cd_ms nan: not a finite non-negative float"),
    (_edit_third_event_line(_set_cell(9, "inf")),
     "runlog_events.csv:3: dd_ms inf: not a finite non-negative float"),
    (_edit_third_event_line(_set_cell(4, "2")),
     "runlog_events.csv:3: transmitted 2: not 0 or 1"),
    (_edit_summary(_repeat_first_device),
     "runlog.json: device 3: device_id 1 repeats device 0"),
    (_edit_summary(_zero_battery),
     "runlog.json: device 0: battery_mah must be positive"),
    (_overflow_delay_sums,
     "runlog.json: device 0: delay sums are not finite"),
    (_overflow_run_delay_sum, "runlog.json: run delay sum is not finite"),
    (_edit_summary(_overflow_charge_sum),
     "runlog.json: device 0: state_charge_mah sum is not finite"),
    (_edit_third_event_line(_set_cell(7, "-500.0")),
     "runlog_events.csv:3: cd_ms -500.0: not a finite non-negative float"),
    (_edit_summary(_set_first_device("state_charge_mah", -0.001)),
     "runlog.json: device 0: state_charge_mah: holds a negative number"),
    (_edit_summary(_set_first_device("state_time_ms", -1.0)),
     "runlog.json: device 0: state_time_ms: holds a negative number"),
    (_edit_summary(_set_first_device("payload_bits", -1)),
     "runlog.json: device 0: payload_bits: holds a negative number"),
    # Device 1 sends 120 raw 10-bit readings.
    (_edit_summary(_set_first_device("payload_bits", 1201)),
     "runlog.json: device 0: payload_bits 1201, but the transmitted rows "
     "hold 1200 codeword bits"),
    (_edit_third_event_line(_set_cell(6, "11")),
     "runlog.json: device 0: payload_bits 1200, but the transmitted rows "
     "hold 1201 codeword bits"),
    # Spellings that read as the value simulate wrote, or sit in a cell the
    # metrics do not use.
    (_set_event_cell(2, "seq", "+0"), "runlog_events.csv:2: seq +0: not "),
    (_set_event_cell(3, "seq", " 1"), "runlog_events.csv:3: seq  1: not "),
    (_set_event_cell(3, "seq", "01"), "runlog_events.csv:3: seq 01: not "),
    (_set_event_cell(3, "value", "1_0"),
     "runlog_events.csv:3: value 1_0: not "),
    (_set_event_cell(122, "value", "0477"),
     "runlog_events.csv:122: value 0477: not "),
    (_set_event_cell(122, "residual", " 477"),
     "runlog_events.csv:122: residual  477: not "),
    (_set_event_cell(2, "time_ms", "0."),
     "runlog_events.csv:2: time_ms 0.: not "),
    (_set_event_cell(123, "dtr_ms", "1e308"),
     "runlog_events.csv:123: dtr_ms 1e308: not "),
    (_set_event_cell(3, "arrival_ms", "nan"),
     "runlog_events.csv:3: arrival_ms nan: not "),
    (_set_event_cell(3, "time_ms", "inf"),
     "runlog_events.csv:3: time_ms inf: not "),
    (_set_event_cell(3, "arrival_ms", "-1.0"),
     "runlog_events.csv:3: arrival_ms -1.0: not "),
    (_set_event_cell(3, "device_id", '"1"'),
     'runlog_events.csv:3: device_id "1": not '),
    (_edit_events(_swap_rows),
     "runlog_events.csv:3: seq 2: expected 1 for device 1"),
    # Past the float range, though the exponent is at most +308.
    (_set_event_cell(2, "time_ms", "9e+308"),
     "runlog_events.csv:2: time_ms 9e+308: not "),
    (_set_event_cell(3, "arrival_ms", "2.5e+308"),
     "runlog_events.csv:3: arrival_ms 2.5e+308: not "),
    (_set_event_cell(123, "cd_ms", "1.8e+308"),
     "runlog_events.csv:123: cd_ms 1.8e+308: not "),
], ids=["nan-delay", "inf-delay", "transmitted-2", "repeated-device",
        "zero-battery", "overflowing-delay-sums", "overflowing-run-delay-sum",
        "overflowing-charge-sum", "negative-delay", "negative-charge",
        "negative-state-time", "negative-payload-bits",
        "payload-bits-in-summary", "codeword-bits-in-events", "signed-seq",
        "padded-seq", "zero-led-seq", "underscored-value", "zero-led-value",
        "padded-residual", "bare-point-time", "unsigned-exponent-delay",
        "nan-arrival", "inf-time", "negative-arrival", "quoted-device-id",
        "swapped-rows", "huge-mantissa-time", "huge-mantissa-arrival",
        "huge-mantissa-suppressed-delay"])
def test_report_rejects_values_simulate_never_writes(tmp_path, capsys,
                                                      mangle, where):
    # Each of these once reported with exit 0: a NaN delay as "NaN" in the
    # JSON, which is not JSON, a repeated device twice, and a negative
    # number as a negative delay or a smaller charge.
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])
    mangle(out)
    capsys.readouterr()
    assert main(["--format", "json", "report", str(out)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert where in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, culprit", [
    (["simulate", "{dir}"], "{dir}"),
    (["--out", "{tmp}/x.trace", "encode", "{dir}"], "{dir}"),
    (["decode", "{dir}"], "{dir}"),
    (["signals", "dump", "--file", "{dir}", "--range", "0,1"], "{dir}"),
    (["--out", "{dir}", "encode", "{tmp}/codes.csv"], "{dir}"),
    (["--out", "{dir}", "decode", "{tmp}/codes.trace"], "{dir}"),
    (["--out", "{tmp}/taken.csv", "simulate", "{tmp}/one.cfg"],
     "{tmp}/taken.csv"),
], ids=["simulate-dir", "encode-dir", "decode-dir", "dump-dir",
        "encode-out-dir", "decode-out-dir", "simulate-out-file"])
def test_unusable_path_is_data_error(tmp_path, capsys, argv, culprit):
    # The open or write that touches a path is its only check: the OSError
    # it raises names the path and exits 2, like any other data error, and
    # comes before any output (simulate makes --out before it prints).
    (tmp_path / "dir").mkdir()
    write_codes(tmp_path / "codes.csv", [1, 2, 3])
    assert main(["--out", str(tmp_path / "codes.trace"), "encode",
                 str(tmp_path / "codes.csv")]) == EXIT_OK
    (tmp_path / "taken.csv").write_text("")
    (tmp_path / "one.cfg").write_text(_ONE_DEVICE)
    capsys.readouterr()
    names = {"dir": tmp_path / "dir", "tmp": tmp_path}
    assert main([arg.format(**names) for arg in argv]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno ")
    assert f"'{culprit.format(**names)}'" in captured.err


@pytest.mark.parametrize("value", ["60 % of an hour", "1%(x)s"])
def test_percent_in_scenario_value_is_literal(tmp_path, capsys, value):
    # Scenario values are read as written, so '%' is just a character and
    # these are plain non-numbers, not interpolation failures.
    cfg = tmp_path / "pct.cfg"
    cfg.write_text(_ONE_DEVICE.replace("duration_s = 60",
                                       f"duration_s = {value}"))
    assert main(["simulate", str(cfg)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: [run] duration_s: not a number\n"
