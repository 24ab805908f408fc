import json
from pathlib import Path

import pytest

from conftest import SCENARIO_DIR
from wbancomp.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from wbancomp.tracefile import read_trace


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
    assert packet.bit_count == 9
    assert packet.bits().to01() == "110100110"


def test_encode_empty_file_fails(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("")
    rc = main(["--out", str(tmp_path / "x.trace"), "encode", str(src)])
    assert rc == EXIT_DATA
    assert "no readings" in capsys.readouterr().err


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
    import random
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
    import random
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
    assert f"packet at sample {seq}" in capsys.readouterr().err


def test_decode_missing_file(tmp_path):
    assert main(["decode", str(tmp_path / "absent.trace")]) == EXIT_DATA


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


def test_simulate_missing_scenario(tmp_path):
    assert main(["simulate", str(tmp_path / "absent.cfg")]) == EXIT_DATA


def test_simulate_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nduration_s = 60\n[device:a]\nid = 1\n"
                   "mode = CGLS\nthreshold = 0\nsignal = temperature\n"
                   "sample_period_ms = 500\n")
    assert main(["simulate", str(bad)]) == EXIT_DATA
    assert "CGLS" in capsys.readouterr().err


def test_report_round_trips_simulated_metrics(tmp_path, capsys):
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])
    capsys.readouterr()
    assert main(["--format", "json", "report", str(out)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["run"]["device_count"] == 3
    written = json.loads((out / "metrics.json").read_text())
    assert doc == written


def test_report_csv_matches_simulate_output(tmp_path, capsys):
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "lifetime_table.cfg")])
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == (out / "metrics.csv").read_text()


def test_report_on_non_run_directory(tmp_path):
    assert main(["report", str(tmp_path)]) == EXIT_DATA


def _edit_third_event_line(edit):
    def mangle(rundir):
        path = rundir / "runlog_events.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = edit(lines[2])
        path.write_text("".join(lines))
    return mangle


def _drop_payload_bits(rundir):
    path = rundir / "runlog.json"
    doc = json.loads(path.read_text())
    del doc["devices"][1]["payload_bits"]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("mangle, where", [
    (_edit_third_event_line(lambda line: "1,2\n"), "runlog_events.csv:3:"),
    (_edit_third_event_line(lambda line: "x" + line[line.index(","):]),
     "runlog_events.csv:3:"),
    (_drop_payload_bits, "runlog.json: device 1:"),
], ids=["short-row", "non-numeric-cell", "missing-device-key"])
def test_report_locates_malformed_run_dir(tmp_path, capsys, mangle, where):
    out = tmp_path / "run"
    main(["--out", str(out), "simulate",
          str(SCENARIO_DIR / "temperature_sleep.cfg")])
    mangle(out)
    capsys.readouterr()
    assert main(["report", str(out)]) == EXIT_DATA
    assert where in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE
