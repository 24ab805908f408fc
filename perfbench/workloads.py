"""Workload inputs, CLI steps and output checks for the wbancomp benchmark.

Every input is generated here from (workload, seed); the program under test
only ever sees the generated files. Sizes are fixed per workload and only the
signal details vary with the seed, so runs on different seeds do the same
amount of work.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mixed_ward", "sleep_ward", "codec_roundtrip")
SIM_WORKLOADS = ("mixed_ward", "sleep_ward")

# Sizes. Each CLI child takes a few tenths of a second, so one run of
# --seconds collects enough repetitions for a steady median.
MIXED_DURATION_S = 300
SLEEP_DEVICES = 40
SLEEP_DURATION_S = 900
CODEC_READINGS = 60_000
CODEC_ADC_BITS = 11

# The default --seed and the held-out seed whose metrics.json is recorded.
RECORDED_SEEDS = (1, 2)
RECORDED = Path(__file__).resolve().parent / "recorded.json"


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    dir: Path
    scenario: Path | None = None   # simulation workloads
    readings: Path | None = None   # codec_roundtrip


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    """Write the workload's input files for `seed` into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mixed_ward":
        return _mixed_ward(rng, seed, directory)
    if workload == "sleep_ward":
        return _sleep_ward(rng, seed, directory)
    if workload == "codec_roundtrip":
        return _codec_roundtrip(rng, seed, directory)
    raise ValueError(f"unknown workload {workload!r}")


def _device(name: str, **keys) -> str:
    lines = [f"[device:{name}]"] + [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def _mixed_ward(rng: random.Random, seed: int, directory: Path) -> Inputs:
    # Mostly-transmitting devices under all three modes, plus a file-fed
    # 11-bit device whose rare full-range spikes push codewords to group 11.
    file_period_ms = 60
    rows = MIXED_DURATION_S * 1000 // file_period_ms
    phase = rng.uniform(0, 2 * math.pi)
    with (directory / "ward_wave.csv").open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["time_s", "value_mv"])
        for i in range(rows):
            value = (1.2 * math.sin(2 * math.pi * i / 97 + phase)
                     + 0.4 * math.sin(2 * math.pi * i / 13)
                     + rng.gauss(0, 0.05))
            if rng.random() < 0.01:
                value = rng.uniform(-2.5, 2.5)
            writer.writerow([f"{i * file_period_ms / 1000:.3f}", f"{value:.6f}"])

    ecg = {"signal": "ecg", "sample_period_ms": 80}
    ppg = {"signal": "ppg", "sample_period_ms": 100}
    devices = [
        _device("ecg_raw", id=1, mode="CGWC", **ecg,
                jitter_probability=round(rng.uniform(0.45, 0.55), 3)),
        _device("ecg_lossless", id=2, mode="CGLL", threshold=0, **ecg,
                jitter_probability=round(rng.uniform(0.45, 0.55), 3)),
        _device("ecg_lossy", id=3, mode="CGLS", threshold=1, **ecg,
                jitter_probability=round(rng.uniform(0.45, 0.55), 3)),
        _device("ppg_lossless", id=4, mode="CGLL", threshold=0, **ppg,
                amplitude=round(rng.uniform(100, 120), 1),
                pulse_period=rng.randint(50, 60)),
        _device("ppg_lossy", id=5, mode="CGLS", threshold=2, **ppg,
                amplitude=round(rng.uniform(100, 120), 1),
                pulse_period=rng.randint(50, 60)),
        _device("temp_lossy", id=6, mode="CGLS", threshold=1,
                signal="temperature", sample_period_ms=1000,
                step_probability=0.05),
        _device("wave_file", id=7, mode="CGLS", threshold=1,
                file="ward_wave.csv", value_column=1, adc_range="-2.5,2.5",
                adc_bits=CODEC_ADC_BITS, sample_period_ms=file_period_ms),
    ]
    text = (f"[run]\nduration_s = {MIXED_DURATION_S}\nseed = {seed}\n\n"
            "[channel]\nbase_latency_ms = 49\nper_bit_delay_ms = 0.1\n\n"
            "[sleep]\nenabled = false\n\n" + "\n".join(devices))
    scenario = directory / "mixed_ward.cfg"
    scenario.write_text(text)
    return Inputs("mixed_ward", seed, directory, scenario=scenario)


def _sleep_ward(rng: random.Random, seed: int, directory: Path) -> Inputs:
    # Many slow temperature devices that rarely change: the filter suppresses
    # almost everything and the radios spend most of the run asleep.
    devices = []
    for i in range(SLEEP_DEVICES):
        lossy = i % 2 == 1
        devices.append(_device(
            f"temp{i:02d}", id=i + 1, mode="CGLS" if lossy else "CGLL",
            threshold=1 + i % 4 // 2 if lossy else 0,
            signal="temperature", sample_period_ms=1000,
            start_code=rng.randint(400, 600),
            step_probability=round(rng.uniform(0.008, 0.012), 4)))
    text = (f"[run]\nduration_s = {SLEEP_DURATION_S}\nseed = {seed}\n\n"
            "[channel]\nbase_latency_ms = 49\n\n"
            "[energy]\nwake_latency_ms = 2\n\n"
            "[sleep]\nenabled = true\nsuppressions_before_sleep = 2\n\n"
            + "\n".join(devices))
    scenario = directory / "sleep_ward.cfg"
    scenario.write_text(text)
    return Inputs("sleep_ward", seed, directory, scenario=scenario)


def _codec_roundtrip(rng: random.Random, seed: int, directory: Path) -> Inputs:
    # Mostly small deltas (about 40% zero) with a tail that reaches every
    # codeword group up to 11.
    top = (1 << CODEC_ADC_BITS) - 1
    value = rng.randint(0, top)
    readings = []
    for _ in range(CODEC_READINGS):
        if rng.random() < 0.01:
            group = rng.randint(7, CODEC_ADC_BITS)
            delta = rng.randint(1 << (group - 1), (1 << group) - 1)
            if value + delta > top:
                delta = -delta
            if value + delta < 0:
                delta = top - value if top - value > value else -value
        elif rng.random() < 0.4:
            delta = 0
        else:
            delta = round(rng.gauss(0, 6))
        value = min(max(value + delta, 0), top)
        readings.append(value)
    path = directory / "readings.csv"
    path.write_text("".join(f"{v}\n" for v in readings))
    return Inputs("codec_roundtrip", seed, directory, readings=path)


# --- CLI steps -------------------------------------------------------------

def steps(inputs: Inputs, out: Path) -> list[tuple[str, list[str]]]:
    """(label, wbancomp argv) of the workload's produce and readback steps."""
    if inputs.scenario is not None:
        rundir = str(out / "run")
        return [
            ("simulate", ["--out", rundir, "simulate", str(inputs.scenario)]),
            ("report", ["--format", "json", "--out", str(out / "report.json"),
                        "report", rundir]),
        ]
    trace = str(out / "packets.trace")
    return [
        ("encode", ["--out", trace, "encode", str(inputs.readings),
                    "--threshold", "0", "--adc-bits", str(CODEC_ADC_BITS)]),
        ("decode", ["--out", str(out / "decoded.csv"), "decode", trace]),
    ]


# --- Output checks -----------------------------------------------------------
# Each check returns a list of error strings; an empty list means the step's
# output is correct.

def codeword_bits(residual: int) -> int:
    """Codeword length from the codec spec: n + 3 up to group 6, else 2n - 2."""
    group = abs(residual).bit_length()
    return group + 3 if group <= 6 else 2 * group - 2


def expected_encode(readings_path: Path) -> dict:
    """What `encode --threshold 0` must emit for a reading file."""
    readings = [int(line) for line in readings_path.read_text().split()]
    seqs, bits = [0], codeword_bits(readings[0])
    for seq in range(1, len(readings)):
        delta = readings[seq] - readings[seq - 1]
        if delta:
            seqs.append(seq)
            bits += codeword_bits(delta)
    return {"seqs": seqs, "payload_bits": bits}


def group_histogram(residuals) -> list[int]:
    hist = [0] * 12
    for residual in residuals:
        hist[abs(residual).bit_length()] += 1
    return hist


def check_encode(out: Path, expected: dict) -> tuple[list[str], dict]:
    path = out / "packets.trace"
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        return [f"no packet trace: {exc}"], {}
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    try:
        seqs = [int(row[0]) for row in rows]
        bits = sum(int(row[2]) for row in rows)
    except (IndexError, ValueError):
        return ["malformed packet trace row"], {}
    errors = []
    if seqs != expected["seqs"]:
        errors.append(f"trace holds {len(seqs)} packets at unexpected samples "
                      f"({len(expected['seqs'])} expected)")
    if bits != expected["payload_bits"]:
        errors.append(f"trace holds {bits} payload bits, spec gives "
                      f"{expected['payload_bits']}")
    counts = {"packets": len(seqs), "payload_bits": bits,
              "trace_bytes": path.stat().st_size}
    return errors, counts


def check_decode(out: Path, inputs: Inputs) -> list[str]:
    try:
        decoded = (out / "decoded.csv").read_bytes()
    except OSError as exc:
        return [f"no decode output: {exc}"]
    if decoded != inputs.readings.read_bytes():
        return ["decode output differs from the input readings"]
    return []


def check_simulate(out: Path, recorded: dict | None) -> tuple[list[str], dict]:
    rundir = out / "run"
    try:
        summary = json.loads((rundir / "runlog.json").read_text())
        metrics_doc = json.loads((rundir / "metrics.json").read_text())
        with (rundir / "runlog_events.csv").open(newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable run directory: {exc}"], {}
    errors = []
    bound = {dev["device_id"]: 0 if dev["mode"] in ("CGWC", "CGLL")
             else dev["threshold"] for dev in summary["devices"]}
    col = {name: i for i, name in enumerate(header)}
    residuals = []
    worst = 0
    try:
        for row in rows:
            error = abs(int(row[col["reconstructed"]]) - int(row[col["value"]]))
            if error > bound[int(row[col["device_id"]])]:
                worst = max(worst, error)
            if row[col["residual"]] != "":
                residuals.append(int(row[col["residual"]]))
    except (KeyError, IndexError, ValueError) as exc:
        return [f"malformed runlog_events.csv: {exc!r}"], {}
    if worst:
        errors.append(f"reconstruction error {worst} exceeds a device threshold")
    duration = summary["duration_ms"]
    for dev in summary["devices"]:
        total = sum(dev["state_time_ms"].values())
        if not math.isclose(total, duration, rel_tol=1e-9):
            errors.append(f"device {dev['device_id']}: state time {total} ms "
                          f"!= run duration {duration} ms")
    if recorded is not None and metrics_doc != recorded:
        errors.append("metrics.json differs from the recorded statistics")
    samples = sum(dev["samples"] for dev in summary["devices"])
    packets = sum(dev["transmitted"] for dev in summary["devices"])
    if len(rows) != samples:
        errors.append(f"{len(rows)} event rows for {samples} samples")
    counts = {
        "samples": samples,
        "packets": packets,
        "events": samples + packets,
        "payload_bits": sum(dev["payload_bits"] for dev in summary["devices"]),
        "groups": group_histogram(residuals),
        "rundir_bytes": sum(p.stat().st_size for p in rundir.iterdir()),
        "trace_bytes": (rundir / "packets.trace").stat().st_size,
    }
    return errors, counts


def check_report(out: Path) -> list[str]:
    try:
        report_doc = json.loads((out / "report.json").read_text())
        metrics_doc = json.loads((out / "run" / "metrics.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    if report_doc != metrics_doc:
        return ["report --format json differs from metrics.json"]
    return []


def load_recorded(inputs: Inputs) -> dict | None:
    """Recorded metrics.json for this workload and seed, if there is one."""
    if inputs.scenario is None or not RECORDED.exists():
        return None
    return json.loads(RECORDED.read_text()).get(inputs.workload, {}).get(
        str(inputs.seed))


class Checker:
    """Runs the output checks of one workload's steps and keeps the counts."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.recorded = load_recorded(inputs)
        self.expected = (expected_encode(inputs.readings)
                         if inputs.readings is not None else None)
        self.counts: dict | None = None

    def check(self, label: str, out: Path) -> list[str]:
        """Errors in the output of step `label` written under `out`."""
        if label == "simulate":
            errors, counts = check_simulate(out, self.recorded)
        elif label == "encode":
            errors, counts = check_encode(out, self.expected)
        elif label == "report":
            return check_report(out)
        else:
            return check_decode(out, self.inputs)
        # Counts are deterministic: every repetition must reproduce them.
        if counts and self.counts is None:
            self.counts = counts
        elif counts and counts != self.counts:
            errors.append(f"counts {counts} differ from the first run's "
                          f"{self.counts}")
        return errors
