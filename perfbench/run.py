#!/usr/bin/env python3
"""Benchmark of the wbancomp command line: host time and memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload mixed_ward --seed 1 --seconds 40 --trace 0

--trace 0 runs the closed loop: one client starts one `python -m wbancomp.cli`
child at a time, waits for it, checks its output and starts the next, for
--seconds seconds. It reports end-to-end metrics; step times are reported
relative to a fixed reference job timed in the same round. --trace 1 runs the
in-process traced pass of traced.py and reports per-layer metrics instead.
The last line of standard output is the JSON result; the lines before it
print the same numbers for people. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from harness import (CHILD_TIMEOUT_S, ROOT, SRC, WORK, Tally, child_env,
                     run_child, run_round)

# Setup: import the CLI and parse the scenario in a fresh interpreter, timed
# inside the child so interpreter start-up is left out.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
import wbancomp.cli
from wbancomp import config
if len(sys.argv) > 1:
    config.parse_scenario(sys.argv[1])
print(time.perf_counter() - start)
"""

# The reference job: fixed stdlib-only work of the same kind as the program's
# (integer arithmetic, string formatting and parsing, list building). The
# shared machine's speed swings by up to 1.5x from one round to the next and
# moves every time alike, so each step time is divided by this job's time in
# the same round.
REFERENCE_SNIPPET = """\
import time
start = time.perf_counter()
rows = [f"{i},{i * 7919 % 2048},{(i * 7919 % 2048).bit_length()}"
        for i in range(80_000)]
total = sum(int(row.split(",")[1]) for row in "\\n".join(rows).splitlines())
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {"setup_s": "s", "produce_rel": "ref", "readback_rel": "ref",
                    "peak_rss_mib": "MiB", "ok_pct": "%"}


def time_snippet(snippet: str, *argv: str) -> float:
    """Seconds a snippet reports for its own work in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", snippet, *argv],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def upper_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 100:
        return "no upper percentile under 100 samples"
    pct = int(100 * (1 - 10 / len(values)))
    return f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4f} s"


def run_record(args) -> dict:
    """Conditions of this run: code identity, interpreter, machine load."""
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def closed_loop(args, inputs, out: Path, record: dict) -> tuple[dict, Tally]:
    tally = Tally()
    checker = workloads.Checker(inputs)
    setup, reference = [], []
    labels = [label for label, _ in workloads.steps(inputs, out)]
    walls = {label: [] for label in labels}
    relative = {label: [] for label in labels}
    rss = []
    scenario = [] if inputs.scenario is None else [str(inputs.scenario)]
    deadline = time.perf_counter() + args.seconds
    # One set-up and one reference sample per round, so they and the steps
    # see the same machine.
    while time.perf_counter() < deadline:
        setup.append(time_snippet(SETUP_SNIPPET, *scenario))
        reference.append(time_snippet(REFERENCE_SNIPPET))
        for label, wall, peak in run_round(inputs, checker, out, tally):
            walls[label].append(wall)
            relative[label].append(wall / reference[-1])
            rss.append(peak)
    produce, readback = labels
    if not walls[produce] or not walls[readback] or not rss:
        raise RuntimeError("no step completed: " + "; ".join(tally.reasons))
    metrics = {
        "setup_s": statistics.median(setup),
        "produce_rel": statistics.median(relative[produce]),
        "readback_rel": statistics.median(relative[readback]),
        "peak_rss_mib": max(rss),
        "ok_pct": 100.0 - tally.fail_pct,
    }
    record.update(samples={"setup_s": setup, "reference_s": reference,
                           **{f"{k}_s": v for k, v in walls.items()}},
                  counts=checker.counts, fail_pct=tally.fail_pct)
    print(f"{args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{len(walls[produce])} rounds in {args.seconds} s")
    print(f"  setup_s      {metrics['setup_s']:.4f} s    median of {len(setup)}")
    print(f"  reference    {statistics.median(reference):.4f} s    median of "
          f"{len(reference)}")
    for key, label in (("produce_rel", produce), ("readback_rel", readback)):
        print(f"  {key:<12} {metrics[key]:.4f} ref  {label}_s "
              f"{statistics.median(walls[label]):.4f} s, median of "
              f"{len(walls[label])}; {upper_percentile(walls[label])}")
    print(f"  peak_rss_mib {metrics['peak_rss_mib']:.2f} MiB")
    print(f"  ok_pct       {metrics['ok_pct']:.2f} %    fail_pct "
          f"{tally.fail_pct:.2f} ({tally.failed} of {tally.attempted} ops)")
    print(f"  counts       {json.dumps(checker.counts)}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, tally


def record_expected() -> None:
    """Write recorded.json: metrics.json of the sim workloads at the recorded seeds."""
    doc = {}
    for workload in workloads.SIM_WORKLOADS:
        doc[workload] = {}
        for seed in workloads.RECORDED_SEEDS:
            base = WORK / f"record-{workload}-{seed}"
            shutil.rmtree(base, ignore_errors=True)
            inputs = workloads.generate(workload, seed, base / "inputs")
            label, argv = workloads.steps(inputs, base / "out")[0]
            code, _, _ = run_child(argv, base / f"{label}.log")
            if code != 0:
                sys.exit(f"simulate failed for {workload} seed {seed}")
            metrics_path = base / "out" / "run" / "metrics.json"
            doc[workload][str(seed)] = json.loads(metrics_path.read_text())
            shutil.rmtree(base)
    workloads.RECORDED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.RECORDED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite recorded.json from the current program")
    args = parser.parse_args(argv)
    if not args.record_expected and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wbancomp" / "cli.py").is_file():
        print(f"error: no wbancomp sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record_expected:
        record_expected()
        return 0
    base = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    inputs = workloads.generate(args.workload, args.seed, base / "inputs")
    out = base / "out"
    record = run_record(args)
    # Fill the bytecode cache before anything is timed: installed users have it.
    subprocess.run([sys.executable, "-c", "import wbancomp.cli"], env=child_env(),
                   cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
    if args.trace:
        import traced
        metrics, tally = traced.run(args, inputs, out, record)
    else:
        metrics, tally = closed_loop(args, inputs, out, record)
    record["loadavg_end"] = loadavg()
    record["failures"] = tally.reasons
    print(f"  run record   python {record['python']}, nproc {record['nproc']}, "
          f"loadavg {record['loadavg_start']} -> {record['loadavg_end']}")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    (WORK / f"record-{base.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(base)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
