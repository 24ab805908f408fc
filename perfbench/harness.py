"""Running `wbancomp` children for the benchmark: paths, timing, tallies."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(args: list[str], log: Path) -> tuple[int, float, float]:
    """Run `python -m wbancomp.cli args`; return (exit code, wall s, RSS MiB)."""
    argv = [sys.executable, "-m", "wbancomp.cli", *args]
    with log.open("w") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{op}: {'; '.join(errors)}")

    @property
    def fail_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 0.0


def run_round(inputs, checker, out: Path, tally: Tally) -> list[tuple]:
    """One closed-loop round: each step as a child, each output checked.

    Returns (label, wall s, RSS MiB) per step that ran.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    samples = []
    for label, args in workloads.steps(inputs, out):
        code, wall, rss = run_child(args, out / f"{label}.log")
        if code != 0:
            tail = (out / f"{label}.log").read_text()[-300:].strip()
            tally.record(label, [f"exit code {code}: {tail}"])
            continue
        samples.append((label, wall, rss))
        tally.record(label, checker.check(label, out))
    return samples
