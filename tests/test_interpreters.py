"""The pinned outputs hold under every Python 3.10+ interpreter on PATH.

pyproject.toml allows Python 3.10 and later, but the other tests run under
one interpreter. Each python3.N that shutil.which finds and that starts
runs simulate, on a shipped scenario and on tests/data's long sleep-heavy
one, then encode and decode, in a subprocess, and must write the bytes
test_cli pins. Its report of the simulated run, as JSON and as CSV, must be
the running interpreter's bytes, since how NamedTuple records handle their
annotations differs between versions. So must its decode of traces whose
rows miss the codeword lookup, with its error text for a malformed row. encode of a CSV that its csv.reader
refuses on one version and reads on another (a NUL in a column not read),
or refuses on all (a line past the field size limit), must exit as that
interpreter's csv.reader implies: 2 if it raises, else 0. A pyenv shim
that does not start on its own is retried once with PYENV_VERSION set to
the newest 3.N.x installed under PYENV_ROOT. The test ids name the
interpreters; one that is absent, does not start, or is the running one
skips with that reason.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, REPO_ROOT, SCENARIO_DIR
from test_cli import (PINNED_CODEC_OUTPUTS, PINNED_OUTPUTS,
                      PINNED_TEST_OUTPUTS, pinned_readings, write_codes,
                      write_packet_trace)

SCENARIO = "temperature_sleep"
# Prints, for each CSV file named, whether this interpreter's csv.reader
# reads it or raises.
CSV_READS = """\
import csv, sys
for name in sys.argv[1:]:
    with open(name, newline="", encoding="utf-8-sig") as handle:
        try:
            list(csv.reader(handle))
            print("reads")
        except csv.Error:
            print("raises")
"""
# Prints, for each packet trace named, decode's exit code, stdout and
# stderr, as one JSON line.
DECODES = """\
import contextlib, io, json, sys
from wbancomp.cli import main
for name in sys.argv[1:]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["decode", name])
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""
# Its ledgers add each suppressed stretch's charges in bulk: any drift in
# float addition between interpreters would move its hashes.
LONG_SCENARIO = "long_sleep"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_decodes(python: str, paths: list[str], env: dict) -> list:
    """DECODES' [exit code, stdout, stderr] of each trace, under python."""
    done = subprocess.run([python, "-c", DECODES, *paths],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


@pytest.fixture(scope="module")
def missed_traces(tmp_path_factory) -> tuple[list[str], list]:
    """Two traces whose rows miss decode's codeword lookup and so go
    through decode_bits, and run_decodes' outcome of them under the running
    interpreter: rows of several codewords, group 11's included, then the
    same with an added row whose '1110' prefix is malformed."""
    root = tmp_path_factory.mktemp("misses")
    misses, malformed = root / "misses.trace", root / "malformed.trace"
    write_packet_trace(misses, 12, [(seq, 2047, seq - 2047, 0, 5 - seq)
                                    for seq in range(10)])
    malformed.write_text(misses.read_text() + "11,1,4,e0\n")
    paths = [str(misses), str(malformed)]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    outcome = run_decodes(sys.executable, paths, env)
    assert [code for code, *_ in outcome] == [0, 2]
    return paths, outcome


def newest_pyenv_version(minor: int) -> str | None:
    """The newest 3.minor.x directory under $PYENV_ROOT/versions, if any."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    names = [path.name for path in (root / "versions").glob(f"3.{minor}.*")
             if re.fullmatch(rf"3\.{minor}\.\d+", path.name)]
    return max(names, key=lambda name: int(name.rsplit(".", 1)[1]),
               default=None)


def starts(exe: str, env: dict) -> bool:
    return subprocess.run([exe, "-c", "pass"], capture_output=True,
                          env=env).returncode == 0


@pytest.mark.parametrize("minor", range(10, 14),
                         ids=lambda minor: f"python3.{minor}")
def test_interpreter_writes_the_pinned_outputs(tmp_path, missed_traces,
                                               minor):
    name = f"python3.{minor}"
    if sys.version_info[:2] == (3, minor):
        pytest.skip(f"{name} is the running interpreter")
    exe = shutil.which(name)
    if exe is None:
        pytest.skip(f"{name} is not on PATH")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    if not starts(exe, env):
        version = newest_pyenv_version(minor)
        if version is None or not starts(exe, {**env, "PYENV_VERSION": version}):
            pytest.skip(f"{exe} does not start")
        env["PYENV_VERSION"] = version

    def cli(*argv, python=exe) -> bytes:
        done = subprocess.run([python, "-m", "wbancomp.cli", *map(str, argv)],
                              capture_output=True, env=env)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    run = tmp_path / "run"
    cli("--out", run, "simulate", SCENARIO_DIR / f"{SCENARIO}.cfg")
    assert {path.name: sha256(path.read_bytes())
            for path in run.iterdir()} == PINNED_OUTPUTS[SCENARIO]
    for fmt in ("json", "csv"):
        assert cli("--format", fmt, "report", run) == cli(
            "--format", fmt, "report", run, python=sys.executable)
    long_run = tmp_path / "long_run"
    cli("--out", long_run, "simulate", DATA_DIR / f"{LONG_SCENARIO}.cfg")
    assert {path.name: sha256(path.read_bytes())
            for path in long_run.iterdir()} == PINNED_TEST_OUTPUTS[LONG_SCENARIO]

    src = tmp_path / "codes.csv"
    write_codes(src, pinned_readings())
    trace, recon = tmp_path / "packets.trace", tmp_path / "recon.csv"
    for flags, pinned in PINNED_CODEC_OUTPUTS.items():
        stdout = cli("--out", trace, "encode", src, "--threshold", "0",
                     "--adc-bits", "11", *flags)
        assert (sha256(trace.read_bytes()), sha256(stdout)) == pinned
        cli("--out", recon, "decode", trace)
        assert recon.read_bytes() == src.read_bytes()

    paths, outcome = missed_traces
    assert run_decodes(exe, paths, env) == outcome

    csvs = [tmp_path / "nul.csv", tmp_path / "wide.csv"]
    csvs[0].write_text("5,\0\n6,x\n")
    csvs[1].write_text("5\n" + "9" * 200_000 + "\n")
    reads = subprocess.run([exe, "-c", CSV_READS, *map(str, csvs)],
                           capture_output=True, text=True, env=env)
    assert reads.returncode == 0, reads.stderr
    for path, read in zip(csvs, reads.stdout.split()):
        done = subprocess.run([exe, "-m", "wbancomp.cli", "--out",
                               str(tmp_path / "csv.trace"), "encode",
                               str(path)], capture_output=True, env=env)
        assert done.returncode == (0 if read == "reads" else 2), \
            (path.name, done.stderr.decode())
