"""The benchmark's traced replay still runs against the package.

perfbench/traced.py calls names that no command calls: DeviceState built
positionally, PacketTrace by keyword, Packet.from_bits, dataclasses.replace
on a TraceSpec, and the replayed sink, codec and ledger. A change that
breaks one of them shows here, in one small pass of each kind, and not only
in a benchmark run. The perfbench files are imported as they are.
"""

import importlib
import random

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR


@pytest.fixture
def traced(monkeypatch):
    # traced imports its neighbours harness and workloads by bare name; the
    # whole of sys.path, with what _import_program adds, is restored after.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    return importlib.import_module("traced")


def one_pass(traced, pass_name, inputs, out):
    """The tally of one traced pass over inputs, its outputs under out."""
    harness, workloads = traced.harness, traced.workloads
    tally = harness.Tally()
    layers = getattr(traced, pass_name)(
        traced._import_program(), traced.Tracer(inputs.workload), inputs, out,
        workloads.Checker(inputs), tally)
    assert layers["codec.residuals"] > 0
    return tally


def test_codec_pass_fails_no_check(traced, tmp_path):
    # Deltas from 0 up to the whole 11-bit range, the codec's widest group.
    rng = random.Random(1)
    top = (1 << traced.workloads.CODEC_ADC_BITS) - 1
    readings = [rng.choice((0, top, rng.randint(0, top))) for _ in range(200)]
    path = tmp_path / "readings.csv"
    path.write_text("".join(f"{value}\n" for value in readings))
    inputs = traced.workloads.Inputs("codec_roundtrip", 1, tmp_path,
                                     readings=path)
    tally = one_pass(traced, "codec_pass", inputs, tmp_path / "out")
    assert (tally.attempted, tally.failed) == (2, 0), tally.reasons


def test_sim_pass_fails_no_check(traced, tmp_path):
    # temperature_sleep has no recorded metrics: the checks are the
    # workload's own, plus the replayed ledger and sink.
    inputs = traced.workloads.Inputs(
        "temperature_sleep", 1, tmp_path,
        scenario=SCENARIO_DIR / "temperature_sleep.cfg")
    tally = one_pass(traced, "sim_pass", inputs, tmp_path / "out")
    assert (tally.attempted, tally.failed) == (3, 0), tally.reasons
