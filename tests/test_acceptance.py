"""Acceptance suite: one test per shipped claim, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import DATA_DIR, SCENARIO_DIR, codeword_literal, run_pipeline
from wbancomp import metrics
from wbancomp.cli import EXIT_OK, main
from wbancomp.codec import codeword_bytes, decode_bits, group_of
from wbancomp.config import parse_scenario
from wbancomp.control import DeviceState
from wbancomp.netmodel import SleepPolicy, lifetime, simulate
from wbancomp.signals import FileSource, TraceSpec, synth, trace_codes


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


@pytest.fixture(scope="module")
def four_device_run():
    scenario = parse_scenario(SCENARIO_DIR / "four_device.cfg")
    return scenario, simulate(scenario)


@pytest.fixture(scope="module")
def sleep_run():
    scenario = parse_scenario(SCENARIO_DIR / "temperature_sleep.cfg")
    return scenario, simulate(scenario)


def test_criterion_1_golden_codeword():
    with criterion(1, "golden codeword 38 <-> 110100110"):
        assert codeword_literal(38) == "110100110"
        assert decode_bits(0b110100110, 9) == [38]


def test_criterion_2_exhaustive_round_trip():
    with criterion(2, "exhaustive round trip and length table"):
        table = [3, 4, 5, 6, 7, 8, 9, 12, 14, 16]
        start = time.perf_counter()
        for e in range(-2047, 2048):
            bit_count, payload = codeword_bytes(e)
            if abs(e) <= 511:
                assert bit_count == table[group_of(e)]
            value = int.from_bytes(payload, "big") >> (-bit_count % 8)
            assert decode_bits(value, bit_count) == [e]
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_prefix_free_stream():
    with criterion(3, "100k-residual bitstream decodes exactly"):
        rng = random.Random(0xC0DEC)
        residuals = [rng.randint(-2047, 2047) for _ in range(100_000)]
        start = time.perf_counter()
        stream = "".join(map(codeword_literal, residuals))
        decoded = decode_bits(int(stream, 2), len(stream))
        elapsed = time.perf_counter() - start
        assert decoded == residuals
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_lossy_bound():
    with criterion(4, "lossy reconstruction error bounded by threshold"):
        for threshold in (1, 2, 5):
            for trace_index in range(100):
                rng = random.Random(1000 * threshold + trace_index)
                value = rng.randrange(1024)
                codes = []
                for _ in range(1000):
                    value = min(1023, max(0, value + rng.randint(-12, 12)))
                    codes.append(value)
                reconstructed, _ = run_pipeline(codes, threshold=threshold)
                worst = max(abs(a - b) for a, b in zip(codes, reconstructed))
                assert worst <= threshold, (threshold, trace_index, worst)


def test_criterion_5_lossless_identity(tmp_path):
    with criterion(5, "lossless pipeline reproduces input CSV bit-exactly"):
        # ECG trace fixture, quantized to codes
        spec = TraceSpec(source=FileSource(str(DATA_DIR / "ecg_trace.csv"),
                                           value_column=1),
                         sample_period_ms=80, adc_bits=10,
                         adc_range=(-2.5, 2.5))
        fixture_codes, _ = trace_codes(spec)
        rng = random.Random(55)
        streams = {
            "ecg_fixture": fixture_codes,
            "random": [rng.randrange(1024) for _ in range(500)],
            "constant": [713] * 200,
        }
        for name, codes in streams.items():
            src = tmp_path / f"{name}.csv"
            src.write_text("".join(f"{c}\n" for c in codes))
            trace = tmp_path / f"{name}.trace"
            recon = tmp_path / f"{name}_recon.csv"
            assert main(["--out", str(trace), "encode", str(src),
                         "--threshold", "0"]) == EXIT_OK
            assert main(["--out", str(recon), "decode",
                         str(trace)]) == EXIT_OK
            assert recon.read_bytes() == src.read_bytes(), name
            # in-process pipeline agrees as well
            reconstructed, _ = run_pipeline(codes, threshold=0)
            assert reconstructed == codes, name


def test_criterion_6_pcr_formula_reproduction():
    with criterion(6, "compression-ratio formula reproduces reported table"):
        expected = [
            (120, 1, 99.16),     # temperature, lossy
            (8863, 5589, 36.94),  # database ECG, lossy
            (7586, 4879, 35.68),  # ECG, both modes
            (6483, 5011, 22.70),  # PPG, lossy
            (6483, 6016, 7.20),   # PPG, lossless
        ]
        for orig, comp, pct in expected:
            assert metrics.compression_ratio(orig, comp) == pytest.approx(
                pct, abs=0.01)
        # The source table prints 97.50 for 2-of-120, but the formula gives
        # 98.33; the formula is normative here.
        assert metrics.compression_ratio(120, 2) == pytest.approx(98.33,
                                                                  abs=0.01)


def test_criterion_7_lifetime_reproduction(sleep_run):
    with criterion(7, "lifetime table and sleep-mode gain"):
        table = [
            (38.28, 10.45), (36.81, 10.87), (36.65, 10.91),
            (73.29, 5.46), (25.81, 15.50), (24.92, 16.05),
        ]
        for current, hours in table:
            assert lifetime(400.0, current) == pytest.approx(hours, abs=0.01)

        _, runlog = sleep_run
        devices, _ = metrics.compute(runlog)
        by_mode = {m.mode: m for m in devices}
        base = by_mode["CGWC"].lifetime_h
        gain_ll = (by_mode["CGLL"].lifetime_h / base - 1.0) * 100.0
        gain_ls = (by_mode["CGLS"].lifetime_h / base - 1.0) * 100.0
        assert gain_ll >= 48.0, f"lossless sleep gain {gain_ll:.2f}%"
        assert gain_ls >= 48.0, f"lossy sleep gain {gain_ls:.2f}%"
        assert abs(gain_ll - 53.73) <= 6.0, f"lossless gain {gain_ll:.2f}%"
        assert abs(gain_ls - 48.37) <= 6.0, f"lossy gain {gain_ls:.2f}%"


def test_criterion_8_delay_budget(four_device_run):
    with criterion(8, "per-device delay budget and AD recomputation"):
        _, runlog = four_device_run
        devices, run = metrics.compute(runlog)
        assert len(devices) == 4
        for m in devices:
            assert m.ad_ms <= 55.0, (m.device_id, m.ad_ms)
        # end-to-end latency of every transmission stays under the
        # 125 ms real-time budget
        for ev in runlog.events:
            if ev.transmitted:
                assert ev.arrival_ms - ev.time_ms <= 125.0
        # independent recomputation straight from the event rows
        sent = [ev for ev in runlog.events if ev.transmitted]
        recomputed = sum(ev.cd_ms + ev.dd_ms + ev.dtr_ms
                         for ev in sent) / len(sent)
        assert abs(metrics.average_delay(runlog) - recomputed) <= 0.1
        assert abs(run.ad_ms - recomputed) <= 0.1
        per_device = {m.device_id: m for m in devices}
        for device_id, m in per_device.items():
            mine = [ev for ev in sent if ev.device_id == device_id]
            check = sum(ev.cd_ms + ev.dd_ms + ev.dtr_ms
                        for ev in mine) / len(mine)
            assert abs(m.ad_ms - check) <= 0.1


def test_criterion_9_synthetic_regimes(four_device_run):
    with criterion(9, "temperature packet regime and ECG group coverage"):
        scenario, runlog = four_device_run
        temperature = next(dev for dev in runlog.devices
                           if dev.device_id == 1)
        assert temperature.samples == 120
        assert temperature.transmitted <= 3

        ecg_cfg = next(d for d in scenario.devices if d.name == "ecg")
        codes = synth("ecg", ecg_cfg.trace.source.params,
                      ecg_cfg.trace.source.seed, 7500)
        state = DeviceState(device_id=9, threshold=0)
        groups = set()
        for code in codes:
            residual = state.process_sample(code)
            if residual is not None:
                groups.add(group_of(residual))
        assert groups >= set(range(1, 8)), sorted(groups)


def test_criterion_10_model_property_suite(four_device_run, sleep_run):
    with criterion(10, "energy conservation, sleep dominance, determinism"):
        scenario, runlog = four_device_run
        # energy conservation: state times partition the run, charge = I x t
        for dev_run, cfg in zip(runlog.devices, scenario.devices):
            assert math.isclose(sum(dev_run.state_time_ms.values()),
                                runlog.duration_ms, rel_tol=1e-12)
            model = cfg.energy or scenario.energy
            recomputed = sum(model.current_ma(state) * ms / 3_600_000.0
                             for state, ms in dev_run.state_time_ms.items())
            assert math.isclose(dev_run.total_mah(), recomputed,
                                rel_tol=1e-12)
        # sleep dominance: disabling sleep in the sleep scenario never
        # lowers consumption
        sleep_scenario, sleep_log = sleep_run
        awake_scenario = type(sleep_scenario)(
            duration_s=sleep_scenario.duration_s,
            devices=sleep_scenario.devices,
            channel=sleep_scenario.channel,
            energy=sleep_scenario.energy,
            sleep=SleepPolicy(enabled=False),
            seed=sleep_scenario.seed,
        )
        awake_log = simulate(awake_scenario)
        for slept, awake in zip(sleep_log.devices, awake_log.devices):
            assert slept.total_mah() <= awake.total_mah() + 1e-12
        # determinism: a fresh run of the same scenario is identical
        again = simulate(scenario)
        assert again.events == runlog.events
        assert again.devices == runlog.devices
