import contextlib
import csv
import io
import math
import tempfile
from functools import reduce
from itertools import repeat
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, SCENARIO_DIR
from wbancomp import cli, metrics
from wbancomp.codec import codeword_bytes
from wbancomp.config import (MODES, ChannelModel, DeviceConfig,
                             RadioEnergyModel, Scenario, SleepPolicy,
                             parse_scenario)
from wbancomp.netmodel import (MS_PER_HOUR, EnergyLedger, _SharedWork,
                               lifetime, simulate)
from wbancomp.rundir import RunLog, SampleEvent
from wbancomp.signals import (SYNTH_KINDS, FileSource, SyntheticSource,
                              TraceSpec)
from wbancomp.sink import Packet, payload_residual
from wbancomp.tracefile import read_rows, read_trace


def synth_device(name, device_id, kind="temperature", mode="CGLS",
                 threshold=1, period_ms=500, seed=0, params=None, **kwargs):
    trace = TraceSpec(
        source=SyntheticSource(kind=kind, seed=seed, params=params or {}),
        sample_period_ms=period_ms,
    )
    return DeviceConfig(name=name, device_id=device_id, mode=mode,
                        trace=trace, threshold=threshold, **kwargs)


def scenario(devices, duration_s=60.0, **kwargs):
    return Scenario(duration_s=duration_s, devices=tuple(devices), **kwargs)


class TestChannelModel:
    def test_default_is_constant_latency(self):
        channel = ChannelModel()
        assert channel.transit_ms(9) == 49.0
        assert channel.transit_ms(2000) == 49.0

    def test_per_bit_term(self):
        channel = ChannelModel(base_latency_ms=10.0, per_bit_delay_ms=0.5)
        assert channel.transit_ms(8) == 14.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(base_latency_ms=-1)


class TestEnergyModel:
    def test_state_ordering_enforced(self):
        with pytest.raises(ValueError):
            RadioEnergyModel(sleep_ma=9.0, idle_ma=8.0)
        with pytest.raises(ValueError):
            RadioEnergyModel(idle_ma=24.0, tx_ma=24.0)

    def test_unknown_state(self):
        model = RadioEnergyModel()
        with pytest.raises(ValueError):
            model.current_ma("warp")


class TestEnergyLedger:
    def test_charge_arithmetic(self):
        ledger = EnergyLedger(RadioEnergyModel(tx_ma=24.0))
        ledger.charge("tx", 30 * 60 * 1000)  # half an hour
        assert math.isclose(ledger.charge_mah["tx"], 12.0)

    def test_zero_duration_is_noop(self):
        ledger = EnergyLedger(RadioEnergyModel())
        ledger.charge("idle", 0.0)
        assert sum(ledger.charge_mah.values()) == 0.0

    def test_average_current_matches_constant_draw(self):
        model = RadioEnergyModel(tx_ma=39.0, idle_ma=38.28, sleep_ma=1.0)
        ledger = EnergyLedger(model)
        for hours in (0.25, 1.0, 3.5):
            ledger = EnergyLedger(model)
            ledger.charge("idle", hours * 3_600_000)
            total_mah = sum(ledger.charge_mah.values())
            assert math.isclose(total_mah, 38.28 * hours)
            elapsed_h = sum(ledger.time_ms.values()) / MS_PER_HOUR
            assert math.isclose(total_mah / elapsed_h, 38.28)

    def test_unknown_state_rejected(self):
        ledger = EnergyLedger(RadioEnergyModel())
        with pytest.raises(ValueError, match="unknown energy state 'warp'"):
            ledger.charge("warp", 10.0)
        assert sum(ledger.time_ms.values()) == 0.0

    def test_negative_duration_rejected(self):
        ledger = EnergyLedger(RadioEnergyModel())
        with pytest.raises(ValueError):
            ledger.charge("idle", -1.0)


class TestLifetime:
    @pytest.mark.parametrize("current,hours", [
        (38.28, 10.45), (36.81, 10.87), (36.65, 10.91),
        (73.29, 5.46), (25.81, 15.50), (24.92, 16.05),
    ])
    def test_measured_current_table(self, current, hours):
        assert lifetime(400.0, current) == pytest.approx(hours, abs=0.01)

    def test_non_positive_current_rejected(self):
        with pytest.raises(ValueError):
            lifetime(400.0, 0.0)
        with pytest.raises(ValueError):
            lifetime(400.0, -3.0)

    def test_non_positive_battery_rejected(self):
        # A run log may carry any battery; zero would read as 0 h.
        for battery in (0.0, -400.0):
            with pytest.raises(ValueError, match="battery_mah must be positive"):
                lifetime(battery, 10.0)


class TestScenarioValidation:
    def test_duplicate_ids_rejected(self):
        devices = [synth_device("a", 1), synth_device("b", 1)]
        with pytest.raises(ValueError, match="not unique"):
            scenario(devices)

    def test_mode_threshold_constraints(self):
        with pytest.raises(ValueError, match="CGLL"):
            scenario([synth_device("a", 1, mode="CGLL", threshold=1)])
        with pytest.raises(ValueError, match="CGLS"):
            scenario([synth_device("a", 1, mode="CGLS", threshold=0)])

    def test_coded_modes_cap_adc_bits(self):
        trace = TraceSpec(source=SyntheticSource("temperature"),
                          sample_period_ms=500, adc_bits=12)
        dev = DeviceConfig(name="a", device_id=1, mode="CGLL", trace=trace)
        with pytest.raises(ValueError, match="11-bit"):
            scenario([dev])

    def test_period_must_fit_processing(self):
        dev = synth_device("a", 1, period_ms=50, cd_ms=10.0)
        with pytest.raises(ValueError, match="busy"):
            scenario([dev], duration_s=1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            synth_device("a", 1, mode="RAW")

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            scenario([])


class TestSimulate:
    def test_constant_trace_delivers_one_packet(self):
        dev = synth_device("t", 1, params={"step_probability": 0.0},
                           period_ms=500)
        log = simulate(scenario([dev], duration_s=60.0))
        run = log.devices[0]
        assert run.samples == 120
        assert run.transmitted == 1
        assert len(log.packets) == 1

    def test_cgwc_transmits_every_sample_raw(self):
        dev = synth_device("t", 1, mode="CGWC", threshold=0, period_ms=500)
        log = simulate(scenario([dev], duration_s=30.0))
        run = log.devices[0]
        assert run.transmitted == run.samples == 60
        assert all(ev.codeword_bits == 10 for ev in log.events)
        assert all(ev.cd_ms == 0.0 and ev.dd_ms == 0.0 for ev in log.events)
        assert all(ev.reconstructed == ev.value for ev in log.events)

    def test_determinism(self):
        devs = [synth_device("t", 1, kind="ppg", period_ms=100, seed=5),
                synth_device("e", 2, kind="ecg", period_ms=80, seed=6,
                             cd_ms=3.0)]
        sc = scenario(devs, duration_s=20.0)
        a, b = simulate(sc), simulate(sc)
        assert a.events == b.events
        assert a.devices == b.devices
        assert a.packets == b.packets

    def test_state_times_partition_duration(self):
        devs = [synth_device("t", 1, kind="temperature", period_ms=500,
                             seed=2),
                synth_device("e", 2, kind="ecg", period_ms=100, seed=3,
                             cd_ms=3.0)]
        log = simulate(scenario(devs, duration_s=60.0,
                                sleep=SleepPolicy(enabled=True)))
        for run in log.devices:
            assert math.isclose(sum(run.state_time_ms.values()), 60_000.0,
                                rel_tol=1e-12)

    def test_energy_conservation(self):
        dev = synth_device("t", 1, kind="ppg", period_ms=100, seed=8)
        log = simulate(scenario([dev], duration_s=60.0))
        run = log.devices[0]
        model = RadioEnergyModel()
        recomputed = sum(model.current_ma(state) * ms / 3_600_000.0
                         for state, ms in run.state_time_ms.items())
        assert math.isclose(run.total_mah(), recomputed, rel_tol=1e-12)

    def test_sleep_never_costs_energy(self):
        dev = synth_device("t", 1, seed=4, period_ms=500)
        base = scenario([dev], duration_s=60.0)
        awake = simulate(base)
        asleep = simulate(scenario([dev], duration_s=60.0,
                                   sleep=SleepPolicy(enabled=True)))
        assert asleep.devices[0].total_mah() <= awake.devices[0].total_mah()
        assert asleep.devices[0].state_time_ms["sleep"] > 0.0

    def test_radio_sleeps_after_two_suppressions(self):
        dev = synth_device("t", 1, params={"step_probability": 0.0},
                           period_ms=500)
        log = simulate(scenario([dev], duration_s=60.0,
                                sleep=SleepPolicy(enabled=True)))
        run = log.devices[0]
        # sample 0 transmits and samples 1-2 keep the radio awake; the 118
        # periods after samples 2..119 sleep, less the 1 ms cpu slice each
        assert math.isclose(run.state_time_ms["sleep"], 118 * 499.0)

    def test_wake_latency_charged_on_wakeup(self):
        # one step late in the stream forces a wake out of sleep
        dev = synth_device("t", 1, params={"step_probability": 0.06}, seed=11,
                           period_ms=500,
                           energy=RadioEnergyModel(wake_latency_ms=5.0))
        log = simulate(scenario([dev], duration_s=60.0,
                                sleep=SleepPolicy(enabled=True)))
        run = log.devices[0]
        assert run.transmitted >= 2
        assert sum(run.state_time_ms.values()) == pytest.approx(60_000.0)

    def test_compression_modes_rank_energy_under_defaults(self):
        def run(mode, threshold):
            dev = synth_device("t", 1, mode=mode, threshold=threshold,
                               seed=21, period_ms=500)
            return simulate(scenario([dev], duration_s=60.0)).devices[0]

        none = run("CGWC", 0)
        lossless = run("CGLL", 0)
        lossy = run("CGLS", 1)
        assert lossy.total_mah() <= lossless.total_mah() <= none.total_mah()

    def test_lossy_bound_holds_in_runlog(self):
        for threshold in (1, 2, 5):
            dev = synth_device("p", 1, kind="ppg", mode="CGLS",
                               threshold=threshold, period_ms=100, seed=13)
            log = simulate(scenario([dev], duration_s=30.0))
            assert max(abs(ev.value - ev.reconstructed)
                       for ev in log.events) <= threshold

    def test_arrival_times_follow_the_delay_chain(self):
        dev = synth_device("e", 2, kind="ecg", period_ms=100, seed=1,
                           cd_ms=3.0)
        log = simulate(scenario([dev], duration_s=10.0))
        for ev in log.events:
            if ev.transmitted:
                assert ev.arrival_ms == pytest.approx(
                    ev.time_ms + ev.cd_ms + ev.dtr_ms + ev.dd_ms)
                assert ev.dtr_ms == 49.0
            else:
                assert ev.arrival_ms is None

    def test_runlog_json_round_trip_is_stable(self):
        dev = synth_device("t", 1, seed=2, period_ms=500)
        sc = scenario([dev], duration_s=10.0)
        a, b = simulate(sc), simulate(sc)
        assert a.devices == b.devices
        assert a.events == b.events

    def test_rows_are_grouped_by_device_in_scenario_order(self):
        # Each device runs to completion in turn: its rows are contiguous
        # and in seq order, devices follow the scenario rather than their
        # ids or sample times, and packets follow the rows.
        devs = [synth_device("c", 3, period_ms=300),
                synth_device("a", 1, kind="ecg", period_ms=200),
                synth_device("b", 2, mode="CGWC", threshold=0, period_ms=200)]
        log = simulate(scenario(devs, duration_s=6.0))
        assert [(ev.device_id, ev.seq) for ev in log.events] == [
            (dev.device_id, seq) for dev, run in zip(devs, log.devices)
            for seq in range(run.samples)]
        assert [(device_id, seq) for device_id, seq, _ in log.packets] == [
            (ev.device_id, ev.seq) for ev in log.events if ev.transmitted]


@st.composite
def small_scenarios(draw):
    """Valid scenarios of up to 4 devices and 30 s, every mode and source.

    Every period divides 1000 ms and the slowest busy time (3 ms of cpu,
    5 ms of wake, 49 ms of latency and 0.1 ms for each of 20 bits) fits the
    shortest period, so any draw is valid.
    """
    ids = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4,
                        unique=True))
    devices = []
    for index, device_id in enumerate(ids):
        mode = draw(st.sampled_from(MODES))
        kind = draw(st.sampled_from(SYNTH_KINDS + ("file",)))
        adc_bits = draw(st.sampled_from(
            [8, 10, 11, 12] if mode == "CGWC" else [8, 10, 11]))
        params = {}
        if kind == "temperature":
            # A walk from either end of the range, or from its middle, that
            # may step every sample: synth clamps those leaving the range.
            params = {"start_code": draw(st.sampled_from(
                          [0, 1 << (adc_bits - 1), (1 << adc_bits) - 1])),
                      "step_probability": draw(st.sampled_from([0.01, 1.0]))}
        if kind == "file":  # 600 readings: enough for 30 s at 100 ms
            source = FileSource(str(DATA_DIR / "ecg_trace.csv"),
                                value_column=1)
        else:
            source = SyntheticSource(kind, seed=draw(st.integers(0, 9)),
                                     params=params)
        trace = TraceSpec(
            source=source,
            sample_period_ms=draw(st.sampled_from([100, 200, 250, 500, 1000])),
            adc_bits=adc_bits,
            adc_range=(-2.5, 2.5) if kind == "file" else None,
        )
        devices.append(DeviceConfig(
            name=f"d{index}", device_id=device_id, mode=mode, trace=trace,
            threshold=draw(st.integers(1, 5)) if mode == "CGLS" else 0,
            cd_ms=draw(st.sampled_from([0.0, -0.0, 1.0, 3.0])),
            dd_ms=draw(st.sampled_from([0.0, -0.0, 1.0])),
            suppress_zero=draw(st.booleans()),
        ))
    return Scenario(
        duration_s=float(draw(st.integers(1, 30))),
        devices=tuple(devices),
        channel=ChannelModel(
            base_latency_ms=draw(st.sampled_from([0.0, -0.0, 10.0, 49.0])),
            per_bit_delay_ms=draw(st.sampled_from([0.0, -0.0, 0.1]))),
        # tx, idle, sleep and cpu currents: some whose charges round in most
        # steps, temperature_sleep's calibration, and the defaults.
        energy=RadioEnergyModel(
            *draw(st.sampled_from([(37.3, 11.1, 0.7, 13.3),
                                   (38.8, 38.26, 24.7, 39.0),
                                   (24.0, 8.0, 0.2, 10.0)])),
            wake_latency_ms=draw(st.sampled_from([0.0, 5.0]))),
        sleep=SleepPolicy(enabled=draw(st.booleans()),
                          suppressions_before_sleep=draw(st.integers(1, 3))),
    )


def plain_fold(events):
    """Per device id: rows, transmitted, the cd, dd and ad sums, and the
    codeword bits of the transmitted rows."""
    sums = {}
    for ev in events:
        rows, sent, cd, dd, ad, bits = sums.get(
            ev.device_id, (0, 0, 0.0, 0.0, 0.0, 0))
        if ev.transmitted:
            sent += 1
            cd += ev.cd_ms
            dd += ev.dd_ms
            ad += ev.cd_ms + ev.dd_ms + ev.dtr_ms
            bits += ev.codeword_bits
        sums[ev.device_id] = (rows + 1, sent, cd, dd, ad, bits)
    return sums


def replayed_ledger(sc, cfg, rows):
    """The device's ledger rebuilt from its event rows through
    EnergyLedger.charge, in the device loop's order: cpu, wake as idle, tx,
    then the rest of the period as sleep or idle."""
    model = cfg.energy or sc.energy
    can_sleep = sc.sleep.enabled and cfg.mode != "CGWC"
    ledger = EnergyLedger(model)
    quiet, asleep = 0, False
    for ev in rows:
        wake_ms = model.wake_latency_ms if ev.transmitted and asleep else 0.0
        quiet = 0 if ev.transmitted else quiet + 1
        asleep = can_sleep and quiet >= sc.sleep.suppressions_before_sleep
        ledger.charge("cpu", ev.cd_ms)
        if wake_ms:
            ledger.charge("idle", wake_ms)
        if ev.dtr_ms:
            ledger.charge("tx", ev.dtr_ms)
        ledger.charge("sleep" if asleep else "idle",
                      cfg.trace.sample_period_ms - ev.cd_ms - wake_ms
                      - ev.dtr_ms)
    return ledger


def assert_ledgers_replay(sc, log):
    # The loop keeps EnergyLedger's sums in locals; replayed through the
    # class, the rows give the same floats, not merely close ones.
    events = log.events
    for cfg, run in zip(sc.devices, log.devices):
        ledger = replayed_ledger(
            sc, cfg, [ev for ev in events if ev.device_id == cfg.device_id])
        assert ledger.time_ms == run.state_time_ms
        assert ledger.charge_mah == run.state_charge_mah


def csv_writer_bytes(log):
    """The events file as csv.writer writes the log's SampleEvents."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(SampleEvent._fields)
    writer.writerows(log.events)
    return text.getvalue().encode()


def assert_trace_rebuilds_readings(sc, log, rundir):
    """A sink reading the saved packets.trace rebuilds every row's
    reconstructed reading, which simulate takes from device memory.

    The sink decodes codec payloads by decode_bits, not by the cells
    table simulate writes them from, and reads CGWC payloads as raw
    readings. Each sent row holds its device's value after its packet, and
    each suppressed row the last value sent.
    """
    modes = {cfg.device_id: cfg.mode for cfg in sc.devices}
    held = dict.fromkeys(modes, 0)
    arrived = {}  # (device_id, seq): the value after that packet
    _, blocks = read_rows(rundir / "packets.trace")
    for seq, device_id, cells in (row for _, *columns in blocks
                                  for row in zip(*columns)):
        device_id = int(device_id)
        bit_count, payload = cells.split(",")
        bit_count, payload = int(bit_count), bytes.fromhex(payload)
        if modes[device_id] == "CGWC":
            held[device_id] = int.from_bytes(payload, "big") >> (
                -bit_count % 8)
        else:
            held[device_id] += payload_residual(bit_count, payload)
        arrived[device_id, seq] = held[device_id]
    last = {}
    for ev in log.events:
        if ev.transmitted:
            last[ev.device_id] = arrived.pop((ev.device_id, ev.seq))
        assert ev.reconstructed == last[ev.device_id], ev
    assert arrived == {}


@pytest.fixture(scope="module", params=[
    SCENARIO_DIR / "four_device.cfg", SCENARIO_DIR / "lifetime_table.cfg",
    SCENARIO_DIR / "temperature_sleep.cfg", DATA_DIR / "long_sleep.cfg"],
    ids=lambda path: path.stem)
def shipped_run(request):
    sc = parse_scenario(request.param)
    return sc, simulate(sc)


def test_shipped_ledgers_replay_through_energy_ledger(shipped_run):
    assert_ledgers_replay(*shipped_run)


def test_shipped_events_file_is_what_csv_writer_writes(shipped_run, tmp_path):
    _, log = shipped_run
    log.save(tmp_path)
    assert (tmp_path / "runlog_events.csv").read_bytes() == \
        csv_writer_bytes(log)


def test_shipped_packets_are_the_saved_trace_rows(shipped_run, tmp_path):
    # The benchmark's traced replay reads runlog.packets as (device_id,
    # seq, Packet) triples; each is a packets.trace row, and carries its
    # events row's codeword, or its raw reading under CGWC. A sink reading
    # the saved trace rebuilds the events' readings.
    sc, log = shipped_run
    log.save(tmp_path)
    assert_trace_rebuilds_readings(sc, log, tmp_path)
    saved = read_trace(tmp_path / "packets.trace").packets
    assert log.packets == [(packet.device_id, seq, packet)
                           for seq, packet in saved]
    modes = {cfg.device_id: cfg.mode for cfg in sc.devices}
    sent = [ev for ev in log.events if ev.transmitted]
    assert len(sent) == len(saved)
    for ev, (device_id, seq, packet) in zip(sent, log.packets):
        assert (device_id, seq) == (ev.device_id, ev.seq)
        if modes[device_id] == "CGWC":
            assert packet.bit_count == ev.codeword_bits
            assert int.from_bytes(packet.payload, "big") >> (
                -packet.bit_count % 8) == ev.value
        else:
            assert Packet(device_id, *codeword_bytes(ev.residual)) == packet


def simulate_checked(sc, rundir):
    """simulate's log, once its ledgers replay through EnergyLedger, every
    row holds its device's last sent reading, and its saved events file is
    what csv.writer writes of its events."""
    log = simulate(sc)
    assert_ledgers_replay(sc, log)
    held = {}
    for ev in log.events:
        if ev.transmitted:
            held[ev.device_id] = ev.value
        assert ev.reconstructed == held[ev.device_id]
    rundir.mkdir(exist_ok=True)
    log.save(rundir)
    assert (rundir / "runlog_events.csv").read_bytes() == csv_writer_bytes(log)
    return log


def stretch_lengths(rows):
    """The lengths of the runs of suppressed rows, in order."""
    lengths, quiet = [], 0
    for ev in rows:
        if ev.transmitted and quiet:
            lengths.append(quiet)
        quiet = 0 if ev.transmitted else quiet + 1
    return lengths + [quiet] if quiet else lengths


def file_device(path, codes, name="f", device_id=1, mode="CGLL",
                threshold=0, period_ms=500, **kwargs):
    """A device replaying exactly `codes` as 10-bit readings."""
    path.write_text("".join(f"{code + 0.5}\n" for code in codes))
    trace = TraceSpec(source=FileSource(str(path)), sample_period_ms=period_ms,
                      adc_range=(0.0, 1023.0))
    return DeviceConfig(name=name, device_id=device_id, mode=mode,
                        trace=trace, threshold=threshold, **kwargs)


class TestSuppressedStretches:
    """The device loop charges and writes each suppressed stretch whole."""

    SLEEPY = dict(sleep=SleepPolicy(enabled=True),
                  energy=RadioEnergyModel(37.3, 11.1, 0.7, 13.3,
                                          wake_latency_ms=5.0))

    def test_run_ending_inside_a_stretch(self, tmp_path):
        codes = [500, 500, 503] + [503] * 9
        dev = file_device(tmp_path / "codes.csv", codes)
        log = simulate_checked(scenario([dev], duration_s=6.0, **self.SLEEPY),
                               tmp_path / "run")
        assert [ev.transmitted for ev in log.events] == [1, 0, 1] + [0] * 9
        assert [ev.reconstructed for ev in log.events] == [500] * 2 + [503] * 10

    def test_radio_sleeping_after_one_suppression(self, tmp_path):
        dev = synth_device("t", 1, params={"step_probability": 0.05}, seed=3)
        sc = scenario([dev], duration_s=120.0, sleep=SleepPolicy(
            enabled=True, suppressions_before_sleep=1),
            energy=self.SLEEPY["energy"])
        log = simulate_checked(sc, tmp_path)
        run = log.devices[0]
        quiet = run.samples - run.transmitted
        assert quiet > 0 and len(stretch_lengths(log.events)) > 1
        assert run.state_time_ms["sleep"] == 499.0 * quiet

    def test_device_suppressing_every_sample_after_its_first(self, tmp_path):
        dev = synth_device("t", 1, params={"step_probability": 0.0})
        log = simulate_checked(scenario([dev], duration_s=300.0,
                                        **self.SLEEPY), tmp_path)
        assert stretch_lengths(log.events) == [599]
        assert {ev.reconstructed for ev in log.events} == {477}
        run = log.devices[0]
        assert run.transmitted == 1
        # One suppressed sample idles; the other 598 sleep.
        assert run.state_time_ms["sleep"] == 499.0 * 598

    def test_one_sample_stretches_beside_long_ones(self, tmp_path):
        codes = ([100, 100, 101] + [101] * 7 + [102, 103, 103, 104]
                 + [104] * 2 + [105] + [105] * 20 + [106, 106, 107, 107])
        lossless = file_device(tmp_path / "codes.csv", codes)
        # Lossy, the levels are two codes apart and the same stretches
        # hold readings one code off.
        lossy = file_device(tmp_path / "near.csv", [
            2 * code + (-1) ** seq * (seq > 0 and code == codes[seq - 1])
            for seq, code in enumerate(codes)],
            name="g", device_id=2, mode="CGLS", threshold=1)
        policies = [SleepPolicy()] + [
            SleepPolicy(enabled=True, suppressions_before_sleep=quiet)
            for quiet in (1, 2, 3, 20, 21)]
        for index, sleep in enumerate(policies):
            sc = scenario([lossless, lossy], duration_s=len(codes) / 2,
                          energy=self.SLEEPY["energy"], sleep=sleep)
            log = simulate_checked(sc, tmp_path / f"run{index}")
            for device_id in (1, 2):
                assert stretch_lengths(
                    [ev for ev in log.events if ev.device_id == device_id]
                ) == [1, 7, 1, 2, 20, 1, 1]

    def test_cgwc_device_beside_filter_devices(self, tmp_path):
        devs = [synth_device("raw", 4, mode="CGWC", threshold=0, seed=5,
                             params={"step_probability": 0.1}),
                synth_device("lossless", 2, mode="CGLL", threshold=0, seed=5,
                             params={"step_probability": 0.1}),
                synth_device("lossy", 9, mode="CGLS", threshold=1, seed=5,
                             params={"step_probability": 0.1})]
        log = simulate_checked(scenario(devs, duration_s=120.0,
                                        **self.SLEEPY), tmp_path)
        raw, lossless, lossy = log.devices
        assert raw.transmitted == raw.samples == 240
        assert raw.state_time_ms["sleep"] == 0.0
        assert lossy.transmitted < lossless.transmitted < raw.transmitted
        assert lossless.state_time_ms["sleep"] > 0.0

    def test_negative_zero_cd(self, tmp_path):
        dev = synth_device("t", 1, params={"step_probability": 0.05}, seed=8,
                           cd_ms=-0.0)
        log = simulate_checked(scenario([dev], duration_s=60.0,
                                        **self.SLEEPY), tmp_path)
        assert {repr(ev.cd_ms) for ev in log.events} == {"-0.0"}
        assert repr(log.devices[0].state_time_ms["cpu"]) == "0.0"


class TestSharedWork:
    """simulate works out each period's time cells, and each whole-run sum
    of a repeated ledger step, once for all the devices that share it."""

    @staticmethod
    def device(name, device_id, period_ms):
        return synth_device(name, device_id, period_ms=period_ms, seed=4,
                            params={"step_probability": 0.05})

    def test_each_period_renders_its_own_time_cells(self, tmp_path):
        periods = {1: 100, 2: 250, 3: 100}
        devs = [self.device(f"d{device_id}", device_id, period)
                for device_id, period in periods.items()]
        log = simulate_checked(scenario(devs, duration_s=30.0), tmp_path)
        assert {ev.transmitted for ev in log.events} == {0, 1}
        for row in log.rows:
            device_id, seq, time_ms = row.split(",")[:3]
            assert time_ms == repr(float(int(seq) * periods[int(device_id)]))

    def test_int_and_equal_float_periods_share_their_work(self):
        both = simulate(scenario([self.device("int", 1, 250),
                                  self.device("float", 2, 250.0)]))
        alone = simulate(scenario([self.device("float", 2, 250.0)]))

        def cells(log, device_id):
            return [row.split(",", 1)[1] for row in log.rows
                    if row.startswith(f"{device_id},")]

        assert cells(both, 1) == cells(both, 2) == cells(alone, 2)
        ledgers = [(repr(run.state_time_ms), repr(run.state_charge_mah))
                   for run in both.devices + alone.devices]
        assert ledgers == ledgers[:1] * 3


@given(st.lists(st.tuples(
    st.sampled_from([0.1, 1 / 3, 499.0, 2.7e-4, -0.0, 0.0, 3]),
    st.integers(0, 40)), max_size=30))
def test_repeated_sums_continue_the_left_to_right_sum(queries):
    # Queries of a few addends interleave, their counts rising, falling and
    # repeating; each answer is the plain sum, bit for bit.
    shared = _SharedWork()
    for d, n in queries:
        assert repr(shared.repeated_sum(d, n)) == repr(
            reduce(add, repeat(d, n), 0.0))


@settings(max_examples=100)
@given(small_scenarios())
def test_run_invariants(sc):
    log = simulate(sc)

    # Each device's loop folds the rows it appends.
    assert list(log.sums) == [dev.device_id for dev in sc.devices]
    assert {device_id: (sums.rows, sums.transmitted, sums.cd_ms, sums.dd_ms,
                        sums.ad_ms, sums.payload_bits)
            for device_id, sums in log.sums.items()} == plain_fold(log.events)

    for cfg, run in zip(sc.devices, log.devices):
        rows = [ev for ev in log.events if ev.device_id == cfg.device_id]
        sent = [ev for ev in rows if ev.transmitted]
        assert run.samples == len(rows)
        assert run.transmitted == len(sent)
        assert run.payload_bits == sum(ev.codeword_bits for ev in sent)
        assert math.isclose(sum(run.state_time_ms.values()), log.duration_ms)
        # The radio sleeps through the rest of each period that ends a run
        # of at least suppressions_before_sleep suppressed rows.
        sleep = sc.sleep
        quiet, sleep_ms = 0, 0.0
        for ev in rows:
            quiet = 0 if ev.transmitted else quiet + 1
            if sleep.enabled and quiet >= sleep.suppressions_before_sleep:
                sleep_ms += run.sample_period_ms - ev.cd_ms
        assert math.isclose(run.state_time_ms["sleep"], sleep_ms)
        assert max(abs(ev.reconstructed - ev.value)
                   for ev in rows) <= cfg.threshold
    assert_ledgers_replay(sc, log)

    again = simulate(sc)
    assert again.events == log.events
    assert again.packets == log.packets
    assert again.devices == log.devices

    with tempfile.TemporaryDirectory() as rundir:
        log.save(Path(rundir))
        loaded = RunLog.load(Path(rundir))
        assert (Path(rundir) / "runlog_events.csv").read_bytes() == \
            csv_writer_bytes(log)
        assert_trace_rebuilds_readings(sc, log, Path(rundir))
    assert loaded.sums == log.sums
    assert metrics.compute(loaded) == metrics.compute(log)


def write_run(sc, rundir):
    """simulate's run directory for a scenario, written by the call that
    cmd_simulate makes."""
    simulate(sc).save(rundir)


def dir_bytes(rundir):
    return {path.name: path.read_bytes() for path in rundir.iterdir()}


@settings(max_examples=30)
@given(small_scenarios())
def test_two_runs_write_identical_run_directories(sc):
    with tempfile.TemporaryDirectory() as first, \
            tempfile.TemporaryDirectory() as second:
        write_run(sc, Path(first))
        write_run(sc, Path(second))
        assert dir_bytes(Path(first)) == dir_bytes(Path(second))


@settings(max_examples=30)
@given(small_scenarios())
def test_report_prints_the_saved_metrics_files(sc):
    with tempfile.TemporaryDirectory() as rundir:
        write_run(sc, Path(rundir))
        for fmt in ("csv", "json"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(["--format", fmt, "report", rundir]) == \
                    cli.EXIT_OK
            assert out.getvalue().encode() == \
                (Path(rundir) / f"metrics.{fmt}").read_bytes()
