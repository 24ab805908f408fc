import math

import pytest

from wbancomp.netmodel import (ChannelModel, DeviceConfig, EnergyLedger,
                               RadioEnergyModel, Scenario, SleepPolicy,
                               lifetime, simulate)
from wbancomp.signals import SyntheticSource, TraceSpec


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
        assert ledger.total_mah() == 0.0

    def test_average_current_matches_constant_draw(self):
        model = RadioEnergyModel(tx_ma=39.0, idle_ma=38.28, sleep_ma=1.0)
        ledger = EnergyLedger(model)
        for hours in (0.25, 1.0, 3.5):
            ledger = EnergyLedger(model)
            ledger.charge("idle", hours * 3_600_000)
            assert math.isclose(ledger.total_mah(), 38.28 * hours)
            assert math.isclose(ledger.average_ma(), 38.28)

    def test_unknown_state_rejected(self):
        ledger = EnergyLedger(RadioEnergyModel())
        with pytest.raises(ValueError):
            ledger.charge("warp", 10.0)

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


class TestScenarioValidation:
    def test_duplicate_ids_rejected(self):
        devices = [synth_device("a", 1), synth_device("b", 1)]
        with pytest.raises(ValueError, match="not unique"):
            scenario(devices).validate()

    def test_mode_threshold_constraints(self):
        with pytest.raises(ValueError, match="CGLL"):
            scenario([synth_device("a", 1, mode="CGLL", threshold=1)]).validate()
        with pytest.raises(ValueError, match="CGLS"):
            scenario([synth_device("a", 1, mode="CGLS", threshold=0)]).validate()

    def test_coded_modes_cap_adc_bits(self):
        trace = TraceSpec(source=SyntheticSource("temperature"),
                          sample_period_ms=500, adc_bits=12)
        dev = DeviceConfig(name="a", device_id=1, mode="CGLL", trace=trace)
        with pytest.raises(ValueError, match="11-bit"):
            scenario([dev]).validate()

    def test_period_must_fit_processing(self):
        dev = synth_device("a", 1, period_ms=50, cd_ms=10.0)
        with pytest.raises(ValueError, match="busy"):
            scenario([dev], duration_s=1.0).validate()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            synth_device("a", 1, mode="RAW")

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            scenario([]).validate()


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
        assert [(d, s, p.pack()) for d, s, p in a.packets] == \
               [(d, s, p.pack()) for d, s, p in b.packets]

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
        assert simulate(sc).to_json() == simulate(sc).to_json()

    def test_equal_times_follow_previous_emission_order(self):
        # Device 3 samples every 300 ms and the others every 200 ms. At
        # t=600 device 3 comes first: its previous event (t=300) was emitted
        # before theirs (t=400), though its id and index are the largest.
        devs = [synth_device("a", 1, period_ms=200),
                synth_device("b", 2, period_ms=200),
                synth_device("c", 3, period_ms=300)]
        log = simulate(scenario(devs, duration_s=6.0))
        order = [(ev.time_ms, ev.device_id) for ev in log.events[:11]]
        assert order == [
            (0.0, 1), (0.0, 2), (0.0, 3),
            (200.0, 1), (200.0, 2), (300.0, 3),
            (400.0, 1), (400.0, 2),
            (600.0, 3), (600.0, 1), (600.0, 2),
        ]
