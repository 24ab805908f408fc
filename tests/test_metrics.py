import csv
import io
import json

import pytest

from conftest import SCENARIO_DIR
from wbancomp import config, metrics
from wbancomp.config import ChannelModel, DeviceConfig, Scenario
from wbancomp.netmodel import simulate
from wbancomp.rundir import DelaySums, RunLog
from wbancomp.signals import SyntheticSource, TraceSpec


def make_runlog():
    dev = DeviceConfig(
        name="p", device_id=3, mode="CGLS",
        trace=TraceSpec(source=SyntheticSource("ppg", seed=5),
                        sample_period_ms=100),
        threshold=1, cd_ms=2.0,
    )
    return simulate(Scenario(duration_s=60.0, devices=(dev,)))


class TestCompressionRatio:
    @pytest.mark.parametrize("orig,comp,expected", [
        (120, 1, 99.16),
        (7586, 4879, 35.68),
        (6483, 5011, 22.70),
        (6483, 6016, 7.20),
        (8863, 5589, 36.94),
        (8863, 5757, 35.04),
    ])
    def test_reported_ratios(self, orig, comp, expected):
        assert metrics.compression_ratio(orig, comp) == pytest.approx(
            expected, abs=0.01)

    def test_formula_value_for_two_of_120(self):
        # the formula gives 98.33 here, not the 97.50 the source table prints
        assert metrics.compression_ratio(120, 2) == pytest.approx(98.33,
                                                                  abs=0.01)

    def test_no_compression_is_zero(self):
        assert metrics.compression_ratio(500, 500) == 0.0

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            metrics.compression_ratio(0, 0)
        with pytest.raises(ValueError):
            metrics.compression_ratio(10, 11)


class TestAverageDelay:
    def single_event_log(self, cd, dd, dtr):
        sums = DelaySums()
        sums.add(3, cd, dtr, dd)
        return RunLog(duration_ms=1000.0, seed=0, devices=[], sums={1: sums})

    def test_single_transmission(self):
        assert metrics.average_delay(self.single_event_log(3, 1, 49)) == 53.0

    def test_temperature_style_budget(self):
        assert metrics.average_delay(self.single_event_log(1, 1, 49)) == 51.0

    def test_zero_latency_channel(self):
        assert metrics.average_delay(self.single_event_log(0, 0, 0)) == 0.0

    def test_empty_log_rejected(self):
        log = RunLog(duration_ms=1.0, seed=0, devices=[], sums={})
        with pytest.raises(ValueError):
            metrics.average_delay(log)

    def test_mean_over_all_transmissions(self):
        log = make_runlog()
        sent = [ev for ev in log.events if ev.transmitted]
        expected = sum(ev.cd_ms + ev.dd_ms + ev.dtr_ms for ev in sent) / len(sent)
        assert metrics.average_delay(log) == pytest.approx(expected)


class TestDisplayRound:
    def test_half_up(self):
        assert metrics.display_round(99.165) == 99.17
        assert metrics.display_round(2.675) == 2.68
        assert metrics.display_round(1.004) == 1.0


class TestReports:
    def test_device_metrics_recompute(self):
        log = make_runlog()
        devices, run = metrics.compute(log)
        assert len(devices) == 1
        m = devices[0]
        dev = log.devices[0]
        assert m.orig_pkt == dev.samples == 600
        assert m.comp_pkt == dev.transmitted
        assert m.pcr_pct == pytest.approx(
            metrics.compression_ratio(m.orig_pkt, m.comp_pkt))
        assert 0.0 <= m.pcr_pct <= 100.0
        assert m.comp_pkt <= m.orig_pkt
        assert run.device_count == 1
        assert run.transmissions == m.comp_pkt

    def test_ad_decomposition(self):
        log = make_runlog()
        devices, run = metrics.compute(log)
        total = sum(ev.cd_ms + ev.dd_ms + ev.dtr_ms
                    for ev in log.events if ev.transmitted)
        assert run.ad_ms * run.transmissions == pytest.approx(total)

    def test_delays_equal_a_plain_fold_of_the_events(self, tmp_path):
        # The sums are added one row at a time in row order, and the run
        # total adds the device sums in device order, so they equal these
        # loops exactly, whatever the interpreter's sum() does, and the
        # events file folds back to the same sums.
        devs = tuple(
            DeviceConfig(
                name=f"d{i}", device_id=i, mode=mode,
                trace=TraceSpec(source=SyntheticSource(kind, seed=i),
                                sample_period_ms=period),
                threshold=threshold,
            )
            for i, (mode, kind, period, threshold) in enumerate([
                ("CGWC", "ecg", 80, 0), ("CGLL", "ppg", 100, 0),
                ("CGLS", "temperature", 1000, 1)], start=1))
        log = simulate(Scenario(duration_s=60.0, devices=devs,
                                channel=ChannelModel(per_bit_delay_ms=0.1)))
        sums = {}
        for ev in log.events:
            if ev.transmitted:
                cd, dd, ad, sent = sums.get(ev.device_id, (0.0, 0.0, 0.0, 0))
                sums[ev.device_id] = (cd + ev.cd_ms, dd + ev.dd_ms,
                                      ad + (ev.cd_ms + ev.dd_ms + ev.dtr_ms),
                                      sent + 1)
        total, count = 0.0, 0
        for _, _, ad, sent in sums.values():
            total += ad
            count += sent
        devices, run = metrics.compute(log)
        assert run.ad_ms == total / count
        for m in devices:
            cd, dd, ad, sent = sums[m.device_id]
            assert (m.cd_ms, m.dd_ms, m.ad_ms) == (cd / sent, dd / sent,
                                                   ad / sent)
        log.save(tmp_path)
        loaded = RunLog.load(tmp_path)
        assert loaded.sums == log.sums

    @pytest.mark.parametrize("name", ["four_device", "lifetime_table",
                                      "temperature_sleep"])
    def test_read_back_metrics_equal_simulated_metrics(self, tmp_path, name):
        # Exactly, not only to the 4 places the files keep: a device's state
        # charges add in one order whether its map came from simulate or
        # from the sorted keys of runlog.json.
        log = simulate(config.parse_scenario(SCENARIO_DIR / f"{name}.cfg"))
        log.save(tmp_path)
        assert metrics.compute(RunLog.load(tmp_path)) == metrics.compute(log)

    def test_dec_matches_ledger(self):
        log = make_runlog()
        devices, _ = metrics.compute(log)
        assert devices[0].dec_mah == pytest.approx(log.devices[0].total_mah())

    def test_csv_columns_and_round_trip(self):
        log = make_runlog()
        devices, _ = metrics.compute(log)
        text = metrics.to_csv(devices)
        header = text.splitlines()[0]
        assert header == ("device_id,mode,orig_pkt,comp_pkt,pcr_pct,"
                          "cd_ms,dd_ms,ad_ms,dec_mah,lifetime_h")
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 1
        for name in ("pcr_pct", "cd_ms", "dd_ms", "ad_ms", "dec_mah",
                     "lifetime_h"):
            assert float(parsed[0][name]) == pytest.approx(
                getattr(devices[0], name), abs=1e-4)
        assert int(parsed[0]["orig_pkt"]) == devices[0].orig_pkt
        assert int(parsed[0]["comp_pkt"]) == devices[0].comp_pkt

    def test_json_report(self):
        log = make_runlog()
        doc = json.loads(metrics.report(log, "json"))
        assert doc["run"]["device_count"] == 1
        assert len(doc["devices"]) == 1
        assert doc["devices"][0]["mode"] == "CGLS"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            metrics.report(make_runlog(), "xml")

    def test_empty_run_rejected(self):
        log = RunLog(duration_ms=1.0, seed=0, devices=[], sums={})
        with pytest.raises(ValueError):
            metrics.report(log, "csv")

    def test_four_device_report_has_four_rows(self):
        devs = tuple(
            DeviceConfig(
                name=f"d{i}", device_id=i, mode="CGLS",
                trace=TraceSpec(source=SyntheticSource("ppg", seed=i),
                                sample_period_ms=100),
                threshold=1,
            )
            for i in range(1, 5))
        log = simulate(Scenario(duration_s=30.0, devices=devs))
        text = metrics.report(log, "csv")
        assert len(text.strip().splitlines()) == 5
