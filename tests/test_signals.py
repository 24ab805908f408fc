import csv
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, run_pipeline
from wbancomp.codec import group_of
from wbancomp.control import DeviceState
from wbancomp.signals import (_GENERATORS, FileSource, SyntheticSource,
                              TraceSpec, quantize, synth, trace_codes,
                              trace_samples)
from wbancomp.tracefile import read_column


class TestQuantize:
    def test_hand_computed_midrange(self):
        # (37 - 30) / 15 * 1023 = 477.4 -> 477
        assert quantize(37.0, (30.0, 45.0), 10) == 477

    def test_midpoint(self):
        assert quantize(1.0, (0.0, 2.0), 10) == 511

    def test_endpoints(self):
        assert quantize(30.0, (30.0, 45.0), 10) == 0
        assert quantize(45.0, (30.0, 45.0), 10) == 1023

    def test_saturation(self):
        assert quantize(29.0, (30.0, 45.0), 10) == 0
        assert quantize(46.0, (30.0, 45.0), 10) == 1023

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            quantize(1.0, (5.0, 5.0), 10)
        with pytest.raises(ValueError):
            quantize(1.0, (6.0, 5.0), 10)

    def test_bits_bounds(self):
        with pytest.raises(ValueError):
            quantize(1.0, (0.0, 2.0), 0)
        with pytest.raises(ValueError):
            quantize(1.0, (0.0, 2.0), 17)

    def test_monotone(self):
        rng = random.Random(1)
        values = sorted(rng.uniform(-10, 60) for _ in range(500))
        codes = [quantize(v, (0.0, 50.0), 10) for v in values]
        assert codes == sorted(codes)

    def test_codes_in_range(self):
        rng = random.Random(2)
        for bits in (1, 8, 10, 16):
            for _ in range(200):
                code = quantize(rng.uniform(-100, 100), (-50.0, 50.0), bits)
                assert 0 <= code <= (1 << bits) - 1


class TestLoadTrace:
    """File traces, read through trace_codes and trace_samples."""

    def spec(self, path, **kwargs):
        defaults = dict(sample_period_ms=100, adc_bits=10,
                        adc_range=(30.0, 45.0))
        defaults.update(kwargs)
        return TraceSpec(source=FileSource(str(path), kwargs.pop("column", 0)),
                         **defaults)

    def test_row_count_preserved(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("".join(f"{i * 0.1:.1f},{35 + i % 3}\n"
                                for i in range(600)))
        spec = TraceSpec(source=FileSource(str(path), value_column=1),
                         sample_period_ms=100, adc_range=(30.0, 45.0))
        samples = trace_samples(spec)
        assert len(samples) == 600
        assert [s.timestamp_ms for s in samples[:3]] == [0, 100, 200]

    def test_constant_column_quantizes_to_477(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("37.0\n" * 10)
        codes, clamp_count = trace_codes(self.spec(path))
        assert all(code == 477 for code in codes)
        assert clamp_count == 0

    def test_header_autodetected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("temp_c\n37.0\n37.5\n")
        codes, _ = trace_codes(self.spec(path))
        assert len(codes) == 2

    def test_clamp_diagnostic(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("37.0\n99.0\n20.0\n")
        codes, clamp_count = trace_codes(self.spec(path))
        assert codes == [477, 1023, 0]
        assert clamp_count == 2

    def test_range_bounds_do_not_clamp(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("30.0\n45.0\n")
        codes, clamp_count = trace_codes(self.spec(path))
        assert codes == [0, 1023]
        assert clamp_count == 0

    @pytest.mark.parametrize("text, line", [
        ("37.0\nnan\n", 2), ("37.0\ninf\n", 2), ("37.0\n-inf\n", 2),
        ("nan\n37.0\n", 1), ("temp_c\n37.0\nnan\n", 3),
    ], ids=["nan", "inf", "-inf", "nan-first-line", "nan-after-header"])
    def test_non_finite_reading_located(self, tmp_path, text, line):
        # An infinity would saturate like any reading out of range, and nan
        # has no code at all; both are errors naming the line, even on the
        # first line, where a non-number would be taken as a header.
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"trace\.csv:{line}: reading "
                                             r"-?(nan|inf) is not finite"):
            trace_codes(self.spec(path))

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            trace_codes(self.spec("/nonexistent/trace.csv"))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("37.0\nbogus\n")
        with pytest.raises(ValueError, match="non-numeric"):
            trace_codes(self.spec(path))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            trace_codes(self.spec(path))

    def test_duration_truncates(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("37.0\n" * 100)
        codes, _ = trace_codes(self.spec(path, duration_s=5.0))
        assert len(codes) == 50

    def test_duration_longer_than_file_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("37.0\n" * 10)
        with pytest.raises(ValueError, match="10 samples"):
            trace_codes(self.spec(path, duration_s=5.0))

    def test_ecg_fixture_loads(self):
        spec = TraceSpec(source=FileSource(str(DATA_DIR / "ecg_trace.csv"),
                                           value_column=1),
                         sample_period_ms=80, adc_range=(-2.5, 2.5))
        codes, clamp_count = trace_codes(spec)
        assert len(codes) == 600
        assert clamp_count == 0


def reference_read_column(path, column, parse):
    """read_column's rule read the plain way, yielding (line, value) pairs:
    skip blank rows, then parse; a first unparsable row is a header, any
    later one an error, as is any row csv.reader refuses."""
    header = found = False
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            for row in reader:
                if not any(cell.strip() for cell in row):
                    continue
                try:
                    value = parse(row[column])
                except (ValueError, IndexError):
                    if header or found:
                        raise ValueError(
                            f"{path}:{reader.line_num}: non-numeric or "
                            f"missing value in column {column}") from None
                    header = True
                    continue
                found = True
                yield reader.line_num, value
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not found:
        raise ValueError(f"{path}: header but no readings" if header
                         else f"{path}: empty, no readings")


def read_outcome(read, *args):
    """The (line, value) pairs a reader gives, with read_column's blocks
    joined, or the text it raises."""
    pairs = []
    try:
        for block in read(*args):
            pairs.extend(zip(*block) if read is read_column else [block])
    except ValueError as exc:
        return pairs, str(exc)
    return pairs


# Cells of every kind a reading file holds: numbers, blanks, whitespace,
# header-like names and other text, and cells that only csv.reader splits
# or that int and float read in more than one way.
CELLS = st.sampled_from(["12", " 7 ", "-3", "0", "3.5", "1e3", "-inf", "",
                         " ", "\t", "temp_c", "value", "bogus", "1 2", "--",
                         '"5"', '"4,5"', '"6', "\0", "7\0", "+5", "1_0",
                         "\u0663"])
ROWS = st.lists(CELLS, max_size=3).map(",".join)
# Line ends: the column-wise route reads only the first.
ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@settings(max_examples=300)
@given(st.lists(st.tuples(ROWS, ENDS), max_size=8), st.booleans(),
       st.integers(0, 2), st.sampled_from([int, float]))
# A quoted comma moves the cells after it: csv.reader finds no column 2.
@example([('"4,5",12', "\n"), ("7,8,9", "\n")], False, 2, int)
def test_read_column_matches_reference(tmp_path_factory, rows, bom, column,
                                       parse):
    # read_column parses a column at once when csv.reader would split the
    # text at "\n" and "," alone, and else reads as the reference does; both
    # routes must give the reference's readings, and its first fault after
    # the readings before it.
    path = tmp_path_factory.getbasetemp() / "readings.csv"
    text = "\ufeff" * bom + "".join(row + end for row, end in rows)
    path.write_bytes(text.encode())
    assert (read_outcome(read_column, path, column, parse)
            == read_outcome(reference_read_column, path, column, parse))


class TestSynth:
    def test_seeded_reproducibility(self):
        for kind in ("temperature", "ecg", "ppg"):
            a = synth(kind, {}, 42, 500)
            b = synth(kind, {}, 42, 500)
            assert a == b

    def test_different_seeds_differ(self):
        a = synth("temperature", {"step_probability": 0.5}, 1, 500)
        b = synth("temperature", {"step_probability": 0.5}, 2, 500)
        assert a != b

    def test_codes_in_adc_range(self):
        for kind in ("temperature", "ecg", "ppg"):
            for code in synth(kind, {}, 9, 2000):
                assert 0 <= code <= 1023

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth("emg", {}, 0, 10)

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            synth("temperature", {"velocity": 1.0}, 0, 10)

    def test_temperature_is_mostly_flat(self):
        # Expect ~99% zero deltas at the default step probability.
        fractions = []
        for seed in range(50):
            codes = synth("temperature", {}, seed, 120)
            deltas = [b - a for a, b in zip(codes, codes[1:])]
            fractions.append(sum(1 for d in deltas if d == 0) / len(deltas))
            assert all(abs(d) <= 1 for d in deltas)
        assert sum(fractions) / len(fractions) >= 0.98
        assert min(fractions) >= 0.9

    def test_constant_generator_transmits_once(self):
        codes = synth("temperature", {"step_probability": 0.0}, 3, 120)
        assert len(set(codes)) == 1
        _, packets = run_pipeline(codes, threshold=1)
        assert len(packets) == 1

    def test_ecg_reaches_large_groups(self):
        codes = synth("ecg", {}, 42, 1000)
        deltas = [b - a for a, b in zip(codes, codes[1:])]
        assert any(abs(d) > 63 for d in deltas)

    def test_ecg_covers_groups_one_through_seven(self):
        codes = synth("ecg", {}, 42, 2000)
        state = DeviceState(device_id=1, threshold=0)
        groups = {group_of(r) for c in codes
                  if (r := state.process_sample(c)) is not None}
        assert groups >= set(range(1, 8))

    def test_ecg_regime_band(self):
        codes = synth("ecg", {}, 42, 7500)
        for threshold, low, high in ((0, 28.0, 45.0), (1, 30.0, 48.0)):
            _, packets = run_pipeline(codes, threshold=threshold)
            pcr = (1 - len(packets) / len(codes)) * 100
            assert low <= pcr <= high, (threshold, pcr)

    def test_ppg_regime_band(self):
        codes = synth("ppg", {}, 42, 6000)
        _, packets = run_pipeline(codes, threshold=0)
        lossless_pcr = (1 - len(packets) / len(codes)) * 100
        _, packets = run_pipeline(codes, threshold=1)
        lossy_pcr = (1 - len(packets) / len(codes)) * 100
        assert 4.0 <= lossless_pcr <= 13.0
        assert 15.0 <= lossy_pcr <= 30.0
        assert lossy_pcr > lossless_pcr

    # Draws whose generator codes leave the ADC range: the ECG spike and
    # the PPG baseline overflow 8 bits, and a certain step walks a
    # temperature off either end.
    LEAVING = [
        ("ecg", {}, 8),
        ("ppg", {}, 8),
        ("temperature", {"start_code": 0, "step_probability": 1.0}, 10),
        ("temperature", {"start_code": 1023, "step_probability": 1.0}, 10),
        ("temperature", {"start_code": 255, "step_probability": 1.0}, 8),
    ]

    @pytest.mark.parametrize("kind,params,adc_bits", LEAVING)
    def test_codes_leaving_the_range_are_clamped(self, kind, params,
                                                 adc_bits):
        full_scale = (1 << adc_bits) - 1
        for seed in range(5):
            raw = list(_GENERATORS[kind](random.Random(seed), 600, params))
            assert min(raw) < 0 or max(raw) > full_scale
            assert synth(kind, params, seed, 600, adc_bits) == [
                min(max(code, 0), full_scale) for code in raw]

    @pytest.mark.parametrize("start_code", [0, 1023])
    def test_codes_one_past_the_range_are_clamped(self, start_code):
        # Short walks from either end whose codes leave the range by one
        # code at most, or not at all.
        params = {"start_code": start_code, "step_probability": 1.0}
        extremes = set()
        for seed in range(20):
            raw = list(_GENERATORS["temperature"](random.Random(seed), 3,
                                                  params))
            extremes.update((min(raw), max(raw)))
            assert synth("temperature", params, seed, 3) == [
                min(max(code, 0), 1023) for code in raw]
        assert extremes >= ({-1, 1} if start_code == 0 else {1022, 1024})

    @pytest.mark.parametrize("kind", ["temperature", "ecg", "ppg"])
    def test_trace_in_range_is_the_generator_codes(self, kind):
        raw = list(_GENERATORS[kind](random.Random(4), 600, {}))
        assert 0 <= min(raw) and max(raw) <= 1023
        assert synth(kind, {}, 4, 600) == raw

    @pytest.mark.parametrize("kind,params,adc_bits", LEAVING)
    def test_no_samples_is_an_empty_trace(self, kind, params, adc_bits):
        assert synth(kind, params, 0, 0, adc_bits) == []


class TestTraceSpec:
    def test_sample_count(self):
        spec = TraceSpec(source=SyntheticSource("ecg"), sample_period_ms=80,
                         duration_s=600)
        assert spec.sample_count() == 7500

    def test_non_divisible_duration_rejected(self):
        spec = TraceSpec(source=SyntheticSource("ecg"), sample_period_ms=7,
                         duration_s=1)
        with pytest.raises(ValueError, match="whole number"):
            spec.sample_count()

    def test_synth_samples_timestamps(self):
        spec = TraceSpec(source=SyntheticSource("temperature", seed=4),
                         sample_period_ms=500, duration_s=60)
        samples = trace_samples(spec)
        assert len(samples) == 120
        assert samples[-1].timestamp_ms == 119 * 500

    def test_trace_samples_dispatch(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("37.0\n" * 4)
        file_spec = TraceSpec(source=FileSource(str(path)),
                              sample_period_ms=100, adc_range=(30.0, 45.0))
        assert len(trace_samples(file_spec)) == 4
        synth_spec = TraceSpec(source=SyntheticSource("ppg", seed=1),
                               sample_period_ms=100, duration_s=1)
        assert len(trace_samples(synth_spec)) == 10
