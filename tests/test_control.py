import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_pipeline
from wbancomp.control import DeviceState


def fresh(threshold, **kwargs):
    return DeviceState(device_id=1, threshold=threshold, **kwargs)


def test_first_sample_transmits_absolute_value():
    state = fresh(1)
    assert state.process_sample(38) == 38
    assert state.last_reading == 38
    assert not state.first_reading


def test_equal_reading_suppressed_under_threshold():
    state = fresh(1)
    state.process_sample(38)
    assert state.process_sample(38) is None
    assert state.last_reading == 38


def test_variation_above_threshold_transmits_delta():
    state = fresh(1)
    state.process_sample(38)
    assert state.process_sample(40) == 2
    assert state.last_reading == 40


def test_threshold_comparison_is_strict():
    state = fresh(1)
    state.process_sample(38)
    assert state.process_sample(39) is None  # variation 1 is not > 1
    assert state.last_reading == 38


def test_suppression_does_not_move_reference():
    state = fresh(2)
    state.process_sample(100)
    for value in (101, 102, 101, 99, 98):
        assert state.process_sample(value) is None
    # drift finally exceeds the threshold
    assert state.process_sample(103) == 3
    assert state.last_reading == 103


def test_lossless_transmits_every_change():
    state = fresh(0)
    assert state.process_sample(10) == 10
    assert state.process_sample(11) == 1
    assert state.process_sample(10) == -1


def test_lossless_suppresses_zero_delta_by_default():
    state = fresh(0)
    state.process_sample(10)
    assert state.process_sample(10) is None
    assert state.consecutive_suppressed == 1


def test_lossless_can_transmit_zero_deltas():
    state = fresh(0, suppress_zero=False)
    state.process_sample(10)
    assert state.process_sample(10) == 0


def test_suppressed_counter_resets_on_transmit():
    state = fresh(1)
    state.process_sample(10)
    state.process_sample(10)
    state.process_sample(10)
    assert state.consecutive_suppressed == 2
    state.process_sample(15)
    assert state.consecutive_suppressed == 0


def test_constant_stream_transmits_once():
    state = fresh(1)
    sent = sum(1 for _ in range(120) if state.process_sample(500) is not None)
    assert sent == 1


def test_out_of_range_reading_rejected():
    state = fresh(1)
    with pytest.raises(ValueError):
        state.process_sample(1024)
    with pytest.raises(ValueError):
        state.process_sample(-1)


def test_bad_construction_rejected():
    for kwargs, message in (
            ({"threshold": -1}, "threshold must be non-negative"),
            ({"device_id": 300}, r"device_id 300 outside \[0, 255\]"),
            ({"device_id": -1}, r"device_id -1 outside \[0, 255\]"),
            ({"adc_bits": 0}, r"adc_bits must be in \[1, 16\]"),
            ({"adc_bits": 17}, r"adc_bits must be in \[1, 16\]")):
        with pytest.raises(ValueError, match=message):
            DeviceState(**{"device_id": 1, "threshold": 0, **kwargs})


def test_built_positionally_or_by_keyword():
    # The benchmark's replay passes all four positionally.
    for state in (DeviceState(3, 2, False, 11),
                  DeviceState(device_id=3, threshold=2, suppress_zero=False,
                              adc_bits=11)):
        assert (state.device_id, state.threshold, state.suppress_zero,
                state.adc_bits) == (3, 2, False, 11)
        assert filter_fields(state) == (True, 0, 0)
    state = DeviceState(3, 2)
    assert (state.suppress_zero, state.adc_bits) == (True, 10)


def test_determinism():
    rng = random.Random(7)
    codes = [rng.randrange(1024) for _ in range(500)]
    runs = []
    for _ in range(2):
        state = fresh(2)
        runs.append([state.process_sample(c) for c in codes])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("threshold", [1, 2, 5])
def test_lossy_error_bound(threshold):
    rng = random.Random(threshold)
    state = fresh(threshold)
    value = 512
    for _ in range(2000):
        value = min(1023, max(0, value + rng.randint(-8, 8)))
        state.process_sample(value)
        assert abs(state.last_reading - value) <= threshold


def test_lossless_pipeline_reproduces_input_exactly():
    rng = random.Random(11)
    codes = [rng.randrange(1024) for _ in range(1000)]
    reconstructed, _ = run_pipeline(codes, threshold=0)
    assert reconstructed == codes


def reference_process(state, value):
    """process_sample as a per-sample loop would run it, kept as the
    reference that transmits must agree with."""
    if not 0 <= value < (1 << state.adc_bits):
        raise ValueError(f"reading {value} outside {state.adc_bits}-bit range")
    residual = value - state.last_reading
    if (state.first_reading or abs(residual) > state.threshold
            or (state.threshold == 0 and not state.suppress_zero)):
        state.first_reading = False
        state.last_reading = value
        state.consecutive_suppressed = 0
        return residual
    state.consecutive_suppressed += 1
    return None


def filter_fields(state):
    return state.first_reading, state.last_reading, state.consecutive_suppressed


@st.composite
def filter_runs(draw):
    """A fresh filter's settings, then readings in chunks: a walk of small
    steps, so the readings both pass and stay within the threshold."""
    threshold = draw(st.integers(0, 5))
    suppress_zero = draw(st.booleans())
    adc_bits = draw(st.integers(1, 12))
    top = (1 << adc_bits) - 1
    steps = st.lists(st.integers(-threshold - 2, threshold + 2), max_size=40)
    chunks, value = [], draw(st.integers(0, top))
    for _ in range(draw(st.integers(1, 4))):
        chunk = []
        for step in draw(steps):
            value = min(max(value + step, 0), top)
            chunk.append(value)
        chunks.append(chunk)
    return (threshold, suppress_zero, adc_bits), chunks


@settings(max_examples=300)
@given(filter_runs())
def test_transmits_is_the_per_sample_loop(run):
    # Fed chunk by chunk, the generator yields what the loop sends and
    # leaves the loop's state after each chunk, also for empty chunks.
    settings_, chunks = run
    state = DeviceState(1, *settings_)
    reference = DeviceState(1, *settings_)
    for chunk in chunks:
        expected = [(index, residual) for index, value in enumerate(chunk)
                    if (residual := reference_process(reference, value))
                    is not None]
        assert list(state.transmits(chunk)) == expected
        assert filter_fields(state) == filter_fields(reference)


@settings(max_examples=300)
@given(filter_runs())
def test_process_sample_is_the_per_sample_loop(run):
    settings_, chunks = run
    state = DeviceState(1, *settings_)
    reference = DeviceState(1, *settings_)
    for value in [value for chunk in chunks for value in chunk]:
        assert state.process_sample(value) == reference_process(reference,
                                                                value)
        assert filter_fields(state) == filter_fields(reference)


@settings(max_examples=300)
@given(filter_runs(), st.data())
def test_out_of_range_reading_named_before_any_is_filtered(run, data):
    settings_, chunks = run
    codes = chunks[0]
    top = 1 << settings_[2]
    for _ in range(data.draw(st.integers(1, 3))):
        bad = data.draw(st.sampled_from([-1, top, -top, 2 * top, -5, top + 3]))
        codes.insert(data.draw(st.integers(0, len(codes))), bad)
    reference = DeviceState(1, *settings_)
    with pytest.raises(ValueError) as expected:
        for value in codes:
            reference_process(reference, value)
    state = DeviceState(1, *settings_)
    before = filter_fields(state)
    with pytest.raises(ValueError) as raised:
        list(state.transmits(codes))
    assert str(raised.value) == str(expected.value)
    assert filter_fields(state) == before


def test_transmits_takes_any_sequence_and_yields_lazily():
    state = fresh(1)
    sends = state.transmits((10, 10, 12, 12))
    assert next(sends) == (0, 10)
    assert filter_fields(state) == (False, 10, 0)
    assert next(sends) == (2, 2)
    assert filter_fields(state) == (False, 12, 0)
    assert list(sends) == []
    assert filter_fields(state) == (False, 12, 1)
