import random

import pytest

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
    with pytest.raises(ValueError):
        DeviceState(device_id=1, threshold=-1)
    with pytest.raises(ValueError):
        DeviceState(device_id=300, threshold=0)


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
