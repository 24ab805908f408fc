"""Device-side threshold filter: raw readings in, transmit/suppress decisions out.

The filter keeps the last transmitted reading per device. A new reading is
transmitted only when it differs from that memory by strictly more than the
threshold (always, in lossless mode), so the receiver's held value never
drifts from the truth by more than the threshold.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from . import MAX_ADC_BITS


class DeviceState:
    """Per-device filter memory.

    threshold 0 is lossless mode: every change is transmitted, and with
    suppress_zero (the default) unchanged readings send nothing at all,
    which the sink reconstructs exactly by holding its last value.
    """

    def __init__(self, device_id: int, threshold: int,
                 suppress_zero: bool = True, adc_bits: int = 10):
        if not 0 <= device_id <= 255:
            raise ValueError(f"device_id {device_id} outside [0, 255]")
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if not 1 <= adc_bits <= MAX_ADC_BITS:
            raise ValueError(f"adc_bits must be in [1, {MAX_ADC_BITS}]")
        self.device_id = device_id
        self.threshold = threshold
        self.suppress_zero = suppress_zero
        self.adc_bits = adc_bits
        self.first_reading = True
        self.last_reading = 0
        self.consecutive_suppressed = 0

    def process_sample(self, value: int) -> int | None:
        """Return the residual to transmit, or None when the sample is suppressed.

        The one-sample case of transmits.
        """
        residual = None
        for _, residual in self.transmits((value,)):
            pass
        return residual

    def transmits(self, codes: Sequence[int]) -> Iterator[tuple[int, int]]:
        """Yield (index, residual) for each of `codes` that transmits.

        The first reading is transmitted as an absolute value: its residual
        from the initial last_reading of 0 is the reading itself. Afterwards a
        reading transmits its delta from the last transmitted reading when the
        variation strictly exceeds the threshold (or always at threshold 0,
        zero deltas excepted under suppress_zero). Suppression leaves
        last_reading untouched. The state is a per-sample loop's at every
        yield and at the end. Every reading is range-checked before the
        first is filtered, and the first one outside the range is named.
        """
        top = 1 << self.adc_bits
        if codes and (min(codes) < 0 or max(codes) >= top):
            bad = next(code for code in codes if not 0 <= code < top)
            raise ValueError(f"reading {bad} outside {self.adc_bits}-bit range")
        # A reading is suppressed when it lies in [lo, hi] around the last
        # transmitted one; the range is empty before the first reading, and
        # always when zero deltas are transmitted at threshold 0.
        margin = self.threshold
        if margin == 0 and not self.suppress_zero:
            margin = -1
        last = self.last_reading
        lo, hi = (1, 0) if self.first_reading else (last - margin, last + margin)
        sent = -1
        for index, value in enumerate(codes):
            if lo <= value <= hi:
                continue
            self.first_reading = False
            self.last_reading = value
            self.consecutive_suppressed = 0
            sent = index
            yield index, value - last
            last = value
            lo, hi = value - margin, value + margin
        self.consecutive_suppressed += len(codes) - 1 - sent
