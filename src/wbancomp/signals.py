"""Input signals: CSV trace ingestion and synthetic generators, as ADC codes.

File traces are numeric CSV columns (MIT-BIH-style exports work as-is),
read by tracefile.read_column, which encode reads its readings with too;
physical values are quantized onto the ADC range with floor rounding and
saturation. Synthetic generators produce code-space sequences directly and
are deterministic per seed:

    temperature  slow +-1 random walk, long flat stretches
    ecg          repeating beat with a sharp spike complex over a flat baseline
    ppg          smooth periodic pulse wave with moderate slopes
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from . import MAX_ADC_BITS, SYNTH_KINDS


@dataclass(frozen=True)
class Sample:
    """One timestamped ADC reading."""

    timestamp_ms: int
    value: int


@dataclass(frozen=True)
class FileSource:
    """A numeric column of a CSV trace file, by its index."""

    path: str
    value_column: int = 0


@dataclass(frozen=True)
class SyntheticSource:
    """A seeded synthetic generator of one of SYNTH_KINDS, with its params."""

    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # Check kind and parameters now, not when the trace is generated.
        synth(self.kind, self.params, self.seed, 0)


@dataclass(frozen=True)
class TraceSpec:
    """Where samples come from and how they are timed and quantized."""

    source: FileSource | SyntheticSource
    sample_period_ms: int
    duration_s: float | None = None
    adc_bits: int = 10
    adc_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.sample_period_ms <= 0:
            raise ValueError("sample_period_ms must be positive")
        if not 1 <= self.adc_bits <= MAX_ADC_BITS:
            raise ValueError(f"adc_bits must be in [1, {MAX_ADC_BITS}]")

    def sample_count(self) -> int | None:
        """Number of samples implied by duration, or None when open-ended."""
        if self.duration_s is None:
            return None
        try:
            count = self.duration_s * 1000.0 / self.sample_period_ms
            whole = round(count)
        except OverflowError:
            raise ValueError("sample count is past the float range") from None
        if abs(count - whole) > 1e-9:
            raise ValueError(
                f"duration {self.duration_s}s is not a whole number of "
                f"{self.sample_period_ms}ms periods"
            )
        return whole


def quantize(physical: float, adc_range: tuple[float, float], adc_bits: int) -> int:
    """Map a physical value onto [0, 2^bits - 1], floor-rounded, saturating."""
    lo, hi = adc_range
    if not 1 <= adc_bits <= MAX_ADC_BITS:
        raise ValueError(f"adc_bits must be in [1, {MAX_ADC_BITS}]")
    if lo >= hi:
        raise ValueError(f"degenerate range ({lo}, {hi})")
    full_scale = (1 << adc_bits) - 1
    if physical <= lo:
        return 0
    if physical >= hi:
        return full_scale
    return math.floor((physical - lo) / (hi - lo) * full_scale)


def parse_range(text: str) -> tuple[float, float]:
    """The physical range 'min,max': finite min < max, a finite width apart."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'min,max', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"not numeric: {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite min < max, got {text!r}")
    if math.isinf(hi - lo):  # quantize divides by it
        raise ValueError(f"max - min is past the float range, got {text!r}")
    return lo, hi


def trace_codes(spec: TraceSpec) -> tuple[list[int], int]:
    """The ADC codes of any TraceSpec, and how many readings clamped.

    Synthetic traces need a duration and count no clamps, though synth
    saturates a code that leaves the ADC range. File traces are read,
    cut to the duration when one is set, and quantized; a non-numeric first
    row is treated as a header, a non-finite reading elsewhere is an error,
    and values outside the ADC range saturate.
    """
    # Imported here, so that parsing a scenario loads no tracefile.
    from .tracefile import read_column

    source = spec.source
    if isinstance(source, SyntheticSource):
        count = spec.sample_count()
        if count is None:
            raise ValueError("synthetic traces need a duration")
        return synth(source.kind, source.params, source.seed, count,
                     spec.adc_bits), 0
    if spec.adc_range is None:
        raise ValueError("file traces need an adc_range to quantize against")
    values = []
    for numbers, block in read_column(Path(source.path), source.value_column,
                                      float):
        if not all(map(math.isfinite, block)):
            index = next(index for index, value in enumerate(block)
                         if not math.isfinite(value))
            raise ValueError(f"{source.path}:{numbers[index]}: reading "
                             f"{block[index]} is not finite")
        values += block

    wanted = spec.sample_count()
    if wanted is not None:
        if len(values) < wanted:
            raise ValueError(
                f"trace file {source.path} holds {len(values)} samples, "
                f"{wanted} requested"
            )
        values = values[:wanted]

    # The readings outside [lo, hi] are exactly those quantize saturates.
    lo, hi = spec.adc_range
    codes = [quantize(physical, spec.adc_range, spec.adc_bits)
             for physical in values]
    return codes, sum(not lo <= physical <= hi for physical in values)


def synth(kind: str, params: dict, seed: int, count: int, adc_bits: int = 10) -> list[int]:
    """Generate `count` ADC codes for one synthetic signal class.

    The generators yield unclamped codes, and check their parameters before
    the first one, so count 0 checks kind and parameters only. The codes
    are clamped to the ADC range only when some fall outside it.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if count < 0:
        raise ValueError("count must be non-negative")
    known = PARAM_NAMES[kind]
    unknown = set(params) - known
    if unknown:
        raise ValueError(f"{sorted(unknown)} are not {kind} parameters "
                         f"(allowed: {sorted(known)})")
    full_scale = (1 << adc_bits) - 1
    codes = list(_GENERATORS[kind](random.Random(seed), count, params))
    if codes and (min(codes) < 0 or max(codes) > full_scale):
        return [min(max(code, 0), full_scale) for code in codes]
    return codes


def trace_samples(spec: TraceSpec) -> list[Sample]:
    """Materialize any TraceSpec into its sample sequence."""
    period = spec.sample_period_ms
    return [Sample(i * period, code)
            for i, code in enumerate(trace_codes(spec)[0])]


def _gen_temperature(rng: random.Random, count: int,
                     params: dict) -> Iterator[int]:
    # Body temperature barely moves between consecutive readings: long flat
    # runs with the occasional one-code step.
    start = int(params.get("start_code", 477))
    step_probability = float(params.get("step_probability", 0.01))
    if not 0.0 <= step_probability <= 1.0:
        raise ValueError("step_probability must be in [0, 1]")
    code = start
    draw, choice = rng.random, rng.choice
    for _ in range(count):
        if draw() < step_probability:
            code += choice((-1, 1))
        yield code


# One beat as value offsets from the baseline. Flat stretches give the zero
# deltas; the P/QRS/T shapes sweep delta magnitudes from one code up to the
# hundred-plus swing of the spike.
_ECG_BEAT = (
    [0] * 10
    + [1, 3, 6, 8, 6, 3, 1, 0]            # P wave
    + [0, 0]                              # PQ segment
    + [-6, 34, 134, 230]                  # Q dip, R upstroke
    + [120, 56, 8, -22]                   # S plunge
    + [-30, -14, -6, -2, 0]               # recovery to baseline
    + [0] * 4                             # ST segment
    + [6, 16, 26, 30, 26, 16, 6, 0]       # T wave
)


def _gen_ecg(rng: random.Random, count: int, params: dict) -> Iterator[int]:
    base = int(params.get("base_code", 300))
    beat_period = int(params.get("beat_period", len(_ECG_BEAT)))
    jitter_probability = float(params.get("jitter_probability", 0.0))
    if beat_period < len(_ECG_BEAT):
        raise ValueError(f"beat_period must be at least {len(_ECG_BEAT)}")
    for i in range(count):
        phase = i % beat_period
        offset = _ECG_BEAT[phase] if phase < len(_ECG_BEAT) else 0
        code = base + offset
        if jitter_probability and rng.random() < jitter_probability:
            code += rng.choice((-1, 1))
        yield code


def _gen_ppg(rng: random.Random, count: int, params: dict) -> Iterator[int]:
    base = int(params.get("base_code", 400))
    amplitude = float(params.get("amplitude", 110.0))
    pulse_period = int(params.get("pulse_period", 55))
    wander_amplitude = float(params.get("wander_amplitude", 4.0))
    if pulse_period < 8:
        raise ValueError("pulse_period must be at least 8")
    for i in range(count):
        phase = (i % pulse_period) / pulse_period
        if phase < 0.15:
            # systolic upstroke
            level = math.sin(math.pi / 2 * phase / 0.15)
        elif phase < 0.45:
            # early decay towards the dicrotic notch
            level = 0.3 + 0.7 * (0.5 + 0.5 * math.cos(math.pi * (phase - 0.15) / 0.30))
        elif phase < 0.60:
            # dicrotic bump
            level = 0.3 + 0.10 * math.sin(math.pi * (phase - 0.45) / 0.15)
        elif phase < 0.95:
            # diastolic runoff
            level = 0.3 * (1.0 - (phase - 0.60) / 0.35)
        else:
            # end-diastolic hold
            level = 0.0
        wander = wander_amplitude * math.sin(2 * math.pi * i / (8 * pulse_period))
        yield int(round(base + amplitude * level + wander))


_GENERATORS = {
    "temperature": _gen_temperature,
    "ecg": _gen_ecg,
    "ppg": _gen_ppg,
}

# The parameters each synthetic generator reads; scenario files name them.
PARAM_NAMES = {
    "temperature": {"start_code", "step_probability"},
    "ecg": {"base_code", "beat_period", "jitter_probability"},
    "ppg": {"base_code", "amplitude", "pulse_period", "wander_amplitude"},
}
