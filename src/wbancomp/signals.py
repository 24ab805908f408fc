"""Input signals: CSV trace ingestion and synthetic generators, as ADC codes.

File traces are numeric CSV columns (MIT-BIH-style exports work as-is);
physical values are quantized onto the ADC range with floor rounding and
saturation. Synthetic generators produce code-space sequences directly and
are deterministic per seed:

    temperature  slow +-1 random walk, long flat stretches
    ecg          repeating beat with a sharp spike complex over a flat baseline
    ppg          smooth periodic pulse wave with moderate slopes
"""

from __future__ import annotations

import csv
import math
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

SYNTH_KINDS = ("temperature", "ecg", "ppg")


@dataclass(frozen=True)
class Sample:
    """One timestamped ADC reading."""

    timestamp_ms: int
    value: int


@dataclass(frozen=True)
class FileSource:
    path: str
    value_column: int = 0


@dataclass(frozen=True)
class SyntheticSource:
    kind: str
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")


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
        if not 1 <= self.adc_bits <= 16:
            raise ValueError("adc_bits must be in [1, 16]")

    def sample_count(self) -> int | None:
        """Number of samples implied by duration, or None when open-ended."""
        if self.duration_s is None:
            return None
        total_ms = self.duration_s * 1000.0
        count = total_ms / self.sample_period_ms
        if abs(count - round(count)) > 1e-9:
            raise ValueError(
                f"duration {self.duration_s}s is not a whole number of "
                f"{self.sample_period_ms}ms periods"
            )
        return int(round(count))


def quantize(physical: float, adc_range: tuple[float, float], adc_bits: int) -> int:
    """Map a physical value onto [0, 2^bits - 1], floor-rounded, saturating."""
    lo, hi = adc_range
    if not 1 <= adc_bits <= 16:
        raise ValueError("adc_bits must be in [1, 16]")
    if lo >= hi:
        raise ValueError(f"degenerate range ({lo}, {hi})")
    full_scale = (1 << adc_bits) - 1
    if physical <= lo:
        return 0
    if physical >= hi:
        return full_scale
    return math.floor((physical - lo) / (hi - lo) * full_scale)


@dataclass
class TraceLoad:
    samples: list[Sample]
    clamp_count: int


def read_column(path: Path, column: int,
                parse: Callable[[str], float]) -> Iterator[tuple[int, float]]:
    """Yield (line number, parse(cell)) for one column of a CSV file.

    Blank rows are skipped. A first row whose cell `parse` rejects is taken
    as a header, so one function decides both what is a header and what is a
    value. Errors name the file and line.
    """
    if not path.exists():
        raise FileNotFoundError(f"file {path} does not exist")
    header = found = False
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            try:
                value = parse(row[column])
            except (ValueError, IndexError):
                if header or found:
                    raise ValueError(
                        f"{path}:{reader.line_num}: non-numeric or missing "
                        f"value in column {column}") from None
                header = True
                continue
            found = True
            yield reader.line_num, value
    if not found:
        raise ValueError(f"{path}: header but no readings" if header
                         else f"{path}: empty, no readings")


def load_trace(spec: TraceSpec) -> TraceLoad:
    """Read, quantize, and timestamp a CSV trace.

    A non-numeric first row is treated as a header. Values outside the ADC
    range saturate; the clamp count is reported for diagnostics.
    """
    if not isinstance(spec.source, FileSource):
        raise ValueError("load_trace requires a FileSource")
    if spec.adc_range is None:
        raise ValueError("file traces need an adc_range to quantize against")
    lo, hi = spec.adc_range
    full_scale = (1 << spec.adc_bits) - 1
    values = [value for _, value in read_column(
        Path(spec.source.path), spec.source.value_column, float)]

    wanted = spec.sample_count()
    if wanted is not None:
        if len(values) < wanted:
            raise ValueError(
                f"trace file {spec.source.path} holds {len(values)} samples, "
                f"{wanted} requested"
            )
        values = values[:wanted]

    clamp_count = 0
    samples = []
    for i, physical in enumerate(values):
        code = quantize(physical, (lo, hi), spec.adc_bits)
        if (code == 0 and physical < lo) or (code == full_scale and physical > hi):
            clamp_count += 1
        samples.append(Sample(i * spec.sample_period_ms, code))
    return TraceLoad(samples, clamp_count)


def synth(kind: str, params: dict, seed: int, count: int, adc_bits: int = 10) -> list[int]:
    """Generate `count` ADC codes for one synthetic signal class."""
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    if count < 0:
        raise ValueError("count must be non-negative")
    generator = _GENERATORS[kind]
    known = PARAM_NAMES[kind]
    unknown = set(params) - known
    if unknown:
        raise ValueError(f"unknown {kind} params: {sorted(unknown)}")
    rng = random.Random(seed)
    full_scale = (1 << adc_bits) - 1
    codes = generator(rng, count, full_scale, params)
    return [min(max(code, 0), full_scale) for code in codes]


def synth_samples(spec: TraceSpec) -> list[Sample]:
    """Synthetic trace as timestamped samples; duration must be set."""
    if not isinstance(spec.source, SyntheticSource):
        raise ValueError("synth_samples requires a SyntheticSource")
    count = spec.sample_count()
    if count is None:
        raise ValueError("synthetic traces need a duration")
    codes = synth(spec.source.kind, spec.source.params, spec.source.seed,
                  count, spec.adc_bits)
    return [Sample(i * spec.sample_period_ms, code) for i, code in enumerate(codes)]


def trace_samples(spec: TraceSpec) -> list[Sample]:
    """Materialize any TraceSpec into its sample sequence."""
    if isinstance(spec.source, FileSource):
        return load_trace(spec).samples
    return synth_samples(spec)


def _gen_temperature(rng: random.Random, count: int, full_scale: int,
                     params: dict) -> list[int]:
    # Body temperature barely moves between consecutive readings: long flat
    # runs with the occasional one-code step.
    start = int(params.get("start_code", 477))
    step_probability = float(params.get("step_probability", 0.01))
    if not 0.0 <= step_probability <= 1.0:
        raise ValueError("step_probability must be in [0, 1]")
    code = start
    codes = []
    for _ in range(count):
        if rng.random() < step_probability:
            code += rng.choice((-1, 1))
        codes.append(code)
    return codes


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


def _gen_ecg(rng: random.Random, count: int, full_scale: int,
             params: dict) -> list[int]:
    base = int(params.get("base_code", 300))
    beat_period = int(params.get("beat_period", len(_ECG_BEAT)))
    jitter_probability = float(params.get("jitter_probability", 0.0))
    if beat_period < len(_ECG_BEAT):
        raise ValueError(f"beat_period must be at least {len(_ECG_BEAT)}")
    codes = []
    for i in range(count):
        phase = i % beat_period
        offset = _ECG_BEAT[phase] if phase < len(_ECG_BEAT) else 0
        code = base + offset
        if jitter_probability and rng.random() < jitter_probability:
            code += rng.choice((-1, 1))
        codes.append(code)
    return codes


def _gen_ppg(rng: random.Random, count: int, full_scale: int,
             params: dict) -> list[int]:
    base = int(params.get("base_code", 400))
    amplitude = float(params.get("amplitude", 110.0))
    pulse_period = int(params.get("pulse_period", 55))
    wander_amplitude = float(params.get("wander_amplitude", 4.0))
    if pulse_period < 8:
        raise ValueError("pulse_period must be at least 8")
    codes = []
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
        codes.append(int(round(base + amplitude * level + wander)))
    return codes


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
