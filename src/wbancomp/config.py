"""Scenarios: the records that describe a run, and the sectioned key-value
text files parsed into a Scenario.

The records are checked dataclasses: a Scenario holds its DeviceConfigs
and the ChannelModel, RadioEnergyModel and SleepPolicy they share. They
live here, not with the simulator, so that parsing a scenario loads no
module of the device loop or the codec.

Layout:

    [run]            duration_s, seed
    [channel]        the fields of ChannelModel
    [energy]         the fields of RadioEnergyModel
    [sleep]          the fields of SleepPolicy
    [device:NAME]    id, mode, threshold, sample_period_ms, adc_bits, cd_ms,
                     dd_ms, suppress_zero, RadioEnergyModel fields overriding
                     [energy], and signal=<temperature|ecg|ppg> with seed and
                     synth params, or file=<path> with adc_range, value_column

Model sections take their keys, types and defaults from their dataclass.
File paths are resolved relative to the config file. Unknown sections or
keys, and keys of the other source kind, are rejected outright.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

from . import MAX_CODEWORD_BITS, MAX_GROUP, SYNTH_KINDS
from .signals import (PARAM_NAMES, FileSource, SyntheticSource, TraceSpec,
                      parse_range)

MODES = ("CGWC", "CGLL", "CGLS")  # no compression / lossless / lossy


@dataclass(frozen=True)
class ChannelModel:
    """Per-packet transit delay: base latency plus an optional per-bit term."""

    base_latency_ms: float = 49.0
    per_bit_delay_ms: float = 0.0

    def __post_init__(self):
        if self.base_latency_ms < 0 or self.per_bit_delay_ms < 0:
            raise ValueError("channel delays must be non-negative")

    def transit_ms(self, bit_count: int) -> float:
        return self.base_latency_ms + self.per_bit_delay_ms * bit_count


@dataclass(frozen=True)
class RadioEnergyModel:
    """Whole-device current per radio/CPU state, plus the battery size."""

    tx_ma: float = 24.0
    idle_ma: float = 8.0
    sleep_ma: float = 0.2
    cpu_active_ma: float = 10.0
    wake_latency_ms: float = 0.0
    battery_mah: float = 400.0

    def __post_init__(self):
        currents = (self.tx_ma, self.idle_ma, self.sleep_ma, self.cpu_active_ma)
        if any(c < 0 for c in currents):
            raise ValueError("currents must be non-negative")
        if not self.sleep_ma < self.idle_ma < self.tx_ma:
            raise ValueError("expected sleep_ma < idle_ma < tx_ma")
        if self.wake_latency_ms < 0:
            raise ValueError("wake_latency_ms must be non-negative")
        if self.battery_mah <= 0:
            raise ValueError("battery_mah must be positive")

    def current_ma(self, state: str) -> float:
        try:
            return {
                "tx": self.tx_ma,
                "idle": self.idle_ma,
                "sleep": self.sleep_ma,
                "cpu": self.cpu_active_ma,
            }[state]
        except KeyError:
            raise ValueError(f"unknown energy state {state!r}") from None


@dataclass(frozen=True)
class SleepPolicy:
    """Radio sleeps once a device suppresses this many samples in a row."""

    enabled: bool = False
    suppressions_before_sleep: int = 2

    def __post_init__(self):
        if self.suppressions_before_sleep < 1:
            raise ValueError("suppressions_before_sleep must be at least 1")


@dataclass(frozen=True)
class DeviceConfig:
    """One wearable device in a scenario."""

    name: str
    device_id: int
    mode: str
    trace: TraceSpec
    threshold: int = 0
    cd_ms: float = 1.0
    dd_ms: float = 1.0
    suppress_zero: bool = True
    energy: RadioEnergyModel | None = None  # overrides the scenario model

    def __post_init__(self):
        if not 0 <= self.device_id <= 255:
            raise ValueError(f"device_id {self.device_id} outside [0, 255]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.cd_ms < 0 or self.dd_ms < 0:
            raise ValueError("cd_ms and dd_ms must be non-negative")


@dataclass(frozen=True)
class Scenario:
    """Full simulation input: devices, channel, energy model, sleep policy."""

    duration_s: float
    devices: tuple[DeviceConfig, ...]
    channel: ChannelModel = ChannelModel()
    energy: RadioEnergyModel = RadioEnergyModel()
    sleep: SleepPolicy = SleepPolicy()
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.devices:
            raise ValueError("scenario needs at least one device")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ValueError(f"device ids are not unique: {ids}")
        for dev in self.devices:
            spec = dev.trace
            if spec.duration_s is not None and spec.duration_s != self.duration_s:
                raise ValueError(
                    f"device {dev.name}: trace duration differs from scenario"
                )
            try:
                count = replace(spec, duration_s=self.duration_s).sample_count()
            except ValueError as exc:
                raise ValueError(f"device {dev.name}: {exc}") from None
            if count < 1:
                raise ValueError(f"device {dev.name}: no samples in duration")
            if dev.mode == "CGLL" and dev.threshold != 0:
                raise ValueError(f"device {dev.name}: CGLL requires threshold 0")
            if dev.mode == "CGLS" and dev.threshold < 1:
                raise ValueError(f"device {dev.name}: CGLS requires threshold >= 1")
            if dev.mode != "CGWC" and spec.adc_bits > MAX_GROUP:
                raise ValueError(f"device {dev.name}: codec covers at most "
                                 f"{MAX_GROUP}-bit readings")
            model = dev.energy or self.energy
            coded = dev.mode != "CGWC"
            # The loop's rest after a send, in its order and with the largest
            # terms it can charge: a raw device spends no cpu time, and only
            # a coded device that sleeps wakes. As float subtraction is
            # monotone, no run that passes charges a negative rest.
            transit_ms = self.channel.transit_ms(
                MAX_CODEWORD_BITS if coded else spec.adc_bits)
            cd_ms = dev.cd_ms if coded else 0.0
            wake_ms = (model.wake_latency_ms if coded and self.sleep.enabled
                       else 0.0)
            rest_ms = spec.sample_period_ms - cd_ms - wake_ms - transit_ms
            if rest_ms < 0:
                raise ValueError(
                    f"device {dev.name}: per-sample busy time leaves a rest "
                    f"of {rest_ms!r}ms of the {spec.sample_period_ms}ms "
                    f"sample period"
                )


# Default per-sample processing costs by signal class, ms.
DEFAULT_CD_MS = {"temperature": 1.0, "ecg": 3.0, "ppg": 2.0, "file": 3.0}

_RUN_KEYS = {"duration_s", "seed"}
# Sections that set a model's fields, one key per field.
_MODEL_SECTIONS = {"channel": ChannelModel, "energy": RadioEnergyModel,
                   "sleep": SleepPolicy}
_ENERGY_KEYS = {fld.name for fld in dataclass_fields(RadioEnergyModel)}
_SYNTH_PARAM_KEYS = set().union(*PARAM_NAMES.values())
# The keys only one source kind reads, by the key that selects it.
_SOURCE_KEYS = {"signal": {"seed"} | _SYNTH_PARAM_KEYS,
                "file": {"value_column", "adc_range"}}
_DEVICE_KEYS = {"id", "mode", "threshold", "signal", "file",
                "sample_period_ms", "adc_bits", "cd_ms", "dd_ms",
                "suppress_zero"}.union(*_SOURCE_KEYS.values())

# The SectionProxy getter for each field annotation, and what it reads.
_GETTERS = {
    "float": ("getfloat", "a number"),
    "int": ("getint", "an integer"),
    "bool": ("getboolean", "a boolean"),
}


def _require_keys(section: str, present, allowed: set) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ValueError(
            f"[{section}]: unknown keys {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )


def _get(section, name: str, key: str, kind: str, default=None):
    """The key's value read as `kind`, floats finite; with no default the
    key is required."""
    getter, noun = _GETTERS[kind]
    try:
        value = getattr(section, getter)(key, default)
    except ValueError:
        raise ValueError(f"[{name}] {key}: not {noun}") from None
    if value is None:
        raise ValueError(f"[{name}]: missing required key {key!r}")
    if kind == "float" and not math.isfinite(value):
        raise ValueError(f"[{name}] {key}: not a finite number")
    return value


def _parse_fields(section, name: str, base):
    """A copy of the dataclass base, the section's keys overriding its fields.

    Each key is a field name, read as the field's annotation says.
    """
    values = {fld.name: _get(section, name, fld.name, fld.type,
                             getattr(base, fld.name))
              for fld in dataclass_fields(base)}
    try:
        return replace(base, **values)
    except ValueError as exc:
        raise ValueError(f"[{name}]: {exc}") from None


def parse_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Load and validate a scenario file.

    seed_override replaces the [run] seed before per-device seeds are
    derived from it; devices with an explicit seed keep theirs.
    """
    path = Path(path)
    # Values are literal: interpolation would make any '%' an error.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        with path.open() as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None

    for name in parser.sections():
        if (name not in ("run", *_MODEL_SECTIONS)
                and not name.startswith("device:")):
            raise ValueError(f"unknown section [{name}]")

    if "run" not in parser:
        raise ValueError("missing [run] section")
    run = parser["run"]
    _require_keys("run", run.keys(), _RUN_KEYS)
    duration_s = _get(run, "run", "duration_s", "float")
    seed = _get(run, "run", "seed", "int", 0)
    if seed_override is not None:
        seed = seed_override

    models = {}
    for name, model in _MODEL_SECTIONS.items():
        base = model()
        if name in parser:
            _require_keys(name, parser[name].keys(),
                          {fld.name for fld in dataclass_fields(model)})
            base = _parse_fields(parser[name], name, base)
        models[name] = base

    devices = []
    for name in parser.sections():
        if name.startswith("device:"):
            devices.append(_parse_device(parser[name], name, path.parent,
                                         models["energy"], seed,
                                         len(devices)))
    if not devices:
        raise ValueError("scenario defines no [device:*] sections")

    return Scenario(
        duration_s=duration_s,
        devices=tuple(devices),
        seed=seed,
        **models,
    )


def _parse_device(section, name: str, base_dir: Path,
                  run_energy: RadioEnergyModel, run_seed: int,
                  index: int) -> DeviceConfig:
    _require_keys(name, section.keys(), _DEVICE_KEYS | _ENERGY_KEYS)
    device_id = _get(section, name, "id", "int")
    mode = section.get("mode", "").strip()
    if not mode:
        raise ValueError(f"[{name}]: missing required key 'mode'")
    threshold = _get(section, name, "threshold", "int", DeviceConfig.threshold)
    period = _get(section, name, "sample_period_ms", "int")
    adc_bits = _get(section, name, "adc_bits", "int", TraceSpec.adc_bits)

    signal = section.get("signal", "").strip()
    file_path = section.get("file", "").strip()
    if bool(signal) == bool(file_path):
        raise ValueError(f"[{name}]: set exactly one of 'signal' or 'file'")
    # A key the device's source never reads would be ignored in silence.
    other = "file" if signal else "signal"
    foreign = _SOURCE_KEYS[other] & set(section.keys())
    if foreign:
        raise ValueError(f"[{name}]: {sorted(foreign)} are read only by "
                         f"{other} devices")

    adc_range = None
    if signal:
        if signal not in SYNTH_KINDS:
            raise ValueError(
                f"[{name}] signal: {signal!r} is not one of {SYNTH_KINDS}")
        params = {key: _get(section, name, key, "float")
                  for key in sorted(_SYNTH_PARAM_KEYS & set(section.keys()))}
        seed = _get(section, name, "seed", "int", run_seed * 1000 + index)
        try:
            source = SyntheticSource(kind=signal, seed=seed, params=params)
        except ValueError as exc:
            raise ValueError(f"[{name}]: {exc}") from None
        kind = signal
    else:
        resolved = (base_dir / file_path).resolve() if not Path(
            file_path).is_absolute() else Path(file_path)
        value_column = _get(section, name, "value_column", "int",
                            FileSource.value_column)
        if value_column < 0:
            raise ValueError(f"[{name}] value_column: must be non-negative")
        source = FileSource(path=str(resolved), value_column=value_column)
        if "adc_range" not in section:
            raise ValueError(f"[{name}]: file traces require adc_range")
        try:
            adc_range = parse_range(section.get("adc_range"))
        except ValueError as exc:
            raise ValueError(f"[{name}] adc_range: {exc}") from None
        kind = "file"

    cd_ms = _get(section, name, "cd_ms", "float", DEFAULT_CD_MS[kind])
    dd_ms = _get(section, name, "dd_ms", "float", DeviceConfig.dd_ms)
    suppress_zero = _get(section, name, "suppress_zero", "bool",
                         DeviceConfig.suppress_zero)

    energy = None
    if _ENERGY_KEYS & set(section.keys()):
        energy = _parse_fields(section, name, run_energy)

    try:
        trace = TraceSpec(
            source=source,
            sample_period_ms=period,
            adc_bits=adc_bits,
            adc_range=adc_range,
        )
        return DeviceConfig(
            name=name.split(":", 1)[1],
            device_id=device_id,
            mode=mode,
            trace=trace,
            threshold=threshold,
            cd_ms=cd_ms,
            dd_ms=dd_ms,
            suppress_zero=suppress_zero,
            energy=energy,
        )
    except ValueError as exc:
        raise ValueError(f"[{name}]: {exc}") from None

