"""Scenario files: sectioned key-value text parsed into a Scenario.

Layout:

    [run]            duration_s, seed
    [channel]        the fields of netmodel.ChannelModel
    [energy]         the fields of netmodel.RadioEnergyModel
    [sleep]          the fields of netmodel.SleepPolicy
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
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

from . import SYNTH_KINDS
from .netmodel import (ChannelModel, DeviceConfig, RadioEnergyModel, Scenario,
                       SleepPolicy)
from .signals import (PARAM_NAMES, FileSource, SyntheticSource, TraceSpec,
                      parse_range)

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

