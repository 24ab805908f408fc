"""Scenario files: sectioned key-value text parsed into a Scenario.

Layout:

    [run]            duration_s, seed
    [channel]        base_latency_ms, per_bit_delay_ms
    [energy]         tx_ma, rx_ma, idle_ma, sleep_ma, cpu_active_ma,
                     wake_latency_ms, battery_mah
    [sleep]          enabled, suppressions_before_sleep
    [device:NAME]    id, mode, threshold, sample_period_ms, adc_bits,
                     one of signal=<temperature|ecg|ppg> or file=<path>,
                     and optional per-device tuning (cd_ms, dd_ms, seed,
                     synth params, value_column, adc_range, energy overrides)

File paths are resolved relative to the config file. Unknown sections or
keys are rejected outright.
"""

from __future__ import annotations

import configparser
from dataclasses import fields as dataclass_fields
from pathlib import Path

from .netmodel import (ChannelModel, DeviceConfig, RadioEnergyModel, Scenario,
                       SleepPolicy)
from .signals import (PARAM_NAMES, SYNTH_KINDS, FileSource, SyntheticSource,
                      TraceSpec)

# Default per-sample processing costs by signal class, ms.
DEFAULT_CD_MS = {"temperature": 1.0, "ecg": 3.0, "ppg": 2.0, "file": 3.0}
DEFAULT_DD_MS = 1.0

_RUN_KEYS = {"duration_s", "seed"}
_CHANNEL_KEYS = {"base_latency_ms", "per_bit_delay_ms"}
_ENERGY_KEYS = {"tx_ma", "rx_ma", "idle_ma", "sleep_ma", "cpu_active_ma",
                "wake_latency_ms", "battery_mah"}
_SLEEP_KEYS = {"enabled", "suppressions_before_sleep"}
_SYNTH_PARAM_KEYS = set().union(*PARAM_NAMES.values())
_DEVICE_KEYS = {"id", "mode", "threshold", "signal", "file", "value_column",
                "sample_period_ms", "adc_bits", "adc_range", "cd_ms", "dd_ms",
                "seed", "suppress_zero"} | _SYNTH_PARAM_KEYS


class ConfigError(Exception):
    """A scenario file failed to parse or validate."""


def _require_keys(section: str, present, allowed: set) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(
            f"[{section}]: unknown keys {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )


def _get_float(section, name: str, key: str, default: float) -> float:
    try:
        return section.getfloat(key, default)
    except ValueError:
        raise ConfigError(f"[{name}] {key}: not a number") from None


def _get_int(section, name: str, key: str, default: int | None = None) -> int:
    try:
        value = section.getint(key, default)
    except ValueError:
        raise ConfigError(f"[{name}] {key}: not an integer") from None
    if value is None:
        raise ConfigError(f"[{name}]: missing required key {key!r}")
    return value


def _get_bool(section, name: str, key: str, default: bool) -> bool:
    try:
        return section.getboolean(key, default)
    except ValueError:
        raise ConfigError(f"[{name}] {key}: not a boolean") from None


def parse_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Load and validate a scenario file.

    seed_override replaces the [run] seed before per-device seeds are
    derived from it; devices with an explicit seed keep theirs.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"scenario file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with path.open() as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    known_sections = {"run", "channel", "energy", "sleep"}
    for name in parser.sections():
        if name not in known_sections and not name.startswith("device:"):
            raise ConfigError(f"unknown section [{name}]")

    if "run" not in parser:
        raise ConfigError("missing [run] section")
    run = parser["run"]
    _require_keys("run", run.keys(), _RUN_KEYS)
    try:
        duration_s = float(run.get("duration_s", ""))
    except ValueError:
        raise ConfigError("[run] duration_s: missing or not a number") from None
    seed = _get_int(run, "run", "seed", 0)
    if seed_override is not None:
        seed = seed_override

    channel = ChannelModel()
    if "channel" in parser:
        sec = parser["channel"]
        _require_keys("channel", sec.keys(), _CHANNEL_KEYS)
        try:
            channel = ChannelModel(
                base_latency_ms=_get_float(sec, "channel", "base_latency_ms",
                                           channel.base_latency_ms),
                per_bit_delay_ms=_get_float(sec, "channel", "per_bit_delay_ms",
                                            channel.per_bit_delay_ms),
            )
        except ValueError as exc:
            raise ConfigError(f"[channel]: {exc}") from None

    energy = RadioEnergyModel()
    if "energy" in parser:
        sec = parser["energy"]
        _require_keys("energy", sec.keys(), _ENERGY_KEYS)
        energy = _parse_energy(sec, "energy", energy)

    sleep = SleepPolicy()
    if "sleep" in parser:
        sec = parser["sleep"]
        _require_keys("sleep", sec.keys(), _SLEEP_KEYS)
        try:
            sleep = SleepPolicy(
                enabled=_get_bool(sec, "sleep", "enabled", False),
                suppressions_before_sleep=_get_int(
                    sec, "sleep", "suppressions_before_sleep", 2),
            )
        except ValueError as exc:
            raise ConfigError(f"[sleep]: {exc}") from None

    devices = []
    for name in parser.sections():
        if name.startswith("device:"):
            devices.append(_parse_device(parser[name], name, path.parent,
                                         energy, seed, len(devices)))
    if not devices:
        raise ConfigError("scenario defines no [device:*] sections")

    scenario = Scenario(
        duration_s=duration_s,
        devices=tuple(devices),
        channel=channel,
        energy=energy,
        sleep=sleep,
        seed=seed,
    )
    try:
        scenario.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scenario


def _parse_energy(section, name: str, base: RadioEnergyModel) -> RadioEnergyModel:
    """The energy model with the section's keys overriding those of base."""
    values = {}
    for fld in dataclass_fields(RadioEnergyModel):
        values[fld.name] = _get_float(section, name, fld.name,
                                      getattr(base, fld.name))
    try:
        return RadioEnergyModel(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from None


def _parse_device(section, name: str, base_dir: Path,
                  run_energy: RadioEnergyModel, run_seed: int,
                  index: int) -> DeviceConfig:
    _require_keys(name, section.keys(), _DEVICE_KEYS | _ENERGY_KEYS)
    device_id = _get_int(section, name, "id")
    mode = section.get("mode", "").strip()
    if not mode:
        raise ConfigError(f"[{name}]: missing required key 'mode'")
    threshold = _get_int(section, name, "threshold", 0)
    period = _get_int(section, name, "sample_period_ms")
    adc_bits = _get_int(section, name, "adc_bits", 10)

    signal = section.get("signal", "").strip()
    file_path = section.get("file", "").strip()
    if bool(signal) == bool(file_path):
        raise ConfigError(f"[{name}]: set exactly one of 'signal' or 'file'")

    adc_range = None
    if "adc_range" in section:
        parts = section.get("adc_range").split(",")
        if len(parts) != 2:
            raise ConfigError(f"[{name}] adc_range: expected 'min,max'")
        try:
            adc_range = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise ConfigError(f"[{name}] adc_range: not numeric") from None

    if signal:
        if signal not in SYNTH_KINDS:
            raise ConfigError(
                f"[{name}] signal: {signal!r} is not one of {SYNTH_KINDS}")
        given = _SYNTH_PARAM_KEYS & set(section.keys())
        foreign = given - PARAM_NAMES[signal]
        if foreign:
            raise ConfigError(
                f"[{name}]: {sorted(foreign)} are not {signal} parameters "
                f"(allowed: {sorted(PARAM_NAMES[signal])})")
        params = {}
        for key in given:
            params[key] = _get_float(section, name, key, 0.0)
        seed = _get_int(section, name, "seed", run_seed * 1000 + index)
        try:
            source = SyntheticSource(kind=signal, seed=seed, params=params)
        except ValueError as exc:
            raise ConfigError(f"[{name}]: {exc}") from None
        kind = signal
    else:
        resolved = (base_dir / file_path).resolve() if not Path(
            file_path).is_absolute() else Path(file_path)
        source = FileSource(path=str(resolved),
                            value_column=_get_int(section, name,
                                                  "value_column", 0))
        if adc_range is None:
            raise ConfigError(f"[{name}]: file traces require adc_range")
        kind = "file"

    cd_ms = _get_float(section, name, "cd_ms", DEFAULT_CD_MS[kind])
    dd_ms = _get_float(section, name, "dd_ms", DEFAULT_DD_MS)
    suppress_zero = _get_bool(section, name, "suppress_zero", True)

    energy = None
    if _ENERGY_KEYS & set(section.keys()):
        energy = _parse_energy(section, name, run_energy)

    try:
        trace = TraceSpec(
            source=source,
            sample_period_ms=period,
            duration_s=None,
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
        raise ConfigError(f"[{name}]: {exc}") from None

