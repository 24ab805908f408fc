"""Threshold-delta compression of body-sensor streams with a prefix-free
residual codec, plus a deterministic sensor-to-sink pipeline simulator with
latency and energy accounting.

The package imports no module of its own until one of its names is read.
"""

import importlib
import re

__version__ = "0.1.0"

# Limits that the command-line parser shares with the modules that check
# them, kept here so that building the parser loads none of those modules.
SYNTH_KINDS = ("temperature", "ecg", "ppg")
MAX_ADC_BITS = 16

# The cell checks that tracefile and rundir share, kept here so that reading
# a run directory loads no module of the packet stack. _INT is a cell
# pattern and its description, as str() writes a non-negative int.
_INT = (r"0|[1-9][0-9]*", "a canonical non-negative integer")


def _row_fault(columns: dict, text: str) -> str:
    """The first cell of a line that fails its column's pattern, or else the
    line's cell count. columns maps each name to (pattern, description)."""
    cells = text.split(",") if text else []
    if len(cells) == len(columns):
        for (name, (pattern, kind)), cell in zip(columns.items(), cells):
            if not re.fullmatch(pattern, cell):
                return f"{name} {cell}: not {kind}"
    return f"{len(cells)} cells, expected {len(columns)}"


# Each public name, by the module that defines it.
_HOMES = {
    "bitstream": ("BitReader", "decode_residual", "encode_residual"),
    "codec": ("encode_prefix", "group_of"),
    "control": ("DeviceState",),
    "metrics": ("lifetime",),
    "netmodel": ("ChannelModel", "DeviceConfig", "EnergyLedger",
                 "RadioEnergyModel", "Scenario", "SleepPolicy", "simulate"),
    "rundir": ("RunLog",),
    "signals": ("FileSource", "Sample", "SyntheticSource", "TraceSpec",
                "quantize", "synth", "trace_samples"),
    "sink": ("Packet", "Sink"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name):
    """Import a public name from its module on first access (PEP 562)."""
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
