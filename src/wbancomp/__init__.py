"""Threshold-delta compression of body-sensor streams with a prefix-free
residual codec, plus a deterministic sensor-to-sink pipeline simulator with
latency and energy accounting.

The package imports no module of its own until one of its names is read.
"""

import importlib
import re

__version__ = "0.1.0"

# Limits shared by the modules that check them, kept here so that building
# the command-line parser, checking an events file or parsing a scenario
# loads none of those modules: the codec carries residuals of groups 0 to
# 11, and its longest codeword is group 11's 9-bit prefix and 11-bit suffix.
SYNTH_KINDS = ("temperature", "ecg", "ppg")
MAX_ADC_BITS = 16
MAX_GROUP = 11
RESIDUAL_MIN = -2047
RESIDUAL_MAX = 2047
MAX_CODEWORD_BITS = 20

# The row reading that tracefile and rundir share, kept here so that reading
# a run directory loads no module of the packet stack. A column is a cell
# pattern and its description; _INT's cells are how str() writes ints >= 0.
_INT = (r"0|[1-9][0-9]*", "a canonical non-negative integer")


def _int_in(low: int, high: int, kind: str = _INT[1], more: str = ""):
    """The column of the canonical integers in [low, high], low 0 or -high,
    and of the pattern more, with the bounds appended for _row_fault."""
    top = str(high)
    # [1, high]: fewer digits than high, or a prefix of it then less.
    alts = [f"[1-9][0-9]{{0,{len(top) - 2}}}"] * (high > 9) + [top]
    for at, digit in enumerate(top):
        if digit > (least := "0" if at else "1"):
            alts.append(f"{top[:at]}[{least}-{int(digit) - 1}]"
                        f"[0-9]{{{len(top) - at - 1}}}")
    return f"0|{'-?' if low else ''}(?:{'|'.join(alts)}){more}", kind, low, high


def _row_fault(columns: dict, text: str) -> str:
    """The first cell of a line that fails its column, or else the line's
    cell count. columns maps each name to its column."""
    cells = text.split(",") if text else []
    if len(cells) == len(columns):
        for (name, (pattern, kind, *bounds)), cell in zip(columns.items(),
                                                          cells):
            if not re.fullmatch(pattern, cell):
                if bounds and re.fullmatch(r"0|-?[1-9][0-9]*", cell):
                    return f"{name} {cell} outside [{bounds[0]}, {bounds[1]}]"
                return f"{name} {cell}: not {kind}"
    return f"{len(cells)} cells, expected {len(columns)}"


# The size of the blocks of lines that row files are read in: one search
# over a whole file holds memory that grows with the file.
_BLOCK_HINT = 1 << 16


def _row_blocks(handle, path, lineno: int, row: re.Pattern, columns: dict,
                check=None):
    """Yield the rows of the open file handle past its line lineno as blocks
    (first row's line number, each row's groups), then raise the first bad
    line's fault as `PATH:LINE: fault`.

    A block is one readlines(_BLOCK_HINT), split by one findall of the
    multiline pattern row. One with fewer rows than lines, or with a fault
    by check, which takes valid lines and names the first fault or None, is
    matched again a line at a time up to the first line row misses, which
    _row_fault names, or that check faults.
    """
    while lines := handle.readlines(_BLOCK_HINT):
        lines[-1] = lines[-1].removesuffix("\n") + "\n"
        block = "".join(lines)
        rows, fault = row.findall(block), None
        if len(rows) < len(lines) or check and check(block):
            rows = []
            for line in lines:
                match = row.match(line)
                fault = (check and check(line) if match
                         else _row_fault(columns, line[:-1]))
                if fault:
                    break
                rows.append(match.groups())
        if rows:
            yield lineno + 1, rows
        if fault:
            raise ValueError(f"{path}:{lineno + 1 + len(rows)}: {fault}")
        lineno += len(lines)


# Each public name, by the module that defines it.
_HOMES = {
    "bitstream": ("BitReader", "decode_residual", "encode_residual"),
    "codec": ("encode_prefix", "group_of"),
    "config": ("ChannelModel", "DeviceConfig", "RadioEnergyModel", "Scenario",
               "SleepPolicy"),
    "control": ("DeviceState",),
    "metrics": ("lifetime",),
    "netmodel": ("EnergyLedger", "simulate"),
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
