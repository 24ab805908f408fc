"""The run directory: a run's records, and the five files save writes.

runlog_events.csv holds one SampleEvent row per sample, runlog.json the
run's DeviceRuns, packets.trace the packets sent, and metrics.csv and
metrics.json the metrics computed from them. A RunLog holds its events and
its packets as those files' rows, the text the simulator writes: events as
csv.writer would, packets as write_trace would. load reads back the first
two files: it reads the events rows through the package's block reader,
which tracefile shares, checks every cell against its column's pattern and
bound, and folds the rows into the metrics' delay sums. A byte that is not
UTF-8 reads as the text `\\xNN`, which no pattern matches, so it is a bad
cell of its line. The same pattern parses a log's rows back into
SampleEvents, and its packet rows split back into Packets.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

from . import (MAX_ADC_BITS, MAX_CODEWORD_BITS, RESIDUAL_MAX, RESIDUAL_MIN,
               _INT, _int_in, _row_blocks, metrics)


class SampleEvent(NamedTuple):
    """One processed sample, as its runlog_events.csv row, in file order.

    `transmitted` is 0 or 1; `residual` and `arrival_ms` are None (an empty
    cell) for suppressed samples.
    """

    device_id: int
    seq: int
    time_ms: float
    value: int
    transmitted: int
    residual: int | None
    codeword_bits: int
    cd_ms: float
    dtr_ms: float
    dd_ms: float
    arrival_ms: float | None
    reconstructed: int


class DeviceRun(NamedTuple):
    """Per-device outcome summary plus its energy ledger breakdown."""

    name: str
    device_id: int
    mode: str
    threshold: int
    sample_period_ms: int
    signal: str
    battery_mah: float
    samples: int
    transmitted: int
    payload_bits: int
    state_time_ms: dict
    state_charge_mah: dict

    def total_mah(self) -> float:
        # Added with += in state-name order, so the total does not depend on
        # the map's key order or on how the interpreter's sum() adds floats.
        total = 0.0
        for state in sorted(self.state_charge_mah):
            total += self.state_charge_mah[state]
        return total


class DelaySums:
    """One device's event rows folded into counts, payload bits and delay
    sums. The sums cover transmitted rows only and are added with += in the
    device's seq order, so they do not depend on how sum() adds floats."""

    __slots__ = ("rows", "transmitted", "cd_ms", "dd_ms", "ad_ms",
                 "payload_bits")

    def __init__(self, rows: int = 0, transmitted: int = 0,
                 cd_ms: float = 0.0, dd_ms: float = 0.0, ad_ms: float = 0.0,
                 payload_bits: int = 0) -> None:
        self.rows = rows
        self.transmitted = transmitted
        self.cd_ms = cd_ms
        self.dd_ms = dd_ms
        self.ad_ms = ad_ms  # cd + dd + dtr
        self.payload_bits = payload_bits

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DelaySums):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "DelaySums({})".format(", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._values())))

    def add(self, codeword_bits: int, cd_ms: float, dtr_ms: float,
            dd_ms: float) -> None:
        """Fold one transmitted event row into the sums."""
        self.rows += 1
        self.transmitted += 1
        self.payload_bits += codeword_bits
        self.cd_ms += cd_ms
        self.dd_ms += dd_ms
        self.ad_ms += cd_ms + dd_ms + dtr_ms


class RunLog(NamedTuple):
    """Everything a simulation run produced, grouped by device.

    `sums` holds each device's folded rows, by device id in device order,
    `rows` the runlog_events.csv lines below its header, and `packet_rows`
    the packets.trace lines below its header. A log read back from a run
    directory holds no rows and no packets.
    """

    duration_ms: float
    seed: int
    devices: list[DeviceRun]
    sums: dict[int, DelaySums]
    rows: Sequence[str] = ()
    packet_rows: Sequence[str] = ()

    @property
    def events(self) -> list[SampleEvent]:
        """The rows parsed back into SampleEvents, in file order."""
        fullmatch = re.compile(_ROW + "\n").fullmatch
        return [SampleEvent._make(
                    cast(cell) for cast, cell
                    in zip(_EVENT_TYPES, fullmatch(row).groups()))
                for row in self.rows]

    @property
    def packets(self) -> list[tuple[int, int, Packet]]:
        """The packet rows parsed back into (device_id, seq, Packet), in file
        order."""
        from .sink import Packet

        packets = []
        for row in self.packet_rows:
            seq, device_id, cells = row[:-1].split(",", 2)
            packets.append((int(device_id), int(seq),
                            Packet.from_cells(device_id, cells)))
        return packets

    def save(self, rundir: Path) -> None:
        """Write the run directory's five files into the directory rundir."""
        from .tracefile import PacketTrace, write_rows

        devices, run = metrics.compute(self)
        with (rundir / _EVENTS_FILE).open("w", newline="") as handle:
            handle.write(",".join(SampleEvent._fields) + "\n")
            handle.write("".join(self.rows))
        summary = {"duration_ms": self.duration_ms, "seed": self.seed,
                   "devices": [dev._asdict() for dev in self.devices]}
        (rundir / SUMMARY_FILE).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            newline="\n")
        write_rows(rundir / _TRACE_FILE, PacketTrace(
            samples=max(dev.samples for dev in self.devices), adc_bits=0),
            self.packet_rows)
        (rundir / "metrics.csv").write_text(metrics.to_csv(devices),
                                            newline="\n")
        (rundir / "metrics.json").write_text(metrics.to_json(devices, run),
                                             newline="\n")

    @classmethod
    def load(cls, rundir: Path) -> RunLog:
        """Read back runlog.json and runlog_events.csv into a log with no
        rows and no packets. Malformed files raise ValueError naming the
        file and the line or device entry at fault; a file that cannot be
        opened raises the OSError of its open."""
        summary_path = rundir / SUMMARY_FILE
        try:
            summary = json.loads(summary_path.read_text(),
                                 parse_int=_parse_int)
        except ValueError as exc:  # bad JSON or UTF-8
            raise ValueError(f"{summary_path}: {exc}") from None
        _require_keys(summary, {"duration_ms", "seed", "devices"},
                      str(summary_path))
        duration_ms = summary["duration_ms"]
        if not _is_number(duration_ms) or duration_ms <= 0:
            raise ValueError(f"{summary_path}: duration_ms: not a positive "
                             f"number")
        if not _is_int(summary["seed"]):
            raise ValueError(f"{summary_path}: seed: not an integer")
        if not isinstance(summary["devices"], list):
            raise ValueError(f"{summary_path}: devices is not a list")
        devices = []
        sums: dict[int, DelaySums] = {}
        for index, entry in enumerate(summary["devices"]):
            where = f"{summary_path}: device {index}"
            _require_keys(entry, _DEVICE_RUN_CHECKS.keys(), where)
            for key, (check, kind, numbers) in _DEVICE_RUN_CHECKS.items():
                if not check(entry[key]):
                    raise ValueError(f"{where}: {key}: not {kind}")
                if any(number < 0 for number in numbers(entry[key])):
                    raise ValueError(f"{where}: {key}: holds a negative "
                                     f"number")
            device_id = entry["device_id"]
            if device_id in sums:
                raise ValueError(f"{where}: device_id {device_id} repeats "
                                 f"device {list(sums).index(device_id)}")
            sums[device_id] = DelaySums()
            devices.append(DeviceRun(**entry))

        _fold_events(rundir / _EVENTS_FILE, sums, summary_path.name)
        return cls(duration_ms=duration_ms, seed=summary["seed"],
                   devices=devices, sums=sums)


_EVENTS_FILE = "runlog_events.csv"
SUMMARY_FILE = "runlog.json"
_TRACE_FILE = "packets.trace"

# Each events column's pattern and description, in column order. A float is
# repr's fixed form (at most 16 integer digits, no trailing zero past .0) or
# exponent form (exponent at most +308), or -0.0.
_FLOAT = (r"-0\.0|(?:0|[1-9][0-9]{0,15})\.(?:0|[0-9]*[1-9])|[1-9](?:\.[0-9]*"
          r"[1-9])?e(?:-[0-9]{2,3}|\+(?:[0-9]{2}|[12][0-9]{2}|30[0-8]))",
          "a finite non-negative float as repr writes it")
# Readings are ADC codes. Codeword widths cover raw ones of MAX_ADC_BITS.
_READING = _int_in(0, (1 << MAX_ADC_BITS) - 1)
_EVENT_COLUMNS = dict(zip(SampleEvent._fields, (
    _INT, _INT, _FLOAT, _READING, (r"[01]", "0 or 1"),
    _int_in(RESIDUAL_MIN, RESIDUAL_MAX, "a canonical integer, or blank", "|"),
    _int_in(0, MAX_CODEWORD_BITS), _FLOAT, _FLOAT, _FLOAT,
    (_FLOAT[0] + "|", _FLOAT[1] + ", or blank"), _READING)))
# The patterns below are compiled on first use, so commands that read no run
# directory skip them.
_ROW = ",".join(f"({pattern})" for pattern, *_ in _EVENT_COLUMNS.values())
# One whole valid line, grouping only the cells the fold reads.
_FOLD_ROW = "^{}\n".format(",".join(
    f"({pattern})" if name in ("device_id", "seq", "transmitted",
                               "codeword_bits", "cd_ms", "dtr_ms", "dd_ms")
    else f"(?:{pattern})" for name, (pattern, *_) in _EVENT_COLUMNS.items()))
# Each events column's cell as its SampleEvent field, blank as None.
_EVENT_TYPES = (int, int, float, int, int,
                lambda cell: int(cell) if cell else None, int, float, float,
                float, lambda cell: float(cell) if cell else None, int)


def _fold_events(path: Path, sums: dict, summary: str) -> None:
    """Fold the rows of the events file at path into their devices' sums.

    _row_blocks checks each cell against its column, and _overflow the floats
    it cannot, and yields the cells the fold reads; the rows before the first
    fault fold first. Lines end at `\\n` alone and undecodable bytes read as
    `\\xNN`, so a `\\r` or such a byte faults its line like any bad cell.
    """
    # Ids and cells are canonical ints, so each id has one text.
    by_text = {str(device_id): device_sums
               for device_id, device_sums in sums.items()}
    with path.open(errors="backslashreplace", newline="\n") as handle:
        if handle.readline().rstrip("\n") != ",".join(_EVENT_COLUMNS):
            raise ValueError(f"{path}:1: unexpected event columns")
        for first, rows in _row_blocks(
                handle, path, 1, re.compile(_FOLD_ROW, re.MULTILINE),
                _EVENT_COLUMNS, _overflow):
            for lineno, (device_id, seq, transmitted, bits, cd_ms, dtr_ms,
                         dd_ms) in enumerate(rows, first):
                device_sums = by_text.get(device_id)
                if device_sums is None:
                    raise ValueError(f"{path}:{lineno}: device_id "
                                     f"{device_id} is not in {summary}")
                # Devices may interleave; each one's rows keep seq order.
                if seq != str(device_sums.rows):
                    raise ValueError(f"{path}:{lineno}: seq {seq}: expected "
                                     f"{device_sums.rows} for device "
                                     f"{device_id}")
                if transmitted == "0":
                    device_sums.rows += 1
                    continue
                cd_ms, dtr_ms, dd_ms = map(float, (cd_ms, dtr_ms, dd_ms))
                # Finite cells can add up past the float range.
                if not math.isfinite(cd_ms + dd_ms + dtr_ms):
                    raise ValueError(f"{path}:{lineno}: cd_ms + dd_ms + "
                                     f"dtr_ms is not finite")
                device_sums.add(int(bits), cd_ms, dtr_ms, dd_ms)


def _overflow(text: str) -> str | None:
    """The fault of the first float cell past the float range in text, valid
    lines: the float pattern bounds the exponent, not the mantissa."""
    if "e+308" in text:
        for line in text.splitlines():
            for name, cell in zip(_EVENT_COLUMNS, line.split(",")):
                if cell.endswith("e+308") and math.isinf(float(cell)):
                    return f"{name} {cell}: not {_FLOAT[1]}"
    return None


def _parse_int(text: str) -> int | float:
    """A JSON integer: an int, or its float past the interpreter's digit
    limit, where int() raises the limit's advice and names no key. An
    integer field then refuses it, and a number field reads it as any
    number."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # json reads NaN, Infinity and ints past the float range.
    return ((_is_int(value) or isinstance(value, float))
            and abs(value) <= sys.float_info.max)


# What runlog.json may hold for each kind of DeviceRun field, and the numbers
# in it: simulate writes none below 0.
_TYPE_CHECKS = {
    "str": (lambda value: isinstance(value, str), "a string",
            lambda value: ()),
    "int": (_is_int, "an integer", lambda value: (value,)),
    "float": (_is_number, "a number", lambda value: (value,)),
    "dict": (lambda value: (isinstance(value, dict)
                            and all(map(_is_number, value.values()))),
             "an object of numbers", dict.values),
}
# Each DeviceRun field's kind, its annotation, in field order.
_DEVICE_RUN_KINDS = ("str", "int", "str", "int", "int", "str", "float", "int",
                     "int", "int", "dict", "dict")
_DEVICE_RUN_CHECKS = {name: _TYPE_CHECKS[kind] for name, kind
                      in zip(DeviceRun._fields, _DEVICE_RUN_KINDS)}


def _require_keys(doc, keys, where: str) -> None:
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: not a JSON object")
    if doc.keys() != keys:
        raise ValueError(
            f"{where}: expected keys {sorted(keys)}, got {sorted(doc)}")
