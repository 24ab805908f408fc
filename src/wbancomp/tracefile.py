"""Hex-encoded packet trace files.

read_trace accepts exactly what write_trace writes: the MAGIC line, one
`#NAME=N` line per integer field of PacketTrace in field order, then one
row per packet,

    <seq>,<device_id>,<bit_count>,<payload_hex>

with canonical non-negative integers and lowercase hex of whole bytes; a
byte that is not UTF-8 reads as the text `\\xNN`, a bad cell of its line. The
header carries the per-device sample count so a decoder can rebuild the full
sample cadence, holding the last value across suppressed samples. Writers
that build the rows as text hand them to write_rows; read_rows checks the
header and yields each row's cells, and read_trace builds a Packet of each.
The integer cell pattern and the fault locator come from the package,
which shares them with rundir.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import _INT, _row_fault

if TYPE_CHECKING:
    from .sink import Packet

MAGIC = "#packet-trace v1"


@dataclass
class PacketTrace:
    """Packets plus the metadata needed to replay them at sample cadence."""

    samples: int
    threshold: int = 0
    adc_bits: int = 10
    sample_period_ms: int = 0
    packets: list[tuple[int, Packet]] = field(default_factory=list)  # (seq, pkt)


# The `#key=value` header lines, one per integer field, in file order.
_HEADER = [fld for fld in fields(PacketTrace) if fld.name != "packets"]

_COLUMNS = {"seq": _INT, "device_id": _INT, "bit_count": _INT,
            "payload": (r"(?:[0-9a-f]{2})*", "lowercase hex of whole bytes")}
# Groups seq, device_id, and the bit_count and payload cells as one text.
_match_row = re.compile("({}),({}),((?:{}),(?:{}))".format(
    *(pattern for pattern, _ in _COLUMNS.values()))).fullmatch


def write_rows(path: str | Path, trace: PacketTrace, rows: list[str]) -> None:
    """Write a trace's header and then `rows`, its packet rows as text, each
    `seq,device_id,bit_count,payload_hex` and a newline. trace.packets is
    not written."""
    lines = [MAGIC]
    lines.extend(f"#{fld.name}={getattr(trace, fld.name)}" for fld in _HEADER)
    Path(path).write_text("\n".join(lines) + "\n" + "".join(rows))


def write_trace(path: str | Path, trace: PacketTrace) -> None:
    write_rows(path, trace, [
        f"{seq},{packet.device_id},{packet.bit_count},{packet.payload.hex()}\n"
        for seq, packet in trace.packets])


def read_rows(path: str | Path
              ) -> tuple[PacketTrace, Iterator[tuple[int, int, str, str]]]:
    """A trace file's header, as a PacketTrace with no packets, and an
    iterator over its rows.

    The iterator yields each row's line number, its seq, its device_id cell,
    and its bit_count and payload cells as one text, `9,d300` say, as they
    matched. A malformed header raises ValueError at once, naming PATH:LINE
    and the expected header line; the iterator raises one naming PATH:LINE
    and the row's bad cell or cell count, or a seq outside [0, #samples),
    when it reaches that row. The file is decoded with each byte that is not
    UTF-8 as the text `\\xNN`, which no header line or cell matches.
    """
    path = Path(path)
    text = path.read_text(errors="backslashreplace")
    if not text.endswith("\n"):
        text += "\n"
    lines = text.split("\n")
    lineno = 1
    try:
        if lines[0] != MAGIC:
            raise ValueError(f"not a packet trace file: expected {MAGIC!r}")
        header = {}
        # A short file's first missing line is the last, empty piece.
        for lineno, fld in enumerate(_HEADER, start=2):
            line = lines[lineno - 1]
            if not re.fullmatch(f"#{fld.name}=(?:{_INT[0]})", line):
                raise ValueError(f"expected '#{fld.name}=N', N {_INT[1]}")
            header[fld.name] = int(line[len(fld.name) + 2:])
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    trace = PacketTrace(**header)
    return trace, _rows(path, lines, lineno, trace.samples)


def _rows(path: Path, lines: list[str], header_end: int, samples: int
          ) -> Iterator[tuple[int, int, str, str]]:
    for lineno, line in enumerate(lines[header_end:-1], start=header_end + 1):
        match = _match_row(line)
        if match is None:
            raise ValueError(f"{path}:{lineno}: {_row_fault(_COLUMNS, line)}")
        seq, device_id, cells = match.groups()
        seq = int(seq)
        if seq >= samples:
            raise ValueError(
                f"{path}:{lineno}: seq {seq}: outside [0, {samples})")
        yield lineno, seq, device_id, cells


def read_trace(path: str | Path) -> PacketTrace:
    """Read a trace file. A malformed one raises ValueError naming PATH:LINE
    and the expected header line, or the row's bad cell or cell count, or
    the Packet check the row fails."""
    from .sink import Packet  # only here: simulate and encode build none

    trace, rows = read_rows(path)
    for lineno, seq, device_id, cells in rows:
        try:
            packet = Packet.from_cells(int(device_id), cells)
        except ValueError as exc:
            raise ValueError(f"{Path(path)}:{lineno}: {exc}") from None
        trace.packets.append((seq, packet))
    return trace
