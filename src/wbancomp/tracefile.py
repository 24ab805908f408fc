"""Hex-encoded packet trace files.

read_trace accepts exactly what write_trace writes: the MAGIC line, one
`#NAME=N` line per integer field of PacketTrace in field order, then one
row per packet,

    <seq>,<device_id>,<bit_count>,<payload_hex>

with canonical non-negative integers and lowercase hex of whole bytes. Each
line ends at `\\n`: a `\\r`, or a byte that is not UTF-8, which reads as the
text `\\xNN`, is a bad cell of its line. The header carries the per-device
sample count so a decoder can rebuild the full sample cadence, holding the
last value across suppressed samples. Writers that build the rows as text
hand them to write_rows; read_rows checks the header and yields the rows'
cells as columns, a block of lines at a time, each block split by one
search, and read_trace builds a Packet of each row. The integer cell
pattern and the fault locator come from the package, which shares them
with rundir.
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
# One whole valid row, from a line start: groups seq, device_id, and the
# bit_count and payload cells as one text. Compiled when a trace is read.
_ROW = "^({}),({}),((?:{}),(?:{}))\n".format(
    *(pattern for pattern, _ in _COLUMNS.values()))
# The size of the blocks of lines the rows are read in, as rundir reads its
# events file: one search over a whole file holds memory that grows with it.
_BLOCK_HINT = 1 << 16


def write_rows(path: str | Path, trace: PacketTrace, rows: list[str]) -> None:
    """Write a trace's header and then `rows`, its packet rows as text, each
    `seq,device_id,bit_count,payload_hex` and a newline. trace.packets is
    not written."""
    lines = [MAGIC]
    lines.extend(f"#{fld.name}={getattr(trace, fld.name)}" for fld in _HEADER)
    Path(path).write_text("\n".join(lines) + "\n" + "".join(rows),
                          newline="\n")


def write_trace(path: str | Path, trace: PacketTrace) -> None:
    write_rows(path, trace, [
        f"{seq},{packet.device_id},{packet.bit_count},{packet.payload.hex()}\n"
        for seq, packet in trace.packets])


def read_rows(path: str | Path) -> tuple[PacketTrace, Iterator[
        tuple[int, list[int], tuple[str, ...], tuple[str, ...]]]]:
    """A trace file's header, as a PacketTrace with no packets, and an
    iterator over its rows, a block of them at a time.

    Each block is the line number of its first row, then its rows' seqs,
    device_id cells, and bit_count and payload cells as one text, `9,d300`
    say, as they matched. A malformed header raises ValueError at once,
    naming PATH:LINE and the expected header line. The iterator raises one
    naming PATH:LINE and the row's bad cell or cell count, or a seq outside
    [0, #samples), after it has yielded the rows before that one. Lines end
    at `\\n` alone, so a `\\r` is a bad cell of its line, and the file is
    decoded with each byte that is not UTF-8 as the text `\\xNN`, which no
    header line or cell matches.
    """
    blocks = _blocks(Path(path))
    return next(blocks), blocks


def _blocks(path: Path) -> Iterator:
    """read_rows' header, then its blocks. The file stays open, and closes
    when the iterator ends or is dropped."""
    lineno = 1
    with path.open(errors="backslashreplace", newline="\n") as handle:
        try:
            if handle.readline().removesuffix("\n") != MAGIC:
                raise ValueError(
                    f"not a packet trace file: expected {MAGIC!r}")
            header = {}
            for lineno, fld in enumerate(_HEADER, start=2):
                line = handle.readline().removesuffix("\n")
                if not re.fullmatch(f"#{fld.name}=(?:{_INT[0]})", line):
                    raise ValueError(f"expected '#{fld.name}=N', N {_INT[1]}")
                header[fld.name] = int(line[len(fld.name) + 2:])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        samples = header["samples"]
        digits = len(str(samples))
        yield PacketTrace(**header)

        row = re.compile(_ROW, re.MULTILINE)
        lineno = len(_HEADER) + 1
        while lines := handle.readlines(_BLOCK_HINT):
            if not lines[-1].endswith("\n"):
                lines[-1] += "\n"
            rows = row.findall("".join(lines))
            fault = None
            if len(rows) < len(lines):
                # Match again a line at a time, up to the first bad line.
                rows = []
                for line in lines:
                    match = row.match(line)
                    if match is None:
                        fault = _row_fault(_COLUMNS, line[:-1])
                        break
                    rows.append(match.groups())
            texts, device_ids, cells = zip(*rows) if rows else ((), (), ())
            count = len(texts)
            # A seq with more digits than #samples is past it, and may be
            # past what int() converts: the block stops before it.
            if texts and len(max(texts, key=len)) > digits:
                count = next(index for index, text in enumerate(texts)
                             if len(text) > digits)
            seqs = list(map(int, texts[:count]))
            if seqs and max(seqs) >= samples:
                count = next(index for index, seq in enumerate(seqs)
                             if seq >= samples)
                del seqs[count:]
            if count < len(texts):
                fault = f"seq {texts[count]}: outside [0, {samples})"
                device_ids, cells = device_ids[:count], cells[:count]
            first = lineno + 1
            if seqs:
                yield first, seqs, device_ids, cells
            if fault is not None:
                raise ValueError(f"{path}:{first + len(seqs)}: {fault}")
            lineno += len(lines)


def read_trace(path: str | Path) -> PacketTrace:
    """Read a trace file. A malformed one raises ValueError naming PATH:LINE
    and the expected header line, or the row's bad cell or cell count, or
    the Packet check the row fails."""
    from .sink import Packet  # only here: simulate and encode build none

    trace, blocks = read_rows(path)
    for first, seqs, device_ids, cells in blocks:
        for lineno, seq, device_id, row_cells in zip(
                range(first, first + len(seqs)), seqs, device_ids, cells):
            try:
                packet = Packet.from_cells(int(device_id), row_cells)
            except ValueError as exc:
                raise ValueError(f"{Path(path)}:{lineno}: {exc}") from None
            trace.packets.append((seq, packet))
    return trace
