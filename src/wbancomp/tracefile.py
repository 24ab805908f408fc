"""The package's row files: hex-encoded packet traces, and the CSV column
that encode and file traces read.

read_trace accepts exactly what write_trace writes: the MAGIC line, one
`#NAME=N` line per name in _HEADER, in that order, then one row per
packet,

    <seq>,<device_id>,<bit_count>,<payload_hex>

with canonical integers, a device id in [0, 255] and a bit count in
[0, 65535], and lowercase hex of whole bytes. Each line ends at `\\n`: a
`\\r`, or a byte that is not UTF-8, which reads as the text `\\xNN`, is a
bad cell of its line. The header carries the per-device sample count so a
decoder can rebuild the full sample cadence, holding the last value across
suppressed samples. Writers that build the rows as text hand them to
write_rows; read_rows checks the header and reads the rows through the
package's block reader, which rundir shares, and read_trace builds a
Packet of each row. PacketTrace is a plain class, so that encode and
decode load no dataclasses.

read_column yields one column of a CSV file in blocks. encode reads its
readings with it, and signals reads file traces with it.
"""

from __future__ import annotations

import io
import re
import sys
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from . import _INT, _int_in, _row_blocks

if TYPE_CHECKING:
    from .sink import Packet

MAGIC = "#packet-trace v1"


class PacketTrace:
    """Packets plus the metadata needed to replay them at sample cadence,
    equal to another PacketTrace with the same five fields. packets holds
    (seq, Packet) pairs, a new list when None is given."""

    def __init__(self, samples: int, threshold: int = 0, adc_bits: int = 10,
                 sample_period_ms: int = 0,
                 packets: list[tuple[int, Packet]] | None = None):
        self.samples = samples
        self.threshold = threshold
        self.adc_bits = adc_bits
        self.sample_period_ms = sample_period_ms
        self.packets = [] if packets is None else packets

    def _astuple(self) -> tuple:
        return (*(getattr(self, name) for name in _HEADER), self.packets)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return f"PacketTrace{self._astuple()!r}"


# The `#name=value` header lines, one per integer field, in file order.
_HEADER = ("samples", "threshold", "adc_bits", "sample_period_ms")

_COLUMNS = {"seq": _INT, "device_id": _int_in(0, 255),
            "bit_count": _int_in(0, 0xFFFF),
            "payload": (r"(?:[0-9a-f]{2})*", "lowercase hex of whole bytes")}
# One whole valid row, from a line start: groups seq, device_id, and the
# bit_count and payload cells as one text. Compiled when a trace is read.
_ROW = "^({}),({}),((?:{}),(?:{}))\n".format(
    *(pattern for pattern, *_ in _COLUMNS.values()))


def write_rows(path: str | Path, trace: PacketTrace, rows: list[str]) -> None:
    """Write a trace's header and then `rows`, its packet rows as text, each
    `seq,device_id,bit_count,payload_hex` and a newline. trace.packets is
    not written."""
    lines = [MAGIC]
    lines.extend(f"#{name}={getattr(trace, name)}" for name in _HEADER)
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
    say. A malformed header, or a value of more digits than sys.maxsize,
    raises ValueError at once, naming PATH:LINE and the header. The
    iterator raises one naming PATH:LINE and the row's bad cell or cell
    count, or a seq outside [0, #samples), after it has yielded the rows
    before that one.
    """
    blocks = _blocks(Path(path))
    return next(blocks), blocks


def _blocks(path: Path) -> Iterator:
    """read_rows' header, then its blocks. The file stays open, and closes
    when the iterator ends or is dropped."""
    with path.open(errors="backslashreplace", newline="\n") as handle:
        if handle.readline().removesuffix("\n") != MAGIC:
            raise ValueError(
                f"{path}:1: not a packet trace file: expected {MAGIC!r}")
        header = {}
        for lineno, name in enumerate(_HEADER, start=2):
            line = handle.readline().removesuffix("\n")
            if not re.fullmatch(f"#{name}=(?:{_INT[0]})", line):
                raise ValueError(
                    f"{path}:{lineno}: expected '#{name}=N', N {_INT[1]}")
            # encode writes none longer; int() takes 4,300 digits.
            if len(line) - len(name) - 2 > len(str(sys.maxsize)):
                raise ValueError(
                    f"{path}:{lineno}: #{name}: more digits than sys.maxsize")
            header[name] = int(line[len(name) + 2:])
        samples = header["samples"]
        digits = len(str(samples))
        yield PacketTrace(**header)

        row = re.compile(_ROW, re.MULTILINE)
        for first, rows in _row_blocks(handle, path, lineno, row, _COLUMNS):
            texts, device_ids, cells = zip(*rows)
            count = len(texts)
            # A seq with more digits than #samples is past it, and may be
            # past what int() converts: the block stops before it.
            if len(max(texts, key=len)) > digits:
                count = [len(text) > digits for text in texts].index(True)
            seqs = list(map(int, texts[:count]))
            if seqs and max(seqs) >= samples:
                count = [seq >= samples for seq in seqs].index(True)
                del seqs[count:]
            if seqs:
                yield first, seqs, device_ids[:count], cells[:count]
            if count < len(texts):
                raise ValueError(f"{path}:{first + count}: seq "
                                 f"{texts[count]}: outside [0, {samples})")


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
                packet = Packet.from_cells(device_id, row_cells)
            except ValueError as exc:
                raise ValueError(f"{Path(path)}:{lineno}: {exc}") from None
            trace.packets.append((seq, packet))
    return trace


def read_column(path: Path, column: int, parse: Callable[[str], float]
                ) -> Iterator[tuple[Sequence[int], list]]:
    """Yield blocks (line numbers, values) of one column of a CSV file:
    values[i] is parse of the cell on line numbers[i].

    Blank rows are skipped. A first row whose cell `parse` rejects is taken
    as a header, so one function decides both what is a header and what is a
    value. A UTF-8 byte-order mark at the start is not part of the first
    cell. Errors name the file and line; the readings before the first
    fault are yielded before it is raised.

    The file is read once. Text that csv.reader splits exactly at `\\n` and
    `,` (no `"`, `\\r` or NUL, and no line longer than the csv field size
    limit) is parsed a column at a time and yielded as one block. Any other
    text, and any text with a fault, is read again from its start by
    csv.reader, a row at a time, which names the first fault.
    """
    import csv  # only here and in _csv_rows: decode reads no CSV

    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    rows = text.split("\n")
    if not rows[-1]:
        rows.pop()
    if (rows and not any(char in text for char in '"\r\0')
            and max(map(len, rows)) <= csv.field_size_limit()):
        try:
            cells = (rows if column == 0 and "," not in text else
                     [row.split(",", column + 1)[column] for row in rows])
            try:
                parse(cells[0])
                first = 1
            except ValueError:
                # A header, or a blank row, which is skipped to the same
                # effect when every row after it parses.
                first = 2
            values = list(map(parse, cells[first - 1:]))
        except (ValueError, IndexError):
            values = []
        if values:
            yield range(first, first + len(values)), values
            return
    yield from _csv_rows(path, text, column, parse)


def _csv_rows(path: Path, text: str, column: int,
              parse: Callable[[str], float]
              ) -> Iterator[tuple[list[int], list]]:
    """read_column's rule, a csv.reader row at a time."""
    import csv

    header = False
    numbers, values = [], []
    fault = None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            try:
                value = parse(row[column])
            except (ValueError, IndexError):
                # No blank cell parses, so blank rows land here too.
                if not any(cell.strip() for cell in row):
                    continue
                if header or values:
                    fault = (f"non-numeric or missing value in column "
                             f"{column}")
                    break
                header = True
                continue
            numbers.append(reader.line_num)
            values.append(value)
    except csv.Error as exc:
        fault = str(exc)
    if values:
        yield numbers, values
    if fault is not None:
        raise ValueError(f"{path}:{reader.line_num}: {fault}")
    if not values:
        raise ValueError(f"{path}: header but no readings" if header
                         else f"{path}: empty, no readings")
