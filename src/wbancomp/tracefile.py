"""Hex-encoded packet trace files.

Line format, after `#`-prefixed metadata headers:

    <sample_index>,<device_id>,<bit_count>,<payload_hex>

The metadata carries the per-device sample count so a decoder can rebuild
the full sample cadence, holding the last value across suppressed samples.
Its keys are PacketTrace's integer fields, and no value may be negative;
`#` lines without `=` are comments.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

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
_HEADER_KEYS = {fld.name for fld in _HEADER}


def write_trace(path: str | Path, trace: PacketTrace) -> None:
    lines = [MAGIC]
    lines.extend(f"#{fld.name}={getattr(trace, fld.name)}" for fld in _HEADER)
    for seq, packet in trace.packets:
        lines.append(
            f"{seq},{packet.device_id},{packet.bit_count},{packet.payload.hex()}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def _read_meta_line(line: str, meta: dict[str, str] | None, where: str) -> None:
    """Read one `#` line: `#key=value` sets a header key in meta, and a line
    without `=` is a comment. meta is None past the header, where a header
    key is an error and any other key makes a comment.
    """
    key, eq, value = line[1:].partition("=")
    key = key.strip()
    if eq and meta is not None:
        if key not in _HEADER_KEYS:
            raise ValueError(f"{where}: bad trace metadata (unknown key {key!r})")
        meta[key] = value.strip()
    elif eq and key in _HEADER_KEYS:
        raise ValueError(f"{where}: header key {key!r} outside the header")


def read_trace(path: str | Path) -> PacketTrace:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not lines or lines[0].strip() != MAGIC:
        raise ValueError(f"{path}: not a packet trace file")
    meta = {}
    body_start = 1
    while body_start < len(lines) and lines[body_start].startswith("#"):
        _read_meta_line(lines[body_start], meta, str(path))
        body_start += 1
    try:
        header = {fld.name: int(meta[fld.name] if fld.default is MISSING
                                else meta.get(fld.name, fld.default))
                  for fld in _HEADER}
        for key, value in header.items():
            if value < 0:
                raise ValueError(f"{key} {value} is negative")
        trace = PacketTrace(**header)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: bad trace metadata ({exc})") from None

    samples = trace.samples
    packets = trace.packets
    for index, line in enumerate(lines[body_start:]):
        parts = line.split(",")
        # Blank and comment lines are told apart only off the common path.
        if len(parts) != 4 or line[0] == "#":
            if not line.strip():
                continue
            if line.startswith("#"):
                _read_meta_line(line, None, f"{path}: packet {index}")
                continue
            raise ValueError(f"{path}: packet {index}: expected 4 fields")
        try:
            seq = int(parts[0])
            packet = Packet(int(parts[1]), int(parts[2]), bytes.fromhex(parts[3]))
        except ValueError as exc:
            if len("".join(parts[3].split())) % 2:  # fromhex skips spaces
                exc = "payload hex has an odd number of digits"
            raise ValueError(f"{path}: packet {index}: {exc}") from None
        if not 0 <= seq < samples:
            raise ValueError(
                f"{path}: packet {index}: sample index {seq} outside "
                f"[0, {samples})"
            )
        packets.append((seq, packet))
    return trace
