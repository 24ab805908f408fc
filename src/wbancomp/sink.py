"""Sink-side decompression: decode packets and rebuild absolute readings.

cells_residual decodes a packet given as its trace cells, `9,d300` say: an
encoder's codeword by one lookup in the inverted encode table, any other
packet by decode_bits, which walks its bits as text. decode and
Sink.on_cells both call it. The sink keeps a reference list mapping each
registered device to its last reconstructed reading (0 before any packet,
so the first packet must carry an absolute value), and adds each packet's
residuals onto it.
"""

from __future__ import annotations

from .codec import cell_residuals, decode_bits


def _check_bits(bit_count: int, payload: bytes) -> None:
    """Packet's check of a bit count and the payload that holds it."""
    if not 0 <= bit_count <= 0xFFFF:
        raise ValueError(f"bit_count {bit_count} outside [0, 65535]")
    if len(payload) != (bit_count + 7) // 8:
        raise ValueError(
            f"payload of {len(payload)} bytes cannot hold exactly "
            f"{bit_count} bits"
        )


def cells_residual(cells: str) -> int:
    """The sum of the residuals in a packet given as its trace cells.

    The payload must hold a whole number of codewords in exactly bit_count
    bits, with its pad bits clear; else this raises ValueError.
    """
    residual = cell_residuals().get(cells)
    if residual is not None:
        return residual
    bit_count, payload = cells.split(",")
    bit_count, payload = int(bit_count), bytes.fromhex(payload)
    _check_bits(bit_count, payload)
    # Encoder payloads all hit the lookup table, so only here can pads be set.
    pad = 8 * len(payload) - bit_count
    word = int.from_bytes(payload, "big")
    if word & ((1 << pad) - 1):
        raise ValueError("pad bits past bit_count are set")
    residuals = decode_bits(word >> pad, bit_count)
    if not residuals:
        raise ValueError("packet carries no codewords")
    return sum(residuals)


class Packet:
    """Unit of transfer between device and sink: a record checked when made,
    equal to another Packet with the same three fields.

    The payload bytes hold exactly bit_count valid bits MSB-first,
    zero-padded to a byte boundary. The id and bit-count ranges bound what
    a packet trace line may carry.
    """

    __slots__ = ("device_id", "bit_count", "payload")

    def __init__(self, device_id: int, bit_count: int, payload: bytes):
        if not 0 <= device_id <= 255:
            raise ValueError(f"device_id {device_id} outside [0, 255]")
        _check_bits(bit_count, payload)
        self.device_id = device_id
        self.bit_count = bit_count
        self.payload = payload

    def _astuple(self) -> tuple[int, int, bytes]:
        return self.device_id, self.bit_count, self.payload

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return f"Packet{self._astuple()!r}"

    @classmethod
    def from_bits(cls, device_id: int, bits: tuple[int, bytes]) -> "Packet":
        return cls(device_id, *bits)

    @classmethod
    def from_cells(cls, device_id: str, cells: str) -> "Packet":
        """The packet of a trace row's device_id cell and its
        `bit_count,payload_hex` cells."""
        bit_count, payload = cells.split(",")
        return cls(int(device_id), int(bit_count), bytes.fromhex(payload))


class Sink:
    """Reference-list holder that turns residual packets back into readings."""

    def __init__(self):
        self._reference: dict[int, int] = {}

    def register_device(self, device_id: int) -> None:
        """Add a device to the reference list with initial reading 0."""
        if device_id in self._reference:
            raise ValueError(f"device {device_id} already registered")
        self._reference[device_id] = 0

    def on_packet(self, packet: Packet) -> int:
        """on_cells of the packet's trace cells."""
        return self.on_cells(packet.device_id,
                             f"{packet.bit_count},{packet.payload.hex()}")

    def on_cells(self, device_id: int, cells: str) -> int:
        """Decode a packet given as its trace row's `bit_count,payload_hex`
        cells, `9,d300` say, and return the device's updated reading.

        The device must be registered, and the payload must hold a whole
        number of codewords in exactly bit_count bits, pad bits clear.
        Failures raise ValueError and leave the reference list untouched.
        """
        if device_id not in self._reference:
            raise ValueError(f"device {device_id} not registered")
        value = self._reference[device_id] + cells_residual(cells)
        self._reference[device_id] = value
        return value

    def held_value(self, device_id: int) -> int:
        """Current reconstruction for a device; what suppressed samples hold at."""
        if device_id not in self._reference:
            raise ValueError(f"device {device_id} not registered")
        return self._reference[device_id]
