"""The codec one codeword at a time: encode_residual, and decode_residual
from a BitReader over a payload's bits.

Both work on codec's (bit_count, payload) pairs. No command runs them.
"""

from __future__ import annotations

from .codec import _next_codeword, codeword_bytes


class BitReader:
    """A read position in a payload's first bit_count bits, MSB first, kept
    as their '0'/'1' text."""

    def __init__(self, payload: bytes, bit_count: int):
        if not 0 <= bit_count <= 8 * len(payload):
            raise ValueError(f"bit_count {bit_count} exceeds {len(payload)} bytes")
        bits = f"{int.from_bytes(payload, 'big'):0{8 * len(payload)}b}"
        self._bits = bits[:bit_count]
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos


def encode_residual(residual: int) -> tuple[int, bytes]:
    """(bit_count, payload) of the residual's codeword."""
    return codeword_bytes(residual)


def decode_residual(reader: BitReader) -> int:
    """Consume exactly one codeword from the reader and return its residual.

    Raises decode_bits' errors for the codeword at the read position.
    """
    residual, reader._pos = _next_codeword(reader._bits, reader._pos)
    return residual
