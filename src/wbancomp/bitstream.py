"""The codec one codeword at a time: encode_residual, and decode_residual
from a BitReader over a payload's bits.

Both work on codec's (bit_count, payload) pairs. No command runs them.
"""

from __future__ import annotations

from .codec import MAX_CODEWORD_BITS, _next_codeword, codeword_bytes


class BitReader:
    """A read position in a payload's first bit_count bits, MSB first."""

    def __init__(self, payload: bytes, bit_count: int):
        self._data = bytes(payload)
        if not 0 <= bit_count <= 8 * len(self._data):
            raise ValueError(f"bit_count {bit_count} exceeds {len(self._data)} bytes")
        self._bits = bit_count
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._bits - self._pos


def encode_residual(residual: int) -> tuple[int, bytes]:
    """(bit_count, payload) of the residual's codeword."""
    return codeword_bytes(residual)


def decode_residual(reader: BitReader) -> int:
    """Consume exactly one codeword from the reader and return its residual.

    Raises decode_bits' errors for the codeword at the read position.
    """
    pos = reader._pos
    # A conditional, not min(): this runs once per codeword.
    take = reader._bits - pos
    if take > MAX_CODEWORD_BITS:
        take = MAX_CODEWORD_BITS
    # The bytes holding bits [pos, end): at most 20 bits, so O(1). Bits of
    # the first byte before pos stay in, since _next_codeword masks them off.
    end = pos + take
    last = (end + 7) >> 3
    chunk = int.from_bytes(reader._data[pos >> 3:last], "big")
    residual, left = _next_codeword(chunk >> (8 * last - end), take)
    reader._pos = end - left
    return residual
