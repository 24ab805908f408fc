"""Codewords as bit-exact sequences, and an MSB-first reader for them.

A BitString knows its length exactly: nothing ever pads inside a value.
Byte conversion zero-pads only at the end, and the pad is outside the
declared bit count.
"""

from __future__ import annotations

from .codec import MAX_CODEWORD_BITS, _next_codeword, codeword_bytes


class BitString:
    """Immutable bit sequence with explicit length, most-significant bit first."""

    __slots__ = ("_value", "_length")

    def __init__(self, value: int, length: int):
        if length < 0:
            raise ValueError("bit length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self._value = value
        self._length = length

    def __len__(self) -> int:
        return self._length

    def to_bytes(self) -> bytes:
        """MSB-first bytes, zero-padded at the tail to a byte boundary."""
        nbytes = (self._length + 7) // 8
        return (self._value << (8 * nbytes - self._length)).to_bytes(nbytes, "big")


class BitReader:
    """Reads bits MSB-first from a payload's first bit_count bits."""

    def __init__(self, payload: bytes, bit_count: int):
        self._data = bytes(payload)
        if not 0 <= bit_count <= 8 * len(self._data):
            raise ValueError(f"bit_count {bit_count} exceeds {len(self._data)} bytes")
        self._bits = bit_count
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._bits - self._pos

    def peek_uint(self, count: int) -> int:
        """The next `count` bits as an unsigned integer, left unconsumed."""
        if count < 0:
            raise ValueError("count must be non-negative")
        pos = self._pos
        end = pos + count
        if end > self._bits:
            raise ValueError(f"requested {count} bits, {self.remaining} remain")
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[pos >> 3:last], "big")
        return (chunk >> (8 * last - end)) & ((1 << count) - 1)

    def skip(self, count: int) -> None:
        """Consume the next `count` bits unread."""
        if not 0 <= count <= self._bits - self._pos:
            raise ValueError(f"cannot skip {count} bits, {self.remaining} remain")
        self._pos += count


def encode_residual(residual: int) -> BitString:
    """Full codeword for one residual: prefix followed by suffix."""
    bit_count, payload = codeword_bytes(residual)
    return BitString(int.from_bytes(payload, "big") >> (-bit_count % 8),
                     bit_count)


def decode_residual(reader: BitReader) -> int:
    """Consume exactly one codeword from the reader and return its residual.

    Raises decode_bits' errors for the codeword at the read position.
    """
    # A conditional, not min(): this runs once per codeword.
    take = reader.remaining
    if take > MAX_CODEWORD_BITS:
        take = MAX_CODEWORD_BITS
    residual, left = _next_codeword(reader.peek_uint(take), take)
    reader.skip(take - left)
    return residual
