"""Bit-exact sequences plus MSB-first writer/reader primitives.

A BitString knows its length exactly: concatenation is length-additive and
nothing ever pads inside a value. Byte conversion zero-pads only at the end,
and the pad is outside the declared bit count.
"""

from __future__ import annotations


class BitUnderflowError(ValueError):
    """A read asked for more bits than the stream still holds."""


class BitString:
    """Immutable bit sequence with explicit length, most-significant bit first."""

    __slots__ = ("_value", "_length")

    def __init__(self, value: int = 0, length: int = 0):
        if length < 0:
            raise ValueError("bit length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self._value = value
        self._length = length

    @classmethod
    def from01(cls, text: str) -> "BitString":
        """Build from a literal like '110100110'."""
        if set(text) - {"0", "1"}:
            raise ValueError(f"not a bit literal: {text!r}")
        return cls(int(text, 2) if text else 0, len(text))

    @property
    def uint(self) -> int:
        """The bits interpreted as an unsigned integer."""
        return self._value

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __add__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def to01(self) -> str:
        return format(self._value, f"0{self._length}b") if self._length else ""

    def to_bytes(self) -> bytes:
        """MSB-first bytes, zero-padded at the tail to a byte boundary."""
        nbytes = (self._length + 7) // 8
        return (self._value << (8 * nbytes - self._length)).to_bytes(nbytes, "big")

    def __repr__(self) -> str:
        return f"BitString({self.to01()!r})"


class BitWriter:
    """Accumulates bits MSB-first into a growing byte buffer."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0
        self._length = 0

    def write_uint(self, value: int, width: int) -> None:
        if width < 0:
            raise ValueError("width must be non-negative")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        n = self._nacc + width
        while n >= 8:
            n -= 8
            self._buf.append((acc >> n) & 0xFF)
        self._acc = acc & ((1 << n) - 1)
        self._nacc = n
        self._length += width

    def append(self, bits: BitString) -> None:
        self.write_uint(bits.uint, len(bits))

    def getvalue(self) -> tuple[bytes, int]:
        """Return (bytes, bit_count); tail bits are zero-padded into the last byte."""
        data = bytes(self._buf)
        if self._nacc:
            data += bytes([self._acc << (8 - self._nacc)])
        return data, self._length


class BitReader:
    """Reads bits MSB-first from bytes or a BitString, tracking position."""

    def __init__(self, source: bytes | bytearray | BitString, bit_count: int | None = None):
        if isinstance(source, BitString):
            if bit_count is not None and bit_count != len(source):
                raise ValueError("bit_count does not match BitString length")
            self._data = source.to_bytes()
            self._bits = len(source)
        else:
            self._data = bytes(source)
            self._bits = 8 * len(self._data) if bit_count is None else bit_count
            if self._bits < 0 or self._bits > 8 * len(self._data):
                raise ValueError(f"bit_count {bit_count} exceeds {len(self._data)} bytes")
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._bits - self._pos

    def read_bit(self) -> int:
        if self._pos >= self._bits:
            raise BitUnderflowError("read past end of stream")
        bit = (self._data[self._pos >> 3] >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def peek_uint(self, count: int) -> int:
        """The next `count` bits as an unsigned integer, left unconsumed."""
        if count < 0:
            raise ValueError("count must be non-negative")
        pos = self._pos
        end = pos + count
        if end > self._bits:
            raise BitUnderflowError(f"requested {count} bits, {self.remaining} remain")
        last = (end + 7) >> 3
        chunk = int.from_bytes(self._data[pos >> 3:last], "big")
        return (chunk >> (8 * last - end)) & ((1 << count) - 1)

    def skip(self, count: int) -> None:
        """Consume the next `count` bits unread."""
        if not 0 <= count <= self._bits - self._pos:
            raise BitUnderflowError(f"cannot skip {count} bits, {self.remaining} remain")
        self._pos += count

    def read_uint(self, count: int) -> int:
        value = self.peek_uint(count)
        self._pos += count
        return value
