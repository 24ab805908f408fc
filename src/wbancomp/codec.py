"""Prefix-free codec for signed prediction residuals.

Residuals are split into a group prefix and a fixed-width-in-group suffix.
The group index is the bit width of |residual|:

    group 0                  residual 0, no suffix
    group n, 1 <= n <= 6     3-bit binary prefix (001 .. 110), n-bit suffix
    group n, 7 <= n <= 11    (n - 3) one-bits then a zero-bit, n-bit suffix

Within a group the suffix is plain binary for positive residuals and a
decrement-then-truncate two's-complement form for negative ones, so the suffix
most-significant bit carries the sign and every group is a bijection onto its
n-bit strings. Codewords are written MSB first, prefix before suffix; the
whole code is prefix-free, so concatenated codewords decode unambiguously.

Supported residuals span [-2047, 2047] (groups 0..11), enough for full-scale
deltas of anything up to an 11-bit ADC, first absolute readings included.
"""

from __future__ import annotations

from .bitstream import BitReader, BitString, BitUnderflowError

RESIDUAL_MIN = -2047
RESIDUAL_MAX = 2047
MAX_GROUP = 11

# Groups 0..6 use the 3-bit binary prefix; 7..11 the unary-extended one.
_BINARY_PREFIX_MAX = 6
_MAX_PREFIX_ONES = MAX_GROUP - 3


class CodecError(Exception):
    """Base class for codeword decoding failures."""


class IncompleteCodewordError(CodecError):
    """The stream ended in the middle of a codeword."""


class MalformedPrefixError(CodecError):
    """The bits at the read position cannot start any valid codeword."""


def group_of(residual: int) -> int:
    """Group index of a residual: 0 for 0, else floor(log2(|residual|)) + 1."""
    if not RESIDUAL_MIN <= residual <= RESIDUAL_MAX:
        raise ValueError(
            f"residual {residual} outside [{RESIDUAL_MIN}, {RESIDUAL_MAX}]"
        )
    return abs(residual).bit_length()


def encode_prefix(group: int) -> BitString:
    """Group prefix: 3-bit binary for groups 0..6, (group-3) ones + 0 above."""
    if not 0 <= group <= MAX_GROUP:
        raise ValueError(f"group {group} outside [0, {MAX_GROUP}]")
    if group <= _BINARY_PREFIX_MAX:
        return BitString(group, 3)
    ones = group - 3
    return BitString(((1 << ones) - 1) << 1, ones + 1)


def encode_suffix(residual: int, group: int) -> BitString:
    """Value suffix on exactly `group` bits (empty for residual 0).

    Positive residuals keep their plain binary form. Negative ones take the
    two's complement on group+1 bits, minus one, truncated to `group` bits.
    """
    if group != group_of(residual):
        raise ValueError(f"group {group} does not classify residual {residual}")
    if residual == 0:
        return BitString()
    if residual > 0:
        return BitString(residual, group)
    return BitString((residual - 1) & ((1 << group) - 1), group)


def encode_residual(residual: int) -> BitString:
    """Full codeword for one residual: prefix followed by suffix."""
    group = group_of(residual)
    return encode_prefix(group) + encode_suffix(residual, group)


def decode_residual(reader: BitReader) -> int:
    """Consume exactly one codeword from the reader and return its residual.

    Raises IncompleteCodewordError when the stream ends mid-codeword and
    MalformedPrefixError for bit patterns no encoder output starts with
    (a run of more than 8 leading ones, or the non-canonical '1110').
    """
    try:
        head = reader.read_uint(3)
    except BitUnderflowError as exc:
        raise IncompleteCodewordError("stream ended inside a codeword prefix") from exc
    if head != 0b111:
        group = head
    else:
        ones = 3
        while True:
            try:
                bit = reader.read_bit()
            except BitUnderflowError as exc:
                raise IncompleteCodewordError(
                    "stream ended inside a codeword prefix"
                ) from exc
            if not bit:
                break
            ones += 1
            if ones > _MAX_PREFIX_ONES:
                raise MalformedPrefixError(
                    f"prefix run of more than {_MAX_PREFIX_ONES} leading ones"
                )
        if ones == 3:
            # '1110' would alias group 6, which uses the binary prefix '110'.
            raise MalformedPrefixError("non-canonical prefix '1110'")
        group = ones + 3
    try:
        suffix = reader.read_uint(group)
    except BitUnderflowError as exc:
        raise IncompleteCodewordError("stream ended inside a codeword suffix") from exc
    if group == 0:
        return 0
    if suffix >> (group - 1):
        return suffix
    return suffix + 1 - (1 << group)
