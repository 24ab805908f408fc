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

encode_prefix and encode_suffix are the specification: each returns its
bits as a (value, length) pair of ints. Encoding indexes one table of all
4095 codewords as their packet trace cells `bit_count,payload_hex`, which
writers put straight into their rows, built on first use from each group's
prefix and encode_suffix's rule. codeword_bytes reads a codeword's
(bit_count, payload bytes) back from its cells.
cell_residuals inverts the table, so a packet of one codeword decodes by
one lookup of its trace text. Any other bit string goes through
decode_bits, which writes it out once as '0'/'1' text and walks that a
codeword at a time: a map from each prefix's text to its group, built on
first use from encode_prefix, names the prefix at the read position, and
one int(text, 2) reads the suffix after it.
"""

from __future__ import annotations

from functools import cache

from . import MAX_CODEWORD_BITS, MAX_GROUP, RESIDUAL_MAX, RESIDUAL_MIN

# Groups 0..6 use the 3-bit binary prefix; 7..11 the unary-extended one.
_BINARY_PREFIX_MAX = 6
_MAX_PREFIX_ONES = MAX_GROUP - 3


def _check_range(residual: int) -> None:
    if not RESIDUAL_MIN <= residual <= RESIDUAL_MAX:
        raise ValueError(
            f"residual {residual} outside [{RESIDUAL_MIN}, {RESIDUAL_MAX}]"
        )


def group_of(residual: int) -> int:
    """Group index of a residual: 0 for 0, else floor(log2(|residual|)) + 1."""
    _check_range(residual)
    return abs(residual).bit_length()


def encode_prefix(group: int) -> tuple[int, int]:
    """Group prefix as (value, length): 3-bit binary for groups 0..6,
    (group-3) ones + 0 above."""
    if not 0 <= group <= MAX_GROUP:
        raise ValueError(f"group {group} outside [0, {MAX_GROUP}]")
    if group <= _BINARY_PREFIX_MAX:
        return group, 3
    ones = group - 3
    return ((1 << ones) - 1) << 1, ones + 1


def encode_suffix(residual: int, group: int) -> tuple[int, int]:
    """Value suffix as (value, length) on exactly `group` bits.

    Positive residuals keep their plain binary form, and residual 0 has the
    empty suffix. Negative ones take the two's complement on group+1 bits,
    minus one, truncated to `group` bits.
    """
    if group != group_of(residual):
        raise ValueError(f"group {group} does not classify residual {residual}")
    if residual >= 0:
        return residual, group
    return (residual - 1) & ((1 << group) - 1), group


@cache
def _codeword_cells() -> tuple[str, ...]:
    """Every codeword as its packet trace cells, `bit_count,payload_hex`,
    by residual - RESIDUAL_MIN.

    Built on first use, not at import, because building it takes
    milliseconds. Each group's prefix, bit count and padding are worked out
    once, and each suffix inline by encode_suffix's rule: the residual, less
    one if negative, truncated to the group's bits.
    """
    # Per group: the bit_count cell and its comma, prefix shifted past the
    # suffix, suffix mask, pad bits and payload bytes.
    groups = []
    for group in range(MAX_GROUP + 1):
        prefix, prefix_bits = encode_prefix(group)
        bit_count = prefix_bits + group
        pad = -bit_count % 8
        groups.append((f"{bit_count},", prefix << group, (1 << group) - 1,
                       pad, (bit_count + pad) // 8))
    table = []
    for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
        head, high, mask, pad, size = groups[abs(e).bit_length()]
        suffix = (e - (e < 0)) & mask
        payload = ((high | suffix) << pad).to_bytes(size, "big")
        table.append(head + payload.hex())
    return tuple(table)


@cache
def cell_residuals() -> dict[str, int]:
    """The residual of each codeword's `bit_count,payload_hex` trace cells.

    The code is prefix-free, so a packet whose cells are one of these keys
    decodes to exactly that residual. Built on first use, like the table;
    every caller shares the one dict and only reads it.
    """
    return dict(zip(_codeword_cells(), range(RESIDUAL_MIN, RESIDUAL_MAX + 1)))


def codeword_cells(residual: int) -> str:
    """The `bit_count,payload_hex` trace cells of the residual's codeword."""
    _check_range(residual)
    return _codeword_cells()[residual - RESIDUAL_MIN]


def codeword_bytes(residual: int) -> tuple[int, bytes]:
    """(bit_count, payload) of a packet carrying just the residual's
    codeword, read back from its trace cells."""
    bit_count, payload = codeword_cells(residual).split(",")
    return int(bit_count), bytes.fromhex(payload)


@cache
def _prefix_groups() -> dict[str, int]:
    """The group of each prefix, by its bit text, `'11110'` say. Built on
    first use, like the encode table."""
    return {format(prefix, f"0{bits}b"): group for group, (prefix, bits)
            in enumerate(map(encode_prefix, range(MAX_GROUP + 1)))}


def _next_codeword(bits: str, pos: int) -> tuple[int, int]:
    """(residual, position after it) for the codeword at bits[pos:], where
    bits is a bit string as '0'/'1' text, first bit first."""
    end = pos + 3
    if bits.startswith("111", pos):
        # A unary prefix: its ones up to the first zero and that zero, or
        # else the 9 bits of the longest prefix, group 11's '111111110'.
        end = bits.find("0", end, pos + 9) + 1 or pos + 9
    group = _prefix_groups().get(bits[pos:end])
    if group is None:
        if end > len(bits):
            raise ValueError("stream ended inside a codeword prefix")
        if end - pos == 4:
            # '1110' would alias group 6, which uses the binary prefix '110'.
            raise ValueError("non-canonical prefix '1110'")
        raise ValueError(f"prefix run of more than {_MAX_PREFIX_ONES} "
                         f"leading ones")
    pos = end + group
    if pos > len(bits):
        raise ValueError("stream ended inside a codeword suffix")
    suffix = int(bits[end:pos] or "0", 2)
    mask = (1 << group) - 1
    # The suffix MSB is the sign: a group's upper half holds positives.
    return (suffix if suffix > mask >> 1 else suffix - mask), pos


def decode_bits(value: int, bit_count: int) -> list[int]:
    """Residuals of the codewords that exactly fill a bit string.

    `value` holds the string's bit_count bits, first bit most significant.
    Raises ValueError saying "stream ended inside a codeword prefix" (or
    "suffix") when the string ends mid-codeword, and "non-canonical prefix
    '1110'" or "prefix run of more than 8 leading ones" for bit patterns no
    encoder output starts with.
    """
    bits = f"{value:0{bit_count}b}" if bit_count else ""
    residuals = []
    pos = 0
    while pos < bit_count:
        residual, pos = _next_codeword(bits, pos)
        residuals.append(residual)
    return residuals
