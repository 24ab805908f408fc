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
bits as a (value, length) pair of ints. Encoding indexes a table of the
(bit_count, payload bytes) of all 4095 codewords, built on first use from
each group's prefix and encode_suffix's rule, or a second table of the
same codewords as the packet trace cells `bit_count,payload_hex`, which
writers put straight into their rows.
cell_residuals inverts the second, so a packet of one codeword decodes by
one lookup of its trace text. Any other bit string goes through
decode_bits, which looks the next 9 bits (the longest prefix) up in a
512-entry table, built from encode_prefix, that gives the group and prefix
length of the codeword starting there, or marks the start malformed with
the number of bits it takes to see that; one masked shift then reads the
suffix.
"""

from __future__ import annotations

from functools import cache

RESIDUAL_MIN = -2047
RESIDUAL_MAX = 2047
MAX_GROUP = 11
# The longest codeword: group 11's 9-bit prefix and 11-bit suffix.
MAX_CODEWORD_BITS = 20

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
def _codewords() -> tuple[tuple[int, bytes], ...]:
    """Every codeword as (bit_count, payload bytes), by residual - RESIDUAL_MIN.

    Built on first use, not at import, because building it takes
    milliseconds. Each group's prefix, bit count and padding are worked out
    once, and each suffix inline by encode_suffix's rule: the residual, less
    one if negative, truncated to the group's bits.
    """
    # Per group: bit count, prefix shifted past the suffix, suffix mask,
    # pad bits and payload bytes.
    groups = []
    for group in range(MAX_GROUP + 1):
        prefix, prefix_bits = encode_prefix(group)
        bit_count = prefix_bits + group
        pad = -bit_count % 8
        groups.append((bit_count, prefix << group, (1 << group) - 1, pad,
                       (bit_count + pad) // 8))
    table = []
    for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
        bit_count, high, mask, pad, size = groups[abs(e).bit_length()]
        suffix = (e - (e < 0)) & mask
        payload = ((high | suffix) << pad).to_bytes(size, "big")
        table.append((bit_count, payload))
    return tuple(table)


def codeword_bytes(residual: int) -> tuple[int, bytes]:
    """(bit_count, payload) of a packet carrying just the residual's codeword."""
    _check_range(residual)
    return _codewords()[residual - RESIDUAL_MIN]


@cache
def _codeword_cells() -> tuple[str, ...]:
    """Every codeword as its packet trace cells, `bit_count,payload_hex`,
    by residual - RESIDUAL_MIN. Built on first use, like the encode table."""
    return tuple(f"{bits},{payload.hex()}" for bits, payload in _codewords())


@cache
def cell_residuals() -> dict[str, int]:
    """The residual of each codeword's `bit_count,payload_hex` trace cells.

    The code is prefix-free, so a packet whose cells are one of these keys
    decodes to exactly that residual. Built on first use, like the table;
    every caller shares the one dict and only reads it.
    """
    return dict(zip(_codeword_cells(), range(RESIDUAL_MIN, RESIDUAL_MAX + 1)))


def codeword_cells(residual: int) -> str:
    """The `bit_count,payload_hex` trace cells of codeword_bytes(residual)."""
    _check_range(residual)
    return _codeword_cells()[residual - RESIDUAL_MIN]


# The longest prefix, group 11's '111111110', fills the window exactly.
_WINDOW_BITS = 9
_WINDOW_MASK = (1 << _WINDOW_BITS) - 1
# The length above which decode_bits works through a string by chunks.
_CHUNK_BITS = 4096

# The two malformed starts, by the negative group their table entries hold.
# '1110' would alias group 6, which uses the binary prefix '110'.
_MALFORMED = {-1: "non-canonical prefix '1110'",
              -2: f"prefix run of more than {_MAX_PREFIX_ONES} leading ones"}


def _prefix_table() -> list[tuple[int, int]]:
    """(group, prefix bits) for every window, indexed by the window's bits.

    The windows no prefix claims start '1110' (malformed after 4 bits) or
    are nine ones (malformed after 9): their entries hold a negative group
    and those bit counts.
    """
    table = [(-1, 4)] * (1 << _WINDOW_BITS)
    table[_WINDOW_MASK] = (-2, _WINDOW_BITS)
    for group in range(MAX_GROUP + 1):
        prefix, prefix_bits = encode_prefix(group)
        free = _WINDOW_BITS - prefix_bits
        start = prefix << free
        table[start:start + (1 << free)] = [(group, prefix_bits)] * (1 << free)
    return table


_PREFIXES = _prefix_table()


def _decode_error(group: int, prefix_bits: int, left: int) -> ValueError:
    """Why the codeword with this table entry does not fit in `left` bits."""
    if prefix_bits > left:
        return ValueError("stream ended inside a codeword prefix")
    if group < 0:
        return ValueError(_MALFORMED[group])
    return ValueError("stream ended inside a codeword suffix")


def _next_codeword(value: int, left: int) -> tuple[int, int]:
    """(residual, bits left) for the codeword at the top of a bit string.

    `value` holds the string's last `left` bits, first bit most significant.
    """
    if left >= _WINDOW_BITS:
        window = (value >> (left - _WINDOW_BITS)) & _WINDOW_MASK
    else:
        # The zeros shifted in past the end never complete a prefix: an
        # entry whose prefix reaches them fails the length check.
        window = (value << (_WINDOW_BITS - left)) & _WINDOW_MASK
    group, prefix_bits = _PREFIXES[window]
    if group < 0 or prefix_bits + group > left:
        raise _decode_error(group, prefix_bits, left)
    left -= prefix_bits + group
    mask = (1 << group) - 1
    suffix = (value >> left) & mask
    # The suffix MSB is the sign: a group's upper half holds positives.
    return (suffix if suffix > mask >> 1 else suffix - mask), left


def decode_bits(value: int, bit_count: int) -> list[int]:
    """Residuals of the codewords that exactly fill a bit string.

    `value` holds the string's bit_count bits, first bit most significant.
    Raises ValueError saying "stream ended inside a codeword prefix" (or
    "suffix") when the string ends mid-codeword, and "non-canonical prefix
    '1110'" or "prefix run of more than 8 leading ones" for bit patterns no
    encoder output starts with.
    """
    residuals = []
    left = bit_count
    while left > _CHUNK_BITS:
        # Long strings decode by chunks cut off their top: shifting the whole
        # string once per codeword would take time quadratic in its length.
        rest = left - _CHUNK_BITS
        chunk, chunk_left = value >> rest, _CHUNK_BITS
        while chunk_left >= MAX_CODEWORD_BITS:
            residual, chunk_left = _next_codeword(chunk, chunk_left)
            residuals.append(residual)
        left = rest + chunk_left
        value &= (1 << left) - 1
    while left:
        residual, left = _next_codeword(value, left)
        residuals.append(residual)
    return residuals

