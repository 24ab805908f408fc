import hashlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, codeword_literal, literal_bits
from wbancomp import codec
from wbancomp.codec import (MAX_CODEWORD_BITS, RESIDUAL_MAX, RESIDUAL_MIN,
                            codeword_bytes, decode_bits, encode_prefix,
                            encode_suffix, group_of)

# Total codeword length per group, for the groups the fixed table covers.
TABLE_LENGTHS = [3, 4, 5, 6, 7, 8, 9, 12, 14, 16]


def oracle_decode(value: int, bit_count: int) -> list[int]:
    """The codec's decoder written from the spec, one bit at a time.

    `value` holds the string's bit_count bits, first bit most significant.
    The table-driven decoders must agree with it on every input: the same
    residuals, or the same error class and message.
    """
    bits = [(value >> i) & 1 for i in reversed(range(bit_count))]
    pos = 0

    def read(count, part):
        nonlocal pos
        if pos + count > bit_count:
            raise ValueError(
                f"stream ended inside a codeword {part}")
        word = 0
        for bit in bits[pos:pos + count]:
            word = word << 1 | bit
        pos += count
        return word

    out = []
    while pos < bit_count:
        head = read(3, "prefix")
        if head != 0b111:
            group = head
        else:
            ones = 3
            while read(1, "prefix"):
                ones += 1
                if ones > 8:
                    raise ValueError(
                        "prefix run of more than 8 leading ones")
            if ones == 3:
                raise ValueError("non-canonical prefix '1110'")
            group = ones + 3
        suffix = read(group, "suffix")
        if group == 0:
            out.append(0)
        elif suffix >> (group - 1):
            out.append(suffix)
        else:
            out.append(suffix + 1 - (1 << group))
    return out


def outcome(decode, *args):
    """The residual list a decode returns, or the class and text it raises."""
    try:
        return decode(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def payload_value(data: bytes, bit_count: int) -> int:
    """The first bit_count bits of a payload as an int."""
    return int.from_bytes(data, "big") >> (8 * len(data) - bit_count)


def decode_all(bits: str) -> list[int]:
    """A bit literal decoded by decode_bits."""
    return decode_bits(int(bits or "0", 2), len(bits))


def as_literal(pair: tuple[int, int]) -> str:
    """A (value, length) pair of encode_prefix or encode_suffix as a literal."""
    value, length = pair
    return format(value, f"0{length}b") if length else ""


class TestGroupOf:
    @pytest.mark.parametrize("residual,group", [
        (38, 6),
        (0, 0),
        (511, 9), (-256, 9),
        (-1, 1), (1, 1),
        (63, 6), (64, 7),
        (-2047, 11), (2047, 11), (1024, 11), (-1023, 10),
    ])
    def test_known_groups(self, residual, group):
        assert group_of(residual) == group

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            group_of(RESIDUAL_MAX + 1)
        with pytest.raises(ValueError):
            group_of(RESIDUAL_MIN - 1)

    def test_group_law(self):
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            if e == 0:
                assert group_of(e) == 0
            else:
                n = group_of(e)
                assert 2 ** (n - 1) <= abs(e) <= 2 ** n - 1


class TestPrefix:
    @pytest.mark.parametrize("group,bits", [
        (0, "000"), (1, "001"), (2, "010"), (3, "011"),
        (4, "100"), (5, "101"), (6, "110"),
        (7, "11110"), (8, "111110"), (9, "1111110"),
        (10, "11111110"), (11, "111111110"),
    ])
    def test_prefix_patterns(self, group, bits):
        assert as_literal(encode_prefix(group)) == bits

    def test_unsupported_group(self):
        with pytest.raises(ValueError):
            encode_prefix(12)
        with pytest.raises(ValueError):
            encode_prefix(-1)

    def test_prefixes_are_prefix_free(self):
        prefixes = [as_literal(encode_prefix(n)) for n in range(12)]
        for i, a in enumerate(prefixes):
            for j, b in enumerate(prefixes):
                if i != j:
                    assert not b.startswith(a), (a, b)


class TestSuffix:
    @pytest.mark.parametrize("residual,group,bits", [
        (38, 6, "100110"),
        (1, 1, "1"), (-1, 1, "0"),
        (-3, 2, "00"), (-2, 2, "01"), (2, 2, "10"), (3, 2, "11"),
    ])
    def test_known_suffixes(self, residual, group, bits):
        assert as_literal(encode_suffix(residual, group)) == bits

    def test_zero_suffix_is_empty(self):
        assert encode_suffix(0, 0) == (0, 0)

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_suffix(38, 5)
        with pytest.raises(ValueError):
            encode_suffix(1, 0)

    def test_suffix_bijection_per_group(self):
        # Within each group the suffixes cover all n-bit strings exactly
        # once: negatives fill the low half, positives the high half.
        for n in range(1, 12):
            members = list(range(-(2 ** n - 1), -(2 ** (n - 1)) + 1)) + \
                      list(range(2 ** (n - 1), 2 ** n))
            suffixes = {}
            for e in members:
                value, length = encode_suffix(e, n)
                assert length == n
                assert 0 <= value < 2 ** n
                assert value not in suffixes
                suffixes[value] = e
            assert len(suffixes) == 2 ** n
            for value, e in suffixes.items():
                assert (value >> (n - 1) == 1) == (e > 0)


class TestEncodeResidual:
    def test_golden_codeword(self):
        assert codeword_literal(38) == "110100110"
        assert codeword_bytes(38) == (9, bytes([0b11010011, 0b00000000]))

    def test_zero_is_three_bits(self):
        assert codeword_literal(0) == "000"

    @pytest.mark.parametrize("residual,length", [
        (63, 9), (127, 12), (255, 14), (511, 16),
        (-64, 12), (-128, 14), (-512, 18), (1023, 18), (-1024, 20), (2047, 20),
    ])
    def test_codeword_lengths(self, residual, length):
        assert codeword_bytes(residual)[0] == length

    def test_length_table_for_covered_groups(self):
        for e in range(-511, 512):
            assert codeword_bytes(e)[0] == TABLE_LENGTHS[group_of(e)]

    def test_monotone_cost(self):
        lengths = [codeword_bytes(e)[0] for e in range(0, RESIDUAL_MAX + 1)]
        assert lengths == sorted(lengths)
        for e in range(1, RESIDUAL_MAX + 1):
            assert codeword_bytes(-e)[0] == codeword_bytes(e)[0]

    def test_longest_codeword_is_max_codeword_bits(self):
        assert max(codeword_bytes(e)[0] for e in
                   range(RESIDUAL_MIN, RESIDUAL_MAX + 1)) == MAX_CODEWORD_BITS

    def test_range_error_propagates(self):
        with pytest.raises(ValueError):
            codeword_bytes(2048)


class TestDecodeResidual:
    """Residuals decoded from bit literals by decode_bits."""

    def test_golden_round_trip(self):
        assert decode_all("110100110") == [38]

    def test_zero(self):
        assert decode_all("000") == [0]

    def test_exhaustive_round_trip(self):
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            bit_count, payload = codeword_bytes(e)
            assert decode_bits(payload_value(payload, bit_count),
                               bit_count) == [e]

    def test_truncated_prefix(self):
        with pytest.raises(ValueError, match="stream ended inside a codeword prefix"):
            decode_all("11")

    def test_truncated_suffix(self):
        # group 6 prefix but only 3 of the 6 suffix bits present
        with pytest.raises(ValueError, match="stream ended inside a codeword suffix"):
            decode_all("110100")

    def test_truncated_unary_prefix(self):
        with pytest.raises(ValueError, match="stream ended inside a codeword prefix"):
            decode_all("11111")

    def test_too_many_leading_ones(self):
        with pytest.raises(ValueError, match="more than 8 leading ones"):
            decode_all("1" * 9 + "0" + "1" * 12)

    def test_non_canonical_1110_rejected(self):
        with pytest.raises(ValueError, match="non-canonical prefix '1110'"):
            decode_all("1110" + "100110")

    def test_prefix_free_stream(self):
        rng = random.Random(2024)
        residuals = [rng.randint(RESIDUAL_MIN, RESIDUAL_MAX)
                     for _ in range(10_000)]
        assert decode_all("".join(map(codeword_literal, residuals))) == \
            residuals


class TestTables:
    def test_encode_table_matches_spec(self):
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            word = (as_literal(encode_prefix(group_of(e)))
                    + as_literal(encode_suffix(e, group_of(e))))
            assert codeword_bytes(e) == literal_bits(word)

    def test_table_built_by_group_is_the_composition(self):
        # The table builds each group's prefix once and its suffixes inline;
        # it must equal the three spec calls made for every residual.
        words = []
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            group = group_of(e)
            prefix, prefix_bits = encode_prefix(group)
            suffix, suffix_bits = encode_suffix(e, group)
            bit_count = prefix_bits + suffix_bits
            pad = -bit_count % 8
            words.append((bit_count, ((prefix << suffix_bits | suffix) << pad)
                          .to_bytes((bit_count + pad) // 8, "big")))
        assert len(words) == 4095
        assert codec._codewords() == tuple(words)

    def test_codeword_bytes_range_error(self):
        for e in (RESIDUAL_MIN - 1, RESIDUAL_MAX + 1):
            with pytest.raises(ValueError, match="outside"):
                codeword_bytes(e)

    def test_trailing_111_is_incomplete_but_1110_is_malformed(self):
        with pytest.raises(ValueError, match="stream ended inside a codeword prefix"):
            decode_all(codeword_literal(5) + "111")
        with pytest.raises(ValueError, match="non-canonical"):
            decode_all(codeword_literal(5) + "1110")

    def test_every_short_string_decodes_like_the_oracle(self):
        # Every bit string of up to 12 bits: every prefix and malformed
        # start, every truncation point of each, and the empty string.
        for length in range(13):
            for value in range(1 << length):
                assert (outcome(decode_bits, value, length)
                        == outcome(oracle_decode, value, length))

    def test_cell_tables_match_the_encode_table(self):
        # The trace cells are the codeword's write_trace text, and read back
        # to the residual whose codeword it is.
        by_cells = codec.cell_residuals()
        assert len(by_cells) == RESIDUAL_MAX - RESIDUAL_MIN + 1
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            bits, payload = codeword_bytes(e)
            cells = codec.codeword_cells(e)
            assert cells == f"{bits},{payload.hex()}"
            assert by_cells[cells] == e

    def test_codeword_cells_range_error(self):
        # The table is a tuple: an unchecked index below the range would
        # wrap around to a codeword from its top end.
        for e in (RESIDUAL_MIN - 1, RESIDUAL_MAX + 1, -4095, -8191):
            with pytest.raises(ValueError, match="outside"):
                codec.codeword_cells(e)

    def test_encode_tables_are_not_built_at_import(self):
        # Building them costs milliseconds that every CLI start would pay.
        # The decoder's prefix map is built on first use too.
        check = ("import wbancomp.cli, wbancomp.codec as codec; "
                 "import wbancomp.netmodel, wbancomp.rundir; "
                 "assert codec._codewords.cache_info().currsize == 0; "
                 "assert codec._codeword_cells.cache_info().currsize == 0; "
                 "assert codec.cell_residuals.cache_info().currsize == 0; "
                 "assert codec._prefix_groups.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", check], check=True,
                       cwd=REPO_ROOT / "src")

    def test_encode_table_is_pinned(self):
        # The bytes of every codeword any packet or trace carries.
        digest = hashlib.sha256(repr(codec._codewords()).encode()).hexdigest()
        assert digest == ("df8db2d841c94c1e2322682f2c75c7c6"
                          "e1bd034835fad5231a89e2cb7ef2403b")


@st.composite
def payloads(draw):
    """Arbitrary bytes plus a bit count they can hold, pad bits included."""
    data = draw(st.binary(max_size=12))
    return data, draw(st.integers(0, 8 * len(data)))


@st.composite
def long_streams(draw):
    """Codewords past 4,096 bits, with up to 24 stray bits put between two
    of them: a long string's errors get checked wherever they fall."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    words, length = [], 0
    while length <= 4096 + MAX_CODEWORD_BITS:
        words.append(codeword_literal(rng.randint(RESIDUAL_MIN, RESIDUAL_MAX)))
        length += len(words[-1])
    stray = draw(st.integers(0, 24))
    words.insert(draw(st.integers(0, len(words))),
                 format(rng.getrandbits(stray), f"0{stray}b") if stray else "")
    stream = "".join(words)
    return int(stream, 2), len(stream)


class TestAgainstOracle:
    @settings(max_examples=300)
    @given(payloads())
    def test_payload_decode_matches_oracle(self, payload):
        data, bit_count = payload
        value = payload_value(data, bit_count)
        assert (outcome(decode_bits, value, bit_count)
                == outcome(oracle_decode, value, bit_count))

    @settings(max_examples=30)
    @given(long_streams())
    def test_long_stream_decode_matches_oracle(self, stream):
        assert outcome(decode_bits, *stream) == outcome(oracle_decode, *stream)

    @pytest.mark.parametrize("bits", [
        "000" * 21845, "000" * 21844 + "111", "1" * 9 + "0" * 65526,
    ], ids=["zeros", "ends-in-prefix", "nine-ones"])
    def test_longest_packet_decodes_like_the_oracle(self, bits):
        # As long as a Packet's bit_count allows.
        assert len(bits) == 0xFFFF
        stream = int(bits, 2), len(bits)
        assert outcome(decode_bits, *stream) == outcome(oracle_decode, *stream)

    @settings(max_examples=100)
    @given(st.lists(st.integers(RESIDUAL_MIN, RESIDUAL_MAX), max_size=20))
    def test_encoded_streams_round_trip(self, residuals):
        stream = "".join(map(codeword_literal, residuals))
        assert decode_bits(int(stream or "0", 2), len(stream)) == residuals
