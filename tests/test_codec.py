import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from wbancomp.bitstream import (BitReader, BitString, BitUnderflowError,
                                BitWriter)
from wbancomp.codec import (MAX_CODEWORD_BITS, RESIDUAL_MAX, RESIDUAL_MIN,
                            CodecError, IncompleteCodewordError,
                            MalformedPrefixError,
                            codeword_bytes, decode_bits, decode_residual,
                            encode_prefix, encode_residual, encode_suffix,
                            group_of)

# Total codeword length per group, for the groups the fixed table covers.
TABLE_LENGTHS = [3, 4, 5, 6, 7, 8, 9, 12, 14, 16]


def oracle_decode_residual(reader: BitReader) -> int:
    """The codec's decoder written from the spec, one bit at a time.

    The table-driven decoders must agree with it on every input: the same
    residuals, or the same error class and message.
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
                    "stream ended inside a codeword prefix") from exc
            if not bit:
                break
            ones += 1
            if ones > 8:
                raise MalformedPrefixError(
                    "prefix run of more than 8 leading ones")
        if ones == 3:
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


def outcome(decode, *args):
    """The residual list a decode returns, or the class and text it raises."""
    try:
        return decode(*args)
    except CodecError as exc:
        return type(exc), str(exc)


def oracle_decode(data: bytes, bit_count: int) -> list[int]:
    reader = BitReader(data, bit_count)
    out = []
    while reader.remaining:
        out.append(oracle_decode_residual(reader))
    return out


def payload_decode(data: bytes, bit_count: int) -> list[int]:
    return decode_bits(int.from_bytes(data, "big") >> (8 * len(data) - bit_count),
                       bit_count)


def decode_all(bits: BitString) -> list[int]:
    reader = BitReader(bits)
    out = []
    while reader.remaining:
        out.append(decode_residual(reader))
    return out


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
        assert encode_prefix(group).to01() == bits

    def test_unsupported_group(self):
        with pytest.raises(ValueError):
            encode_prefix(12)
        with pytest.raises(ValueError):
            encode_prefix(-1)

    def test_prefixes_are_prefix_free(self):
        prefixes = [encode_prefix(n).to01() for n in range(12)]
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
        assert encode_suffix(residual, group).to01() == bits

    def test_zero_suffix_is_empty(self):
        assert len(encode_suffix(0, 0)) == 0

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
                word = encode_suffix(e, n)
                assert len(word) == n
                assert word.uint not in suffixes
                suffixes[word.uint] = e
            assert len(suffixes) == 2 ** n
            for value, e in suffixes.items():
                assert (value >> (n - 1) == 1) == (e > 0)


class TestEncodeResidual:
    def test_golden_codeword(self):
        word = encode_residual(38)
        assert word.to01() == "110100110"
        assert len(word) == 9

    def test_zero_is_three_bits(self):
        assert encode_residual(0).to01() == "000"

    @pytest.mark.parametrize("residual,length", [
        (63, 9), (127, 12), (255, 14), (511, 16),
        (-64, 12), (-128, 14), (-512, 18), (1023, 18), (-1024, 20), (2047, 20),
    ])
    def test_codeword_lengths(self, residual, length):
        assert len(encode_residual(residual)) == length

    def test_length_table_for_covered_groups(self):
        for e in range(-511, 512):
            assert len(encode_residual(e)) == TABLE_LENGTHS[group_of(e)]

    def test_monotone_cost(self):
        lengths = [len(encode_residual(e)) for e in range(0, RESIDUAL_MAX + 1)]
        assert lengths == sorted(lengths)
        for e in range(1, RESIDUAL_MAX + 1):
            assert len(encode_residual(-e)) == len(encode_residual(e))

    def test_longest_codeword_is_max_codeword_bits(self):
        assert max(len(encode_residual(e)) for e in
                   range(RESIDUAL_MIN, RESIDUAL_MAX + 1)) == MAX_CODEWORD_BITS

    def test_range_error_propagates(self):
        with pytest.raises(ValueError):
            encode_residual(2048)


class TestDecodeResidual:
    def test_golden_round_trip(self):
        assert decode_all(BitString.from01("110100110")) == [38]

    def test_zero(self):
        assert decode_all(BitString.from01("000")) == [0]

    def test_exhaustive_round_trip(self):
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            word = encode_residual(e)
            reader = BitReader(word)
            assert decode_residual(reader) == e
            assert reader.remaining == 0

    def test_reader_advances_by_codeword_length(self):
        stream = encode_residual(38) + encode_residual(-3) + encode_residual(0)
        reader = BitReader(stream)
        assert decode_residual(reader) == 38
        assert len(stream) - reader.remaining == 9
        assert decode_residual(reader) == -3
        assert len(stream) - reader.remaining == 14
        assert decode_residual(reader) == 0
        assert reader.remaining == 0

    def test_truncated_prefix(self):
        with pytest.raises(IncompleteCodewordError):
            decode_all(BitString.from01("11"))

    def test_truncated_suffix(self):
        # group 6 prefix but only 3 of the 6 suffix bits present
        with pytest.raises(IncompleteCodewordError):
            decode_all(BitString.from01("110100"))

    def test_truncated_unary_prefix(self):
        with pytest.raises(IncompleteCodewordError):
            decode_all(BitString.from01("11111"))

    def test_too_many_leading_ones(self):
        with pytest.raises(MalformedPrefixError):
            decode_all(BitString.from01("1" * 9 + "0" + "1" * 12))

    def test_non_canonical_1110_rejected(self):
        with pytest.raises(MalformedPrefixError):
            decode_all(BitString.from01("1110" + "100110"))

    def test_prefix_free_stream(self):
        rng = random.Random(2024)
        residuals = [rng.randint(RESIDUAL_MIN, RESIDUAL_MAX)
                     for _ in range(10_000)]
        writer = BitWriter()
        for e in residuals:
            writer.append(encode_residual(e))
        data, count = writer.getvalue()
        reader = BitReader(data, count)
        decoded = [decode_residual(reader) for _ in residuals]
        assert decoded == residuals
        assert reader.remaining == 0


class TestTables:
    def test_encode_table_matches_spec(self):
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            word = encode_prefix(group_of(e)) + encode_suffix(e, group_of(e))
            assert encode_residual(e) == word
            assert codeword_bytes(e) == (len(word), word.to_bytes())

    def test_codeword_bytes_range_error(self):
        for e in (RESIDUAL_MIN - 1, RESIDUAL_MAX + 1):
            with pytest.raises(ValueError, match="outside"):
                codeword_bytes(e)

    def test_trailing_111_is_incomplete_but_1110_is_malformed(self):
        with pytest.raises(IncompleteCodewordError):
            decode_all(encode_residual(5) + BitString.from01("111"))
        with pytest.raises(MalformedPrefixError):
            decode_all(encode_residual(5) + BitString.from01("1110"))

    def test_every_short_string_decodes_like_the_oracle(self):
        # Every bit string of up to 12 bits: all window entries, every
        # truncation point of every prefix, and the empty string.
        for length in range(13):
            for value in range(1 << length):
                data = (value << (-length % 8)).to_bytes((length + 7) // 8, "big")
                expected = outcome(oracle_decode, data, length)
                assert outcome(payload_decode, data, length) == expected
                assert outcome(decode_all, BitString(value, length)) == expected

    def test_encode_tables_are_not_built_at_import(self):
        # Building them costs milliseconds that every CLI start would pay.
        check = ("import wbancomp.cli, wbancomp.codec as codec; "
                 "assert codec._codewords.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", check], check=True,
                       cwd=REPO_ROOT / "src")


@st.composite
def payloads(draw):
    """Arbitrary bytes plus a bit count they can hold, pad bits included."""
    data = draw(st.binary(max_size=12))
    return data, draw(st.integers(0, 8 * len(data)))


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(payloads())
    def test_payload_decode_matches_oracle(self, payload):
        data, bit_count = payload
        assert (outcome(payload_decode, data, bit_count)
                == outcome(oracle_decode, data, bit_count))

    @settings(max_examples=300, deadline=None)
    @given(payloads())
    def test_reader_decode_matches_oracle(self, payload):
        data, bit_count = payload

        def reader_decode(data, bit_count):
            reader = BitReader(data, bit_count)
            out = []
            while reader.remaining:
                out.append(decode_residual(reader))
            return out
        assert (outcome(reader_decode, data, bit_count)
                == outcome(oracle_decode, data, bit_count))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(RESIDUAL_MIN, RESIDUAL_MAX), max_size=20))
    def test_encoded_streams_round_trip(self, residuals):
        bits = sum((encode_residual(e) for e in residuals), BitString())
        assert payload_decode(bits.to_bytes(), len(bits)) == residuals
