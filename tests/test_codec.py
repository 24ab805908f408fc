import random

import pytest

from wbancomp.bitstream import BitReader, BitString, BitWriter
from wbancomp.codec import (RESIDUAL_MAX, RESIDUAL_MIN,
                            IncompleteCodewordError, MalformedPrefixError,
                            decode_residual, encode_prefix,
                            encode_residual, encode_suffix, group_of)

# Total codeword length per group, for the groups the fixed table covers.
TABLE_LENGTHS = [3, 4, 5, 6, 7, 8, 9, 12, 14, 16]


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
