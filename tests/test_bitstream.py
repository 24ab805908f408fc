import random

import pytest

from wbancomp.bitstream import (BitReader, BitString, BitUnderflowError,
                                BitWriter)


def test_empty_bitstring():
    empty = BitString()
    assert len(empty) == 0
    assert empty.to01() == ""
    assert not empty


def test_from01_round_trip():
    bits = BitString.from01("110100110")
    assert len(bits) == 9
    assert bits.to01() == "110100110"
    assert bits.uint == 0b110100110


def test_from01_rejects_non_bits():
    with pytest.raises(ValueError):
        BitString.from01("10x1")


def test_value_must_fit_length():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 4)


def test_append_empty_is_identity():
    word = BitString.from01("110")
    assert BitString() + word == word
    assert word + BitString() == word
    assert len(BitString() + word) == 3


def test_append_concatenates_in_order():
    stream = BitString.from01("110") + BitString.from01("100110")
    assert stream.to01() == "110100110"
    assert len(stream) == 9


def test_concat_is_associative_and_length_additive():
    rng = random.Random(5)
    for _ in range(100):
        parts = [BitString(rng.getrandbits(w) if w else 0, w)
                 for w in (rng.randrange(0, 12) for _ in range(3))]
        a, b, c = parts
        assert (a + b) + c == a + (b + c)
        assert len(a + b + c) == len(a) + len(b) + len(c)


def test_leading_zeros_are_significant():
    assert BitString.from01("0001") != BitString.from01("001")
    assert BitString.from01("0001") != BitString.from01("1")


def test_bit_indexing_msb_first():
    reader = BitReader(BitString.from01("10110"))
    assert [reader.read_bit() for _ in range(5)] == [1, 0, 1, 1, 0]
    with pytest.raises(BitUnderflowError):
        reader.read_bit()


def test_bytes_round_trip_with_padding():
    bits = BitString.from01("110100110")
    data = bits.to_bytes()
    assert data == bytes([0b11010011, 0b00000000])
    reader = BitReader(data, 9)
    assert reader.read_uint(9) == bits.uint
    assert reader.remaining == 0


def test_reader_reads_exact_counts():
    reader = BitReader(BitString.from01("110100110"))
    assert reader.read_uint(3) == 0b110
    assert reader.remaining == 6
    assert reader.read_uint(6) == 0b100110
    assert reader.remaining == 0


def test_reader_underflow():
    reader = BitReader(BitString.from01("101"))
    reader.read_uint(2)
    with pytest.raises(BitUnderflowError):
        reader.read_uint(2)
    # the failed read consumed nothing
    assert reader.remaining == 1


def test_peek_leaves_position_and_skip_advances():
    reader = BitReader(bytes([0b10110011, 0b01000000]), bit_count=11)
    reader.skip(2)
    assert reader.peek_uint(7) == 0b1100110
    assert reader.remaining == 9
    assert reader.read_uint(9) == 0b110011010
    with pytest.raises(BitUnderflowError):
        reader.peek_uint(1)
    with pytest.raises(BitUnderflowError):
        reader.skip(1)


@pytest.mark.parametrize("start", range(9))
def test_reads_match_bit_by_bit_at_every_offset(start):
    rng = random.Random(start)
    data = bytes(rng.randrange(256) for _ in range(5))
    bits = format(int.from_bytes(data, "big"), "040b")
    for count in range(0, 40 - start + 1):
        reader = BitReader(data)
        reader.skip(start)
        assert reader.read_uint(count) == int(bits[start:start + count] or "0", 2)
        assert reader.remaining == 40 - start - count


def test_reader_ignores_byte_padding_beyond_bit_count():
    reader = BitReader(bytes([0b10100000]), bit_count=3)
    assert reader.read_uint(3) == 0b101
    with pytest.raises(BitUnderflowError):
        reader.read_bit()


def test_writer_packs_msb_first():
    writer = BitWriter()
    writer.append(BitString.from01("110"))
    writer.append(BitString.from01("100110"))
    data, count = writer.getvalue()
    assert count == 9
    assert data == bytes([0b11010011, 0b00000000])


def test_writer_reader_stream_property():
    rng = random.Random(99)
    chunks = []
    writer = BitWriter()
    for _ in range(2000):
        width = rng.randrange(0, 21)
        value = rng.getrandbits(width) if width else 0
        chunks.append((value, width))
        writer.write_uint(value, width)
    data, count = writer.getvalue()
    assert count == sum(w for _, w in chunks)
    reader = BitReader(data, count)
    for value, width in chunks:
        assert reader.read_uint(width) == value
    assert reader.remaining == 0


def test_writer_rejects_oversized_values():
    writer = BitWriter()
    with pytest.raises(ValueError):
        writer.write_uint(8, 3)
