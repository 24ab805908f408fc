"""The bit-string form of the codec: BitString, BitReader, encode_residual,
decode_residual and Packet.from_bits, which only the benchmark's traced
replay calls."""

import random

import pytest
from hypothesis import given, settings

from conftest import codeword_literal, literal_bits
from test_codec import oracle_decode, outcome, payload_value, payloads
from wbancomp.bitstream import (BitReader, BitString, decode_residual,
                                encode_residual)
from wbancomp.codec import RESIDUAL_MAX, RESIDUAL_MIN, codeword_bytes
from wbancomp.sink import Packet


def test_empty_bitstring():
    empty = BitString(0, 0)
    assert len(empty) == 0
    assert empty.to_bytes() == b""


def test_value_must_fit_length():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 4)
    with pytest.raises(ValueError):
        BitString(0, -1)


def test_leading_zeros_are_significant():
    bits = BitString(0b0001, 4)
    assert len(bits) == 4
    assert bits.to_bytes() == bytes([0b00010000])


def test_bytes_round_trip_with_padding():
    data = BitString(0b110100110, 9).to_bytes()
    assert data == bytes([0b11010011, 0b00000000])
    reader = BitReader(data, 9)
    assert reader.peek_uint(9) == 0b110100110
    reader.skip(9)
    assert reader.remaining == 0


def test_bit_count_must_fit_payload():
    with pytest.raises(ValueError):
        BitReader(bytes(1), 9)
    with pytest.raises(ValueError):
        BitReader(bytes(1), -1)


def test_peek_leaves_position_and_skip_advances():
    reader = BitReader(bytes([0b10110011, 0b01000000]), bit_count=11)
    reader.skip(2)
    assert reader.peek_uint(7) == 0b1100110
    assert reader.remaining == 9
    assert reader.peek_uint(9) == 0b110011010
    reader.skip(9)
    with pytest.raises(ValueError, match="requested"):
        reader.peek_uint(1)
    with pytest.raises(ValueError, match="cannot skip"):
        reader.skip(1)


def test_bit_indexing_msb_first():
    reader = BitReader(bytes([0b10110000]), 5)
    bits = []
    for _ in range(5):
        bits.append(reader.peek_uint(1))
        reader.skip(1)
    assert bits == [1, 0, 1, 1, 0]
    with pytest.raises(ValueError, match="requested"):
        reader.peek_uint(1)


def test_reader_reads_exact_counts():
    reader = BitReader(BitString(0b110100110, 9).to_bytes(), 9)
    assert reader.peek_uint(3) == 0b110
    reader.skip(3)
    assert reader.remaining == 6
    assert reader.peek_uint(6) == 0b100110
    reader.skip(6)
    assert reader.remaining == 0


def test_reader_underflow():
    reader = BitReader(bytes([0b10100000]), bit_count=3)
    reader.skip(2)
    with pytest.raises(ValueError, match="requested"):
        reader.peek_uint(2)
    with pytest.raises(ValueError, match="cannot skip"):
        reader.skip(2)
    # the failed reads consumed nothing
    assert reader.remaining == 1
    assert reader.peek_uint(1) == 1


@pytest.mark.parametrize("start", range(9))
def test_reads_match_bit_by_bit_at_every_offset(start):
    rng = random.Random(start)
    data = bytes(rng.randrange(256) for _ in range(5))
    bits = format(int.from_bytes(data, "big"), "040b")
    for count in range(0, 40 - start + 1):
        reader = BitReader(data, 40)
        reader.skip(start)
        assert reader.peek_uint(count) == int(bits[start:start + count] or "0", 2)
        reader.skip(count)
        assert reader.remaining == 40 - start - count


def test_reader_ignores_byte_padding_beyond_bit_count():
    reader = BitReader(bytes([0b10111111]), bit_count=3)
    assert reader.peek_uint(3) == 0b101
    with pytest.raises(ValueError, match="requested"):
        reader.peek_uint(4)


def reader_decode(data: bytes, bit_count: int) -> list[int]:
    """A payload decoded by decode_residual, one codeword per call."""
    reader = BitReader(data, bit_count)
    out = []
    while reader.remaining:
        out.append(decode_residual(reader))
    return out


def test_encode_residual_matches_the_table():
    for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
        bits = encode_residual(e)
        assert (len(bits), bits.to_bytes()) == codeword_bytes(e)
    with pytest.raises(ValueError, match="outside"):
        encode_residual(RESIDUAL_MAX + 1)


def test_packet_from_bits():
    packet = Packet.from_bits(7, encode_residual(38))
    assert packet == Packet(7, *literal_bits("110100110"))


def test_exhaustive_reader_round_trip():
    for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
        bit_count, payload = codeword_bytes(e)
        reader = BitReader(payload, bit_count)
        assert decode_residual(reader) == e
        assert reader.remaining == 0


def test_reader_advances_by_codeword_length():
    bit_count, payload = literal_bits(
        codeword_literal(38) + codeword_literal(-3) + codeword_literal(0))
    reader = BitReader(payload, bit_count)
    assert decode_residual(reader) == 38
    assert bit_count - reader.remaining == 9
    assert decode_residual(reader) == -3
    assert bit_count - reader.remaining == 14
    assert decode_residual(reader) == 0
    assert reader.remaining == 0


def test_every_short_string_reads_like_the_oracle():
    # Every bit string of up to 12 bits, as test_codec checks decode_bits.
    for length in range(13):
        for value in range(1 << length):
            data = (value << (-length % 8)).to_bytes((length + 7) // 8, "big")
            assert (outcome(reader_decode, data, length)
                    == outcome(oracle_decode, value, length))


@settings(max_examples=300)
@given(payloads())
def test_reader_decode_matches_oracle(payload):
    data, bit_count = payload
    assert (outcome(reader_decode, data, bit_count)
            == outcome(oracle_decode, payload_value(data, bit_count),
                       bit_count))
