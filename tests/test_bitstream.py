"""The codec one codeword at a time: BitReader, encode_residual,
decode_residual and Packet.from_bits, which only the benchmark's traced
replay calls."""

import random

import pytest
from hypothesis import given, settings

from conftest import codeword_literal, literal_bits
from test_codec import oracle_decode, outcome, payload_value, payloads
from wbancomp.bitstream import BitReader, decode_residual, encode_residual
from wbancomp.codec import RESIDUAL_MAX, RESIDUAL_MIN, codeword_bytes
from wbancomp.sink import Packet


def test_bit_count_must_fit_payload():
    with pytest.raises(ValueError):
        BitReader(bytes(1), 9)
    with pytest.raises(ValueError):
        BitReader(bytes(1), -1)


def reader_decode(data: bytes, bit_count: int) -> list[int]:
    """A payload decoded by decode_residual, one codeword per call."""
    reader = BitReader(data, bit_count)
    out = []
    while reader.remaining:
        out.append(decode_residual(reader))
    return out


def test_reader_underflow():
    # A codeword cut short raises and leaves the read position where it was.
    bit_count, payload = literal_bits(codeword_literal(38)
                                      + codeword_literal(-3)[:3])
    reader = BitReader(payload, bit_count)
    assert decode_residual(reader) == 38
    for _ in range(2):
        with pytest.raises(ValueError, match="stream ended"):
            decode_residual(reader)
        assert reader.remaining == 3


@pytest.mark.parametrize("start", range(9))
def test_reads_match_bit_by_bit_at_every_offset(start):
    # Lead codewords of 8 + start bits (0 takes 3 bits, 1 takes 4) put the
    # codeword after them at bit `start` of a byte; a random tail of up to
    # 20 bits after it must not change how it reads.
    fours = (8 + start) % 3
    lead = [0] * ((8 + start - 4 * fours) // 3) + [1] * fours
    rng = random.Random(start)
    for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
        tail = format(rng.getrandbits(20), "020b")[:rng.randrange(21)]
        bit_count, payload = literal_bits(
            "".join(map(codeword_literal, [*lead, e])) + tail)
        reader = BitReader(payload, bit_count)
        assert [decode_residual(reader) for _ in lead] == lead
        assert decode_residual(reader) == e
        assert reader.remaining == len(tail)


def test_reader_ignores_byte_padding_beyond_bit_count():
    # Pad bits set past bit_count read exactly as clear ones do.
    for length in range(13):
        pad = -length % 8
        for value in range(1 << length):
            nbytes = (length + 7) // 8
            clear = (value << pad).to_bytes(nbytes, "big")
            padded = (value << pad | (1 << pad) - 1).to_bytes(nbytes, "big")
            assert (outcome(reader_decode, padded, length)
                    == outcome(reader_decode, clear, length))


def test_encode_residual_matches_the_table():
    for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
        assert encode_residual(e) == codeword_bytes(e)
    with pytest.raises(ValueError, match="outside"):
        encode_residual(RESIDUAL_MAX + 1)


def test_packet_from_bits():
    assert (Packet.from_bits(7, encode_residual(38))
            == Packet(7, *literal_bits("110100110")))
    for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
        assert Packet.from_bits(7, encode_residual(e)) == Packet(7, *codeword_bytes(e))


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
