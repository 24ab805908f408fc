import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import codeword_literal, literal_bits
from wbancomp.codec import (RESIDUAL_MAX, RESIDUAL_MIN, codeword_bytes,
                            decode_bits)
from wbancomp.sink import Packet, Sink


def packet_for(device_id, *residuals):
    return Packet(device_id,
                  *literal_bits("".join(map(codeword_literal, residuals))))


def decoded_value(start, packet):
    """What the sink returns for a packet, written as a plain decode of all
    its bits: the reference plus every residual, and set pad bits or no
    codeword an error."""
    pad = 8 * len(packet.payload) - packet.bit_count
    word = int.from_bytes(packet.payload, "big")
    if word % (1 << pad):
        raise ValueError("pad bits past bit_count are set")
    residuals = decode_bits(word >> pad, packet.bit_count)
    if not residuals:
        raise ValueError("packet carries no codewords")
    return start + sum(residuals)


def outcome(call, *args):
    """What a call returns, or the text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def packets(draw):
    """Arbitrary bits for a packet: up to three codewords with stray bits
    after them and any pad bits, or arbitrary bytes and a bit count."""
    if draw(st.booleans()):
        data = draw(st.binary(max_size=8))
        bit_count = draw(st.integers(max(0, 8 * len(data) - 7), 8 * len(data)))
        return Packet(1, bit_count, data)
    words = draw(st.lists(st.integers(RESIDUAL_MIN, RESIDUAL_MAX), max_size=3))
    bits = "".join(map(codeword_literal, words))
    bits += draw(st.text("01", max_size=12))
    bit_count, payload = literal_bits(bits)
    pad = draw(st.integers(0, (1 << (-bit_count % 8)) - 1))
    value = int.from_bytes(payload, "big") | pad
    return Packet(1, bit_count, value.to_bytes(len(payload), "big"))


class TestPacket:
    def test_layout(self):
        packet = Packet(7, *literal_bits("110100110"))
        assert packet.bit_count == 9
        assert packet.payload == bytes([0b11010011, 0b00000000])

    def test_bit_count_must_match_payload(self):
        with pytest.raises(ValueError):
            Packet(1, 9, bytes(1))  # 9 bits need 2 bytes
        with pytest.raises(ValueError):
            Packet(1, 9, bytes(3))  # a byte too many

    def test_device_id_range(self):
        with pytest.raises(ValueError):
            Packet(256, 3, bytes(1))

    def test_equal_when_every_field_is(self):
        packet = Packet(7, 9, bytes([0b11010011, 0]))
        assert packet == Packet(7, *literal_bits("110100110"))
        for other in (Packet(8, 9, packet.payload),
                      Packet(7, 10, packet.payload),
                      Packet(7, 9, bytes([0b11010011, 0b10000000]))):
            assert packet != other
        assert packet.__eq__((7, 9, packet.payload)) is NotImplemented
        assert packet != (7, 9, packet.payload)


class TestSink:
    def test_register_starts_reference_at_zero(self):
        sink = Sink()
        sink.register_device(7)
        assert sink.held_value(7) == 0

    def test_duplicate_registration_rejected(self):
        sink = Sink()
        sink.register_device(7)
        with pytest.raises(ValueError, match="already registered"):
            sink.register_device(7)

    def test_three_distinct_registrations(self):
        sink = Sink()
        for device in (1, 2, 3):
            sink.register_device(device)
        for device in (1, 2, 3):
            assert sink.held_value(device) == 0

    def test_unknown_device_rejected(self):
        sink = Sink()
        with pytest.raises(ValueError, match="not registered"):
            sink.on_packet(packet_for(9, 38))
        with pytest.raises(ValueError, match="not registered"):
            sink.held_value(9)

    def test_golden_packet(self):
        sink = Sink()
        sink.register_device(1)
        assert sink.on_packet(packet_for(1, 38)) == 38
        assert sink.held_value(1) == 38

    def test_zero_delta_packet(self):
        sink = Sink()
        sink.register_device(1)
        sink.on_packet(packet_for(1, 38))
        assert sink.on_packet(packet_for(1, 0)) == 38

    def test_plus_two_decodes_to_forty(self):
        sink = Sink()
        sink.register_device(1)
        sink.on_packet(packet_for(1, 38))
        packet = packet_for(1, 2)
        assert packet == Packet(1, *literal_bits("01010"))
        assert sink.on_packet(packet) == 40

    def test_held_value_is_idempotent(self):
        sink = Sink()
        sink.register_device(1)
        sink.on_packet(packet_for(1, 38))
        assert sink.held_value(1) == sink.held_value(1) == 38

    def test_reference_is_sum_of_decoded_residuals(self):
        rng = random.Random(3)
        sink = Sink()
        sink.register_device(5)
        total = 0
        for _ in range(500):
            e = rng.randint(-2047, 2047)
            total += e
            assert sink.on_packet(packet_for(5, e)) == total
        assert sink.held_value(5) == total

    def test_multi_codeword_packet_applies_in_order(self):
        sink = Sink()
        sink.register_device(1)
        assert sink.on_packet(packet_for(1, 38, 2, -3)) == 37
        assert sink.held_value(1) == 37

    def test_decode_error_leaves_reference_untouched(self):
        sink = Sink()
        sink.register_device(1)
        sink.on_packet(packet_for(1, 38))
        # drop the final bit: the last codeword is incomplete
        bits = codeword_literal(2) + codeword_literal(5)
        broken = Packet(1, *literal_bits(bits[:-1]))
        with pytest.raises(ValueError, match="stream ended inside a codeword"):
            sink.on_packet(broken)
        assert sink.held_value(1) == 38

    def test_set_pad_bits_rejected(self):
        # d380 is the codeword of 39; the same bits with the pads set are
        # not a payload the encoder writes.
        sink = Sink()
        sink.register_device(1)
        sink.on_packet(packet_for(1, 5))
        with pytest.raises(ValueError, match="pad bits past bit_count"):
            sink.on_packet(Packet(1, 9, bytes.fromhex("d3ff")))
        assert sink.held_value(1) == 5
        assert sink.on_packet(Packet(1, 9, bytes.fromhex("d380"))) == 44

    def test_empty_payload_rejected(self):
        sink = Sink()
        sink.register_device(1)
        with pytest.raises(ValueError):
            sink.on_packet(Packet(1, 0, b""))

    def test_independent_devices(self):
        sink = Sink()
        sink.register_device(1)
        sink.register_device(2)
        sink.on_packet(packet_for(1, 100))
        sink.on_packet(packet_for(2, 7))
        assert sink.held_value(1) == 100
        assert sink.held_value(2) == 7

    @settings(max_examples=300)
    @given(st.integers(-2047, 2047), packets())
    def test_on_packet_decodes_as_its_bits_do(self, start, packet):
        sink = Sink()
        sink.register_device(1)
        sink.on_packet(packet_for(1, start))
        expected = outcome(decoded_value, start, packet)
        assert outcome(sink.on_packet, packet) == expected
        assert sink.held_value(1) == (start if isinstance(expected, str)
                                      else expected)

    def test_decode_totality_over_encoder_outputs(self):
        # Every packet the encoder writes is a lookup hit, and must decode
        # as its bits do.
        sink = Sink()
        sink.register_device(1)
        value = 0
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            packet = Packet(1, *codeword_bytes(e))
            expected = decoded_value(value, packet)
            value = sink.on_packet(packet)
            assert value == expected == sink.held_value(1)

    @settings(max_examples=300)
    @given(st.integers(-2047, 2047), st.integers(0, 64), st.data())
    def test_failed_packet_leaves_reference_untouched(self, start, bit_count,
                                                      data):
        # Any payload bytes the bit count fits, pad bits included.
        payload = data.draw(st.binary(min_size=(bit_count + 7) // 8,
                                      max_size=(bit_count + 7) // 8))
        packet = Packet(1, bit_count, payload)
        sink = Sink()
        sink.register_device(1)
        sink.on_packet(packet_for(1, start))
        try:
            value = sink.on_packet(packet)
        except ValueError:
            assert sink.held_value(1) == start
        else:
            assert sink.held_value(1) == value

    @settings(max_examples=300)
    @given(st.integers(-2047, 2047), packets())
    def test_on_cells_decodes_as_on_packet(self, start, packet):
        # Encoder payloads take the text lookup, any other the bytes path.
        cells = f"{packet.bit_count},{packet.payload.hex()}"
        results = []
        for decode in (Sink.on_packet, Sink.on_cells):
            sink = Sink()
            sink.register_device(1)
            sink.on_packet(packet_for(1, start))
            args = (packet,) if decode is Sink.on_packet else (1, cells)
            results.append((outcome(decode, sink, *args), sink.held_value(1)))
        assert results[0] == results[1]

    def test_on_cells_takes_every_encoder_payload(self):
        sink = Sink()
        sink.register_device(1)
        value = 0
        for e in range(RESIDUAL_MIN, RESIDUAL_MAX + 1):
            bits, payload = codeword_bytes(e)
            value += e
            assert sink.on_cells(1, f"{bits},{payload.hex()}") == value

    def test_on_cells_rejects_an_unregistered_device(self):
        sink = Sink()
        sink.register_device(1)
        # A hit, a miss, and misses whose payload is at fault too: the
        # registration check comes first, as in on_packet.
        for cells in ("9,d300", "4,e0", "9,d3ff", "9,d3", "x,d300", "4"):
            with pytest.raises(ValueError, match="device 2 not registered"):
                sink.on_cells(2, cells)
        assert sink.held_value(1) == 0
