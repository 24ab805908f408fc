from pathlib import Path

from hypothesis import settings

from wbancomp.codec import codeword_bytes
from wbancomp.control import DeviceState
from wbancomp.sink import Packet, Sink

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"
DATA_DIR = Path(__file__).resolve().parent / "data"

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result does not depend on earlier runs.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def literal_bits(bits: str) -> tuple[int, bytes]:
    """(bit_count, payload) of a bit literal like '110100110', as
    codeword_bytes gives them: MSB first, zero-padded to a byte boundary."""
    bit_count = len(bits)
    value = int(bits or "0", 2) << (-bit_count % 8)
    return bit_count, value.to_bytes((bit_count + 7) // 8, "big")


def codeword_literal(residual: int) -> str:
    """The residual's codeword as a bit literal."""
    bit_count, payload = codeword_bytes(residual)
    return format(int.from_bytes(payload, "big") >> (-bit_count % 8),
                  f"0{bit_count}b")


def run_pipeline(codes, threshold, suppress_zero=True, device_id=1, adc_bits=10):
    """Filter, encode, packetize, and reconstruct one stream end to end.

    Returns (per-sample reconstruction at the sink, delivered packets).
    """
    state = DeviceState(device_id=device_id, threshold=threshold,
                        suppress_zero=suppress_zero, adc_bits=adc_bits)
    sink = Sink()
    sink.register_device(device_id)
    reconstructed = []
    packets = []
    for code in codes:
        residual = state.process_sample(code)
        if residual is not None:
            packet = Packet(device_id, *codeword_bytes(residual))
            packets.append(packet)
            sink.on_packet(packet)
        reconstructed.append(sink.held_value(device_id))
    return reconstructed, packets
