import pytest

from wbancomp.codec import codeword_bytes
from wbancomp.sink import Packet
from wbancomp.tracefile import PacketTrace, read_trace, write_trace


def sample_trace():
    trace = PacketTrace(samples=10, threshold=1, adc_bits=10,
                        sample_period_ms=500)
    trace.packets = [
        (0, Packet(1, *codeword_bytes(38))),
        (4, Packet(1, *codeword_bytes(-3))),
        (9, Packet(1, *codeword_bytes(120))),
    ]
    return trace


def test_write_read_round_trip(tmp_path):
    path = tmp_path / "t.trace"
    trace = sample_trace()
    write_trace(path, trace)
    loaded = read_trace(path)
    assert loaded.samples == 10
    assert loaded.threshold == 1
    assert loaded.adc_bits == 10
    assert loaded.sample_period_ms == 500
    assert loaded.packets == trace.packets


def test_payload_is_hex_encoded(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, sample_trace())
    body = [line for line in path.read_text().splitlines()
            if not line.startswith("#")]
    assert body[0] == "0,1,9,d300"


def test_missing_magic_rejected(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("0,1,9,d300\n")
    with pytest.raises(ValueError, match="not a packet trace"):
        read_trace(path)


def test_bad_metadata_rejected(tmp_path):
    path = tmp_path / "t.trace"
    path.write_text("#packet-trace v1\n#samples=lots\n")
    with pytest.raises(ValueError, match="metadata"):
        read_trace(path)


@pytest.mark.parametrize("key, value", [
    ("samples", -1), ("threshold", -4), ("adc_bits", -1),
    ("sample_period_ms", -5),
])
def test_negative_header_value_rejected(tmp_path, key, value):
    # encode and simulate never write one; a negative threshold or period
    # would otherwise decode with exit 0.
    path = tmp_path / "t.trace"
    trace = sample_trace()
    setattr(trace, key, value)
    write_trace(path, trace)
    with pytest.raises(ValueError,
                       match=rf"t\.trace: bad trace metadata \({key} {value} "
                             r"is negative\)"):
        read_trace(path)


def test_zero_adc_bits_header_is_read(tmp_path):
    # simulate writes adc_bits=0 into its packet trace.
    path = tmp_path / "t.trace"
    write_trace(path, PacketTrace(samples=10, adc_bits=0))
    assert read_trace(path).adc_bits == 0


def test_unknown_header_key_rejected(tmp_path):
    # A misspelled key would otherwise be dropped in silence.
    path = tmp_path / "t.trace"
    path.write_text("#packet-trace v1\n#samples=3\n#sampels=3\n")
    with pytest.raises(ValueError,
                       match=r"bad trace metadata \(unknown key 'sampels'\)"):
        read_trace(path)


def test_header_key_after_first_packet_rejected(tmp_path):
    # Read as a comment, this line would leave adc_bits at its default.
    path = tmp_path / "t.trace"
    write_trace(path, sample_trace())
    text = path.read_text().replace("#adc_bits=10\n", "")
    path.write_text(text.replace("0,1,9,d300\n", "0,1,9,d300\n#adc_bits=4\n"))
    with pytest.raises(ValueError,
                       match="packet 1: header key 'adc_bits' outside the "
                             "header"):
        read_trace(path)


def test_lines_without_equals_stay_comments(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, sample_trace())
    text = path.read_text().replace("#samples=", "# hand-made\n#samples=")
    path.write_text(text.replace("0,1,9,d300\n", "0,1,9,d300\n# gap\n"))
    loaded = read_trace(path)
    assert (loaded.samples, loaded.adc_bits) == (10, 10)
    assert loaded.packets == sample_trace().packets


def test_malformed_row_reports_packet_index(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, sample_trace())
    text = path.read_text().replace("0,1,9,d300", "0,1,nine,d300")
    path.write_text(text)
    with pytest.raises(ValueError, match="packet 0"):
        read_trace(path)


@pytest.mark.parametrize("payload", ["ffff0", "ff ff 0"])
def test_odd_length_hex_is_named(tmp_path, payload):
    path = tmp_path / "t.trace"
    path.write_text(f"#packet-trace v1\n#samples=2\n1,1,20,{payload}\n")
    with pytest.raises(ValueError, match="packet 0: payload hex has an odd "
                                         "number of digits"):
        read_trace(path)


def test_sample_index_bounds_enforced(tmp_path):
    path = tmp_path / "t.trace"
    trace = sample_trace()
    trace.packets.append((10, Packet(1, *codeword_bytes(1))))
    write_trace(path, trace)
    with pytest.raises(ValueError, match="outside"):
        read_trace(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_trace("/nonexistent/x.trace")
