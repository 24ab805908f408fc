import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wbancomp.codec import RESIDUAL_MAX, RESIDUAL_MIN, codeword_bytes
from wbancomp.sink import Packet
from wbancomp.tracefile import PacketTrace, read_trace, write_trace


HEADER_KEYS = ["samples", "threshold", "adc_bits", "sample_period_ms"]


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
    with pytest.raises(ValueError,
                       match=rf"^{re.escape(str(path))}:2: expected "
                             r"'#samples=N', N a canonical non-negative "
                             r"integer$"):
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
    lineno = 2 + HEADER_KEYS.index(key)
    with pytest.raises(ValueError,
                       match=rf"t\.trace:{lineno}: expected '#{key}=N'"):
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
                       match=r"t\.trace:3: expected '#threshold=N'"):
        read_trace(path)


def test_header_key_after_first_packet_rejected(tmp_path):
    # A header line among the rows is a row of one cell.
    path = tmp_path / "t.trace"
    write_trace(path, sample_trace())
    text = path.read_text()
    path.write_text(text.replace("0,1,9,d300\n", "0,1,9,d300\n#adc_bits=4\n"))
    with pytest.raises(ValueError, match=r"t\.trace:7: 1 cells, expected 4$"):
        read_trace(path)


def test_comment_lines_are_rejected(tmp_path):
    # No writer writes one, in the header or among the rows.
    path = tmp_path / "t.trace"
    write_trace(path, sample_trace())
    text = path.read_text()
    for old, new, where in [
            ("#samples=", "# hand-made\n#samples=",
             r":2: expected '#samples=N'"),
            ("0,1,9,d300\n", "0,1,9,d300\n# gap\n", r":7: 1 cells")]:
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match=r"t\.trace" + where):
            read_trace(path)


def test_malformed_row_reports_packet_index(tmp_path):
    path = tmp_path / "t.trace"
    write_trace(path, sample_trace())
    text = path.read_text().replace("0,1,9,d300", "0,1,nine,d300")
    path.write_text(text)
    with pytest.raises(ValueError,
                       match=r"t\.trace:6: bit_count nine: not a canonical "
                             r"non-negative integer$"):
        read_trace(path)


@pytest.mark.parametrize("payload", ["ffff0", "ff ff 0"])
def test_odd_length_hex_is_named(tmp_path, payload):
    path = tmp_path / "t.trace"
    write_trace(path, PacketTrace(samples=2))
    with path.open("a") as handle:
        handle.write(f"1,1,20,{payload}\n")
    with pytest.raises(ValueError,
                       match=rf"t\.trace:6: payload {payload}: not lowercase "
                             r"hex of whole bytes$"):
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


# Packets as the encoder makes them, and any valid packet of a few bytes.
PACKETS = st.one_of(
    st.builds(lambda device_id, residual: Packet(device_id,
                                                 *codeword_bytes(residual)),
              st.integers(0, 255), st.integers(RESIDUAL_MIN, RESIDUAL_MAX)),
    st.integers(0, 32).flatmap(lambda bits: st.builds(
        Packet, st.integers(0, 255), st.just(bits),
        st.binary(min_size=(bits + 7) // 8, max_size=(bits + 7) // 8))))


@st.composite
def traces(draw):
    samples = draw(st.integers(1, 2**40))
    header = draw(st.tuples(*[st.integers(0, 2**40)] * 3))
    packets = draw(st.lists(st.tuples(st.integers(0, samples - 1), PACKETS),
                            max_size=6))
    return PacketTrace(samples, *header, packets=packets)


@given(traces())
def test_read_trace_inverts_write_trace(trace):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.trace"
        write_trace(path, trace)
        assert read_trace(path) == trace


# Characters a hand edit may bring: the trace's own, near misses, and line
# breaks that str.splitlines knows but the file format does not.
EDIT_CHARS = (st.sampled_from(list("0123456789abcdefABCDEF,#=+-_. \t\r\n"
                                   "\x0b\x0c\x1c"))
              | st.characters(min_codepoint=0x20, max_codepoint=0x7e))


@given(traces(), st.data())
def test_one_character_edit_reads_as_written_or_names_its_line(trace, data):
    # read_trace accepts exactly what write_trace writes: an edited trace
    # that reads back is written back to the same text, and any other names
    # the file and the line.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.trace"
        write_trace(path, trace)
        lines = path.read_text().split("\n")[:-1]
        index = data.draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        op = data.draw(st.sampled_from(["change", "insert", "delete"]))
        at = data.draw(st.integers(0, len(line) - (op != "insert")))
        char = "" if op == "delete" else data.draw(EDIT_CHARS)
        lines[index] = line[:at] + char + line[at + (op != "insert"):]
        path.write_text("\n".join(lines) + "\n")
        edited = path.read_text()
        try:
            read = read_trace(path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:[0-9]+: ", str(exc)), exc
            return
        write_trace(path, read)
        assert path.read_text() == edited
