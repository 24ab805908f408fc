import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wbancomp
from wbancomp import _INT, _row_fault
from wbancomp.cli import main
from wbancomp.codec import RESIDUAL_MAX, RESIDUAL_MIN, codeword_bytes
from wbancomp.sink import Packet
from wbancomp.tracefile import (_COLUMNS, _HEADER, MAGIC, PacketTrace,
                                read_trace, write_trace)


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


def test_trace_equal_when_every_field_is():
    trace = sample_trace()
    assert trace == sample_trace()
    for name, value in (("samples", 11), ("threshold", 2), ("adc_bits", 11),
                        ("sample_period_ms", 501),
                        ("packets", trace.packets[:2])):
        other = sample_trace()
        setattr(other, name, value)
        assert trace != other, name
    assert trace.__eq__(trace.packets) is NotImplemented
    assert trace != trace.packets


def test_each_trace_gets_its_own_packet_list():
    first, second = PacketTrace(samples=1), PacketTrace(samples=1)
    first.packets.append((0, Packet(1, 0, b"")))
    assert second.packets == []
    assert (first.threshold, first.adc_bits,
            first.sample_period_ms) == (0, 10, 0)


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


def reference_read_trace(path) -> PacketTrace:
    """read_trace one line at a time, as tracefile read rows before it read
    blocks: the reference the block reader must agree with. Each line is
    checked in file order against the header line or the row grammar, then
    the seq bound, then the Packet."""
    path = Path(path)
    with path.open(errors="backslashreplace", newline="\n") as handle:
        lines = handle.read().split("\n")
    if lines[-1]:
        lines.append("")
    row = re.compile("({}),({}),((?:{}),(?:{}))".format(
        *(pattern for pattern, *_ in _COLUMNS.values())))
    lineno = 1
    try:
        if lines[0] != MAGIC:
            raise ValueError(f"not a packet trace file: expected {MAGIC!r}")
        header = {}
        for lineno, name in enumerate(_HEADER, start=2):
            line = lines[lineno - 1]
            if not re.fullmatch(f"#{name}=(?:{_INT[0]})", line):
                raise ValueError(f"expected '#{name}=N', N {_INT[1]}")
            if len(line) - len(f"#{name}=") > len(str(sys.maxsize)):
                raise ValueError(f"#{name}: more digits than sys.maxsize")
            header[name] = int(line[len(name) + 2:])
        trace = PacketTrace(**header)
        for lineno, line in enumerate(lines[lineno:-1], start=lineno + 1):
            match = row.fullmatch(line)
            if match is None:
                raise ValueError(_row_fault(_COLUMNS, line))
            seq, device_id, cells = match.groups()
            # Canonical ints order by length, then as text; int() would
            # refuse a seq past its digit limit.
            limit = str(trace.samples)
            if (len(seq), seq) >= (len(limit), limit):
                raise ValueError(f"seq {seq}: outside [0, {trace.samples})")
            trace.packets.append(
                (int(seq), Packet.from_cells(device_id, cells)))
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    return trace


def outcome(read, path, hint: int = wbancomp._BLOCK_HINT):
    """What read gives for the file at path, or the text it raises, with
    tracefile reading blocks of `hint`."""
    with mock.patch.object(wbancomp, "_BLOCK_HINT", hint):
        try:
            return read(path)
        except ValueError as exc:
            return str(exc)


def decode_error(path, hint: int = wbancomp._BLOCK_HINT) -> str:
    """What decode prints to stderr for the trace at path, with tracefile
    reading blocks of `hint`."""
    err = io.StringIO()
    with (mock.patch.object(wbancomp, "_BLOCK_HINT", hint),
          contextlib.redirect_stderr(err),
          contextlib.redirect_stdout(io.StringIO())):
        main(["decode", str(path)])
    return err.getvalue()


# A tiny block of a few rows, and the default.
HINTS = [40, wbancomp._BLOCK_HINT]
# A cell past the interpreter's 4,300-digit limit on int().
LONG_CELL = "9" * 5000
# Row edits: a grammar fault, a Packet fault (one byte cannot hold 20 bits),
# a device id or bit count past its bound, short or past int()'s limit, a
# seq at #samples, one a digit longer and one past int()'s limit, and a
# valid row.
ROW_EDITS = st.sampled_from(["1,1,9,d3x0", "1,1,9,D300", "1,1,20,ff",
                             "1,256,9,d300", "1,1,65536,ff",
                             "{samples},1,9,d300",
                             "{samples}0,1,9,d300", LONG_CELL + ",1,9,d300",
                             f"1,{LONG_CELL},9,d300", f"1,1,{LONG_CELL},ff",
                             "1,1,9,d300\r", "1,1,9,d300"])


@settings(max_examples=200)
@given(st.integers(2, 40), st.lists(st.tuples(st.integers(0, 60), ROW_EDITS),
                                    max_size=3),
       st.sampled_from(HINTS))
def test_block_reader_agrees_with_the_line_reader(samples, edits, hint):
    # Rows of device 1 with a few lines replaced: the first fault in file
    # order is named, in any block size, by read_trace and by decode.
    trace = PacketTrace(samples=samples, packets=[
        (seq % samples, Packet(1, *codeword_bytes(seq % 7 - 3)))
        for seq in range(60)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.trace"
        write_trace(path, trace)
        lines = path.read_text().split("\n")
        for index, row in edits:
            # Line 66 is the empty piece past the last newline.
            lines[5 + index] = row.format(samples=samples)
        path.write_text("\n".join(lines))
        expected = outcome(reference_read_trace, path)
        assert outcome(read_trace, path, hint) == expected
        if isinstance(expected, str):
            assert decode_error(path, hint) == f"error: {expected}\n"
        else:
            assert not re.match(rf"error: {re.escape(str(path))}:[0-9]",
                                decode_error(path, hint))


@pytest.mark.parametrize("hint", HINTS)
@pytest.mark.parametrize("edits, fault", [
    ({30: "1,1,20,ff", 31: "1,1,9,d3x0"},
     "30: payload of 1 bytes cannot hold exactly 20 bits"),
    ({30: "1,1,9,d3x0", 31: "1,1,20,ff"},
     "30: payload d3x0: not lowercase hex of whole bytes"),
    ({12: "1,1,20,ff", 40: "1,1,9,d3x0"},
     "12: payload of 1 bytes cannot hold exactly 20 bits"),
    ({12: "40,1,9,d300", 40: "1,1,9,d3x0"}, "12: seq 40: outside [0, 40)"),
    ({12: "1,1,9,d3x0", 40: "40,1,9,d300"},
     "12: payload d3x0: not lowercase hex of whole bytes"),
    ({45: "40,1,9,d300"}, "45: seq 40: outside [0, 40)"),
    ({30: LONG_CELL + ",1,9,d300"}, f"30: seq {LONG_CELL}: outside [0, 40)"),
    ({30: "40,1,9,d300", 31: LONG_CELL + ",1,9,d300"},
     "30: seq 40: outside [0, 40)"),
    ({30: LONG_CELL + ",1,9,d300", 31: "40,1,9,d300"},
     f"30: seq {LONG_CELL}: outside [0, 40)"),
    ({30: f"1,{LONG_CELL},9,d300"},
     f"30: device_id {LONG_CELL} outside [0, 255]"),
    ({30: f"1,1,{LONG_CELL},ff"},
     f"30: bit_count {LONG_CELL} outside [0, 65535]"),
    ({30: f"1,256,{LONG_CELL},ff"}, "30: device_id 256 outside [0, 255]"),
], ids=["packet-fault-then-grammar-fault", "grammar-fault-then-packet-fault",
        "packet-fault-blocks-before-a-grammar-fault",
        "seq-fault-blocks-before-a-grammar-fault",
        "grammar-fault-blocks-before-a-seq-fault", "seq-at-samples",
        "seq-past-the-int-digit-limit", "seq-fault-then-long-seq",
        "long-seq-then-seq-fault", "device-id-past-the-int-digit-limit",
        "bit-count-past-the-int-digit-limit",
        "device-id-named-before-a-long-bit-count"])
def test_first_fault_in_file_order_across_blocks(tmp_path, hint, edits,
                                                 fault):
    # Lines 6 to 45 hold 40 rows, three or so to a block of the tiny hint.
    path = tmp_path / "t.trace"
    write_trace(path, PacketTrace(samples=40, packets=[
        (seq, Packet(1, *codeword_bytes(1))) for seq in range(40)]))
    lines = path.read_text().split("\n")
    for lineno, row in edits.items():
        lines[lineno - 1] = row
    path.write_text("\n".join(lines))
    expected = f"{path}:{fault}"
    assert outcome(reference_read_trace, path) == expected
    assert outcome(read_trace, path, hint) == expected
    assert decode_error(path, hint) == f"error: {expected}\n"
