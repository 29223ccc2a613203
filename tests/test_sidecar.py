import errno
import io
import os

import pytest
from hypothesis import given, strategies as st

from motionsieve import (
    MalformedRow,
    NonMonotonicIndex,
    SidecarRecord,
    SidecarWriter,
    SinkUnavailable,
    read_sidecar,
    write_sidecar,
)

HEADER = "input_frame,output_frame,full_frame\n"


def roundtrip(records):
    sink = io.StringIO()
    write_sidecar(records, sink)
    return read_sidecar(io.StringIO(sink.getvalue()))


def test_roundtrip_simple():
    records = [
        SidecarRecord(0, 0, True),
        SidecarRecord(3, 1, False),
        SidecarRecord(4, 2, False),
        SidecarRecord(250, 3, True),
    ]
    assert roundtrip(records) == records


def test_written_text_layout():
    sink = io.StringIO()
    write_sidecar([SidecarRecord(0, 0, True), SidecarRecord(7, 1, False)], sink)
    assert sink.getvalue() == HEADER + "0,0,1\n7,1,0\n"


def test_empty_sidecar_is_just_the_header():
    sink = io.StringIO()
    write_sidecar([], sink)
    assert sink.getvalue() == HEADER
    assert read_sidecar(io.StringIO(sink.getvalue())) == []


class _FaultySink:
    """A text sink that takes the header row, then raises ``write_error``
    from every write, or ``flush_error`` from every flush."""

    def __init__(self, write_error=None, flush_error=None):
        self.text = ""
        self.write_error = write_error
        self.flush_error = flush_error

    def write(self, text):
        if self.text and self.write_error is not None:
            raise self.write_error
        self.text += text
        return len(text)

    def flush(self):
        if self.flush_error is not None:
            raise self.flush_error


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_sidecar_writer_reports_a_full_disk_as_sink_unavailable(failing):
    full = OSError(errno.ENOSPC, "No space left on device")
    writer = SidecarWriter(_FaultySink(**{f"{failing}_error": full}))
    with pytest.raises(SinkUnavailable) as excinfo:
        if failing == "write":
            writer.write_row(SidecarRecord(0, 0, True))
        else:
            writer.flush()
    assert excinfo.value.__cause__ is full


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="/dev/full is absent")
def test_sidecar_writer_close_releases_its_stream_when_the_flush_fails():
    """A final flush into a full device raises SinkUnavailable from
    close(), and the stream is closed all the same."""
    stream = open("/dev/full", "w", encoding="utf-8", newline="")
    writer = SidecarWriter(stream)
    writer.write_row(SidecarRecord(0, 0, True))
    try:
        with pytest.raises(SinkUnavailable):
            writer.close()
        assert stream.closed
    finally:
        if not stream.closed:
            stream.buffer.raw.close()


def test_read_skips_a_blank_line():
    blank = HEADER + "0,0,1\n\n7,1,0\n"
    assert read_sidecar(io.StringIO(blank)) == [
        SidecarRecord(0, 0, True),
        SidecarRecord(7, 1, False),
    ]


def test_read_skips_a_byte_order_mark(tmp_path):
    """A sidecar that a spreadsheet re-saved with a UTF-8 byte-order mark
    reads as the same records, from a text file and from a string."""
    text = HEADER + "0,0,1\n7,1,0\n"
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    with open(path, encoding="utf-8", newline="") as source:
        from_file = read_sidecar(source)
    want = read_sidecar(io.StringIO(text))
    assert from_file == read_sidecar(io.StringIO("\ufeff" + text)) == want


def test_read_rejects_missing_header():
    with pytest.raises(MalformedRow):
        read_sidecar(io.StringIO("0,0,1\n"))
    with pytest.raises(MalformedRow):
        read_sidecar(io.StringIO(""))


def test_read_rejects_wrong_field_count():
    with pytest.raises(MalformedRow):
        read_sidecar(io.StringIO(HEADER + "0,0\n"))
    with pytest.raises(MalformedRow):
        read_sidecar(io.StringIO(HEADER + "0,0,1,9\n"))


@pytest.mark.parametrize(
    "row",
    ["a,0,1", "0,b,1", "0,0,x", "0,0,3", "0,0,-1", "-,0,1", ",0,1",
     # A field is ASCII digits with an optional leading "-": int() would
     # read these as 10, 5, 12, 1 and 1.
     "1_0,0,1", "+5,0,1", " 12 ,0,1", "0,\u0661,1", "0,0,+1"],
)
def test_read_rejects_bad_values(row):
    with pytest.raises(MalformedRow):
        read_sidecar(io.StringIO(HEADER + row + "\n"))


def test_read_names_a_negative_input_frame():
    with pytest.raises(MalformedRow, match="^row 1: negative input_frame$"):
        read_sidecar(io.StringIO(HEADER + "-3,0,1\n"))


@pytest.mark.parametrize("column, name", [(0, "input_frame"), (1, "output_frame")])
def test_read_names_an_overlong_field(column, name):
    # int() would refuse 5000 digits as if they were not a number at all.
    fields = ["0", "0", "1"]
    fields[column] = "9" * 5000
    row = ",".join(fields)
    message = rf"row 1: {name} is too long \(5000 characters\)"
    with pytest.raises(MalformedRow, match=message):
        read_sidecar(io.StringIO(HEADER + row + "\n"))


def test_read_accepts_a_20_digit_position():
    row = f"{10**19},0,1\n"
    assert read_sidecar(io.StringIO(HEADER + row)) == [SidecarRecord(10**19, 0, True)]


def test_read_rejects_undecodable_text():
    source = io.TextIOWrapper(io.BytesIO(HEADER.encode() + b"0,0,\xff\n"), "utf-8")
    with pytest.raises(MalformedRow, match="not UTF-8"):
        read_sidecar(source)


def test_read_reports_csv_errors_as_malformed_rows():
    # One field past the csv module's 128 KiB field limit.
    with pytest.raises(MalformedRow, match="field limit"):
        read_sidecar(io.StringIO(HEADER + "1" * 200_000 + ",0,1\n"))


@pytest.mark.parametrize(
    "text, row",
    [(HEADER + "0,0,1\n" + "1" * 5000, "row 2: line"), ("9" * 5000, "header row")],
    ids=["data-row", "header"],
)
def test_read_refuses_a_file_line_past_the_line_limit(tmp_path, text, row):
    """A text file is read one bounded line at a time, so a line with no
    end is refused by its length, naming its row, before csv holds it."""
    path = tmp_path / "long.csv"
    path.write_text(text, encoding="utf-8")
    with open(path, encoding="utf-8", newline="") as source:
        with pytest.raises(MalformedRow, match=f"^{row} is longer than 4096 characters$"):
            read_sidecar(source)


def test_read_rejects_negative_input():
    with pytest.raises(MalformedRow):
        read_sidecar(io.StringIO(HEADER + "-1,0,1\n"))


def test_read_rejects_non_increasing_input():
    text = HEADER + "0,0,1\n5,1,0\n5,2,0\n"
    with pytest.raises(NonMonotonicIndex):
        read_sidecar(io.StringIO(text))
    text = HEADER + "0,0,1\n5,1,0\n3,2,0\n"
    with pytest.raises(NonMonotonicIndex):
        read_sidecar(io.StringIO(text))


def test_read_rejects_output_gap():
    text = HEADER + "0,0,1\n5,2,0\n"
    with pytest.raises(NonMonotonicIndex):
        read_sidecar(io.StringIO(text))


def test_read_rejects_output_not_starting_at_zero():
    with pytest.raises(NonMonotonicIndex):
        read_sidecar(io.StringIO(HEADER + "0,1,1\n"))


@given(
    st.lists(st.tuples(st.integers(1, 9), st.booleans()), max_size=40),
    st.integers(0, 5),
)
def test_roundtrip_random(gaps_and_flags, first_input):
    """write then read is the identity for any schema-valid record list."""
    records = []
    input_frame = first_input
    for output_frame, (gap, full) in enumerate(gaps_and_flags):
        records.append(SidecarRecord(input_frame, output_frame, full))
        input_frame += gap
    assert roundtrip(records) == records


@pytest.mark.parametrize(
    "records, error, message",
    [
        ([SidecarRecord(-1, 0, True)], MalformedRow, "row 1: negative input_frame"),
        ([SidecarRecord(False, 0, True)], MalformedRow, "row 1: non-integer field"),
        ([SidecarRecord(0, 0, True), SidecarRecord(0, 1, False)], NonMonotonicIndex,
         "row 2: input_frame 0 after 0"),
        ([SidecarRecord(0, 0, True), SidecarRecord(5, 2, False)], NonMonotonicIndex,
         "row 2: output_frame 2, expected 1"),
        ([SidecarRecord(10**40, 0, True)], MalformedRow,
         r"row 1: input_frame is too long \(41 characters\)"),
    ],
    ids=["negative", "bool-index", "repeated-input", "output-gap", "overlong"],
)
def test_writer_refuses_a_row_the_reader_would_refuse(records, error, message):
    """write_sidecar raises, on the row itself, the error read_sidecar
    would raise on the text it wrote, and the sink keeps the rows before
    it, each written whole."""
    sink = io.StringIO()
    with pytest.raises(error, match=f"^{message}$"):
        write_sidecar(records, sink)
    assert read_sidecar(io.StringIO(sink.getvalue())) == records[:-1]

