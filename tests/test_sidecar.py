import io

import pytest
from hypothesis import given, strategies as st

from motionsieve import (
    MalformedRow,
    NonMonotonicIndex,
    SidecarRecord,
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


def test_read_skips_a_blank_line():
    blank = HEADER + "0,0,1\n\n7,1,0\n"
    assert read_sidecar(io.StringIO(blank)) == [
        SidecarRecord(0, 0, True),
        SidecarRecord(7, 1, False),
    ]


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


@pytest.mark.parametrize("row", ["a,0,1", "0,b,1", "0,0,x", "0,0,3", "0,0,-1"])
def test_read_rejects_bad_values(row):
    with pytest.raises(MalformedRow):
        read_sidecar(io.StringIO(HEADER + row + "\n"))


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
