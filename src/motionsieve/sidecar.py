"""CSV sidecar mapping compressed frames back to source positions.

Schema: header ``input_frame,output_frame,full_frame``, then one row per
emitted frame.  ``input_frame`` is the 0-based position in the source
video, ``output_frame`` the 0-based position in the compressed video, and
``full_frame`` is 1 for unmasked reference frames, 0 for masked ones.
Rows appear in emit order, so input indices are strictly increasing and
output indices run 0, 1, 2, ... without gaps.

Reading streams: ``_records`` validates and yields one row at a time, so
a consumer holds one row whatever the sidecar's length; ``read_sidecar``
collects them into a list.  A text file, as ``open()`` returns it, is
read one line of at most ``_MAX_LINE`` characters at a time, so a line
with no end is refused before it fills memory.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import MalformedRow, NonMonotonicIndex
from .frame_io import _MAX_LINE, _Sink

FIELDNAMES = ("input_frame", "output_frame", "full_frame")
# Longest field accepted: a frame position needs at most 20 digits, and a
# longer field is refused by length before int() parses it.
_MAX_FIELD = 32


@dataclass(frozen=True)
class SidecarRecord:
    """One emitted frame: where it came from, where it landed, and whether
    it is a full reference frame."""

    input_frame: int
    output_frame: int
    full_frame: bool


class SidecarWriter(_Sink):
    """Streaming writer over a text sink, which it owns and fails on as a
    Y4MWriter does; the header row is written at construction.  A row
    that ``read_sidecar`` would refuse raises its error, unwritten."""

    def _start(self) -> None:
        self._previous_input, self._written = -1, 0
        self._write(",".join(FIELDNAMES) + "\n")

    def write_row(self, record: SidecarRecord) -> None:
        row = _checked_record(record, self._previous_input, self._written)
        self._write(f"{row.input_frame},{row.output_frame},{int(row.full_frame)}\n")
        self._previous_input, self._written = row.input_frame, self._written + 1


def write_sidecar(records: Iterable[SidecarRecord], sink: IO[str]) -> None:
    writer = SidecarWriter(sink)
    for record in records:
        writer.write_row(record)


def read_sidecar(source: Iterable[str]) -> list[SidecarRecord]:
    """Parse and validate a whole sidecar CSV: the rows of ``_records`` as
    one list, so every error it raises surfaces before this returns."""
    return list(_records(source))


def _records(source: Iterable[str]) -> Iterator[SidecarRecord]:
    """Yield each row of a sidecar CSV, validated, as it is pulled.

    Raises MalformedRow for schema violations (bad header, wrong field
    count, non-integer or overlong values, flags outside {0, 1}) and for
    text that cannot be decoded or split into CSV rows, or a text file's
    line longer than ``_MAX_LINE`` characters, and NonMonotonicIndex when
    row order breaks the strictly-increasing-input / consecutive-output
    invariants.  Each error surfaces when the row that holds it is pulled,
    after the rows before it were yielded.
    """
    if isinstance(source, io.TextIOWrapper):
        source = _bounded_lines(source)
    reader = csv.reader(source)
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow("missing header row")
        # A spreadsheet that re-saves the file may put a byte-order mark first.
        if header and header[0].startswith("\ufeff"):
            header[0] = header[0][1:]
        if tuple(header) != FIELDNAMES:
            raise MalformedRow(f"bad header row {header!r}")
        previous_input, yielded = -1, 0
        for row_number, row in enumerate(reader, start=1):
            if not row:
                continue
            record = _checked_row(row_number, row, previous_input, yielded)
            previous_input, yielded = record.input_frame, yielded + 1
            yield record
    except UnicodeDecodeError:
        # A text file decodes lazily, as rows are pulled.
        raise MalformedRow("sidecar is not UTF-8 text") from None
    except csv.Error as exc:
        raise MalformedRow(str(exc)) from None


def _checked_row(
    row_number: int, row: list[str], previous_input: int, output: int
) -> SidecarRecord:
    """The record that a row's text fields give, once they pass the schema
    (three fields, each an integer of at most ``_MAX_FIELD`` characters,
    the flag 0 or 1, the input not negative) and follow a row whose input
    was ``previous_input`` (-1 for the first) at output position
    ``output``.  Raises MalformedRow or NonMonotonicIndex naming
    ``row_number``."""
    if len(row) != 3:
        raise MalformedRow(f"row {row_number}: expected 3 fields, got {len(row)}")
    for name, field in zip(FIELDNAMES, row):
        if len(field) > _MAX_FIELD:
            raise MalformedRow(
                f"row {row_number}: {name} is too long ({len(field)} characters)"
            )
    try:
        input_frame, output_frame, flag = (int(field) for field in row)
    except ValueError:
        raise MalformedRow(f"row {row_number}: non-integer field") from None
    if flag not in (0, 1):
        raise MalformedRow(f"row {row_number}: full_frame must be 0 or 1")
    if input_frame < 0:
        raise MalformedRow(f"row {row_number}: negative input_frame")
    if input_frame <= previous_input:
        raise NonMonotonicIndex(
            f"row {row_number}: input_frame {input_frame} after {previous_input}"
        )
    if output_frame != output:
        raise NonMonotonicIndex(
            f"row {row_number}: output_frame {output_frame}, expected {output}"
        )
    return SidecarRecord(input_frame, output_frame, bool(flag))


def _checked_record(
    record: SidecarRecord, previous_input: int, output: int
) -> SidecarRecord:
    """The record that ``_checked_row`` reads from the fields ``record``
    would be written as, at row ``output + 1`` after a row whose input was
    ``previous_input``: a record that ``read_sidecar`` could not read back
    raises the error the reader would raise."""
    fields = record.input_frame, record.output_frame, int(record.full_frame)
    return _checked_row(
        output + 1, [str(field) for field in fields], previous_input, output
    )


def _bounded_lines(stream: IO[str]) -> Iterator[str]:
    """Each line of a text file, read at most ``_MAX_LINE`` characters at a
    time; a longer line raises MalformedRow naming its row, the header
    being row 0."""
    lines = iter(lambda: stream.readline(_MAX_LINE), "")
    for row_number, line in enumerate(lines):
        if len(line) == _MAX_LINE and not line.endswith("\n"):
            name = f"row {row_number}: line" if row_number else "header row"
            raise MalformedRow(f"{name} is longer than {_MAX_LINE} characters")
        yield line
