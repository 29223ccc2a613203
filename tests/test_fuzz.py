"""Hostile bytes: each reader over a mutated input yields only frames or
rows that pass its own checks, or raises a MotionSieveError, and through
``python -m motionsieve.cli`` a hostile input ends in one error line.

The inputs are small valid GRAY8, 4:2:0 and 4:4:4 Y4M clips, their raw
payloads and a sidecar text, mutated by byte flips, inserted bytes, cut
runs and truncation.  A mutated clip is also read through a decode
command's pipe.
"""

import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from motionsieve import (
    CodecDecoder,
    MotionConfig,
    MotionSieveError,
    PixelFormat,
    RawReader,
    StreamHeader,
    TruncatedFrame,
    Y4MReader,
    Y4MWriter,
    read_sidecar,
    reference_compress,
    write_sidecar,
)
from motionsieve.frame_io import serialize_y4m_header
from synth import frames_to_y4m, moving_square_video, records_to_csv

_CONFIG = MotionConfig(downscale=1, min_motion_pixels=1)


def _clip(pixel_format):
    """A valid 8x6 clip of four frames in ``pixel_format``, as its header,
    frames and Y4M bytes."""
    header = StreamHeader(8, 6, 25, 1, pixel_format)
    frames = moving_square_video(8, 6, 4, pixel_format, size=2, step=2)
    return header, frames, frames_to_y4m(header, frames)


_CLIPS = {pixel_format: _clip(pixel_format) for pixel_format in PixelFormat}
_GRAY_HEADER, _GRAY_FRAMES, _GRAY_Y4M = _CLIPS[PixelFormat.GRAY8]
_KEPT, _ROWS = reference_compress(_GRAY_FRAMES, _CONFIG)
_SIDECAR = records_to_csv(_ROWS).encode()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to four edits, each a byte flip, bytes inserted,
    a run cut out or a truncation, at any position."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "insert", "cut", "truncate"]))
        if edit == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "cut":
            del data[at:at + draw(st.integers(1, 64))]
        elif edit == "truncate":
            del data[at:]
    return bytes(data)


def _read_until_error(make_reader):
    """The header and the frames that ``make_reader()`` yields, and the
    MotionSieveError that ended them, or None; any other error escapes."""
    header, frames = None, []
    try:
        with make_reader() as reader:
            header = reader.header
            for frame in reader:
                frames.append(frame)
    except MotionSieveError as exc:
        return header, frames, exc
    return header, frames, None


def _assert_frames_fit(header, frames):
    """Each frame is numbered in read order and has the header's layout."""
    for index, frame in enumerate(frames):
        assert frame.index == index
        assert (frame.width, frame.height, frame.pixel_format) == (
            header.width, header.height, header.pixel_format
        )
        assert len(frame.data) == header.frame_size()


@settings(max_examples=300)
@given(data=st.sampled_from(list(PixelFormat)).flatmap(
    lambda pixel_format: mutated(_CLIPS[pixel_format][2])
))
def test_a_mutated_y4m_clip_reads_as_frames_that_write_back(data):
    """Y4MReader yields frames of its own header or raises a
    MotionSieveError.  Whatever it read, Y4MWriter writes back under the
    read header without error, and that reads back as the same header and
    frames."""
    header, frames, _ = _read_until_error(lambda: Y4MReader(io.BytesIO(data)))
    if header is None:
        return
    _assert_frames_fit(header, frames)
    sink = io.BytesIO()
    writer = Y4MWriter(sink, header)
    for frame in frames:
        writer.write_frame(frame)
    with Y4MReader(io.BytesIO(sink.getvalue())) as reader:
        assert reader.header == header
        assert list(reader) == frames


class _SeenDecoder(CodecDecoder):
    """A CodecDecoder that keeps itself in ``seen`` once its child runs,
    so a test can reach a child whose constructor raised."""

    seen: list = []

    def _start(self) -> None:
        self.seen.append(self)
        super()._start()


@settings(max_examples=25, deadline=None)
@given(data=st.sampled_from(list(PixelFormat)).flatmap(
    lambda pixel_format: mutated(_CLIPS[pixel_format][2])
))
def test_a_mutated_y4m_clip_reads_through_a_decode_command(data):
    """CodecDecoder over ``cat`` yields the frames and raises the error that
    Y4MReader gives on the same bytes in memory, so only frames of its own
    header or a MotionSieveError.  Once the ``with`` block is left, the
    child is reaped and its process group is gone."""
    _SeenDecoder.seen.clear()
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "clip.y4m")
        with open(path, "wb") as clip:
            clip.write(data)
        header, frames, error = _read_until_error(
            lambda: _SeenDecoder("cat {input}", path)
        )
    want_header, want_frames, want_error = _read_until_error(
        lambda: Y4MReader(io.BytesIO(data))
    )
    assert (header, frames) == (want_header, want_frames)
    assert type(error) is type(want_error), (error, want_error)
    if header is not None:
        _assert_frames_fit(header, frames)
    [decoder] = _SeenDecoder.seen
    assert decoder._proc.returncode == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(decoder._proc.pid, 0)


@settings(max_examples=200)
@given(pixel_format=st.sampled_from(list(PixelFormat)), data=st.data())
def test_a_mutated_raw_file_reads_as_whole_payloads(pixel_format, data):
    """RawReader yields each whole payload of the header's size in order,
    and a short last one raises TruncatedFrame."""
    header, _, y4m = _CLIPS[pixel_format]
    payloads = y4m[len(serialize_y4m_header(header)):].replace(b"FRAME\n", b"")
    raw = data.draw(mutated(payloads))
    got, frames, error = _read_until_error(
        lambda: RawReader(io.BytesIO(raw), header)
    )
    assert got == header
    _assert_frames_fit(header, frames)
    size = header.frame_size()
    assert [bytes(frame.data) for frame in frames] == [
        raw[start:start + size] for start in range(0, len(raw) - size + 1, size)
    ]
    assert (error is None) == (len(raw) % size == 0)
    assert error is None or isinstance(error, TruncatedFrame)


@settings(max_examples=300)
@given(data=mutated(_SIDECAR))
def test_a_mutated_sidecar_reads_as_rows_that_write_back(data):
    """read_sidecar over a text file, opened as the CLI opens one, raises
    only MotionSieveError, and the rows it returns write back and read
    back unchanged."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        rows = read_sidecar(text)
    except MotionSieveError:
        return
    sink = io.StringIO()
    write_sidecar(rows, sink)
    assert read_sidecar(io.StringIO(sink.getvalue())) == rows


def _marker_of(header, index):
    """Where frame ``index``'s FRAME marker starts in a clip's bytes."""
    marker = len(b"FRAME\n") + header.frame_size()
    return len(serialize_y4m_header(header)) + index * marker


_Y4M_FLIPPED = bytearray(_GRAY_Y4M)
_Y4M_FLIPPED[_marker_of(_GRAY_HEADER, 2) + 4] ^= 0x03
_RAW_CUT = b"".join(frame.data for frame in _GRAY_FRAMES)[:-5]
_SIDECAR_INSERTED = _SIDECAR.replace(b"\n1,", b"\n1\xff,", 1)


@pytest.mark.parametrize(
    "command, inputs, category",
    [
        (["compress", "--input", "{in.y4m}", "--output", "{out}"],
         {"in.y4m": bytes(_Y4M_FLIPPED)}, "MalformedFrameMarker"),
        (["compress", "--input", "{in.raw}", "--raw-format", "gray8",
          "--size", "8x6", "--output", "{out}"],
         {"in.raw": _RAW_CUT}, "TruncatedFrame"),
        (["reconstruct", "--input", "{in.y4m}", "--sidecar", "{in.csv}",
          "--output", "{out}"],
         {"in.y4m": frames_to_y4m(_GRAY_HEADER, _KEPT),
          "in.csv": _SIDECAR_INSERTED}, "MalformedRow"),
    ],
    ids=["y4m", "raw", "sidecar"],
)
def test_a_hostile_input_ends_the_command_in_one_error_line(
    tmp_path, command, inputs, category
):
    """Through ``python -m``, a mutated Y4M clip, a cut raw file and a
    mutated sidecar each make the command exit 1 or 2 with exactly one
    ``error: <Category>:`` line, leave every input as it was and put no
    output in place: only ``*.partial`` files join the inputs."""
    for name, content in inputs.items():
        (tmp_path / name).write_bytes(content)
    argv = [str(tmp_path / part[1:-1]) if part.startswith("{") else part
            for part in command]
    proc = subprocess.run(
        [sys.executable, "-m", "motionsieve.cli", *argv],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode in (1, 2), proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].startswith(f"error: {category}: "), lines
    for name, content in inputs.items():
        assert (tmp_path / name).read_bytes() == content
    left = {path.name for path in tmp_path.iterdir()}
    assert {name for name in left if not name.endswith(".partial")} == set(inputs)
