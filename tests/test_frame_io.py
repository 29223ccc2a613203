import errno
import gzip
import io
import os
import shlex
import signal
import subprocess
import sys
import time

try:
    import fcntl
except ImportError:  # not POSIX
    fcntl = None

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionsieve import (
    BrokenPipe,
    CodecDecoder,
    CodecEncoder,
    DimensionMismatch,
    Frame,
    MalformedFrameMarker,
    MalformedHeader,
    NonZeroExit,
    PixelFormat,
    RawReader,
    SinkUnavailable,
    SpawnFailure,
    StreamHeader,
    TruncatedFrame,
    UnsupportedColorspace,
    Y4MReader,
    Y4MWriter,
    count_y4m_frames,
)
from motionsieve import frame_io
from motionsieve.frame_io import parse_y4m_header, serialize_y4m_header
from synth import frames_to_y4m, gray_frame, random_frame

GZ_DECODE = f"{shlex.quote(sys.executable)} -m motionsieve.gzcodec decode {{input}}"
GZ_ENCODE = f"{shlex.quote(sys.executable)} -m motionsieve.gzcodec encode {{output}}"

needs_pipe_sizing = pytest.mark.skipif(
    not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipes cannot be resized here"
)


def header_stream(text: str) -> io.BytesIO:
    return io.BytesIO(text.encode("ascii"))


def test_parse_header_full_tags():
    header = parse_y4m_header(header_stream("YUV4MPEG2 W1920 H1080 F30:1 C420\n"))
    assert header.width == 1920
    assert header.height == 1080
    assert (header.fps_num, header.fps_den) == (30, 1)
    assert header.pixel_format is PixelFormat.YUV420
    assert header.extra_tags == ()


def test_parse_header_mono_defaults_fps():
    header = parse_y4m_header(header_stream("YUV4MPEG2 W8 H6 Cmono\n"))
    assert header.pixel_format is PixelFormat.GRAY8
    assert (header.fps_num, header.fps_den) == (30, 1)
    assert header.frame_size() == 48


def test_parse_header_default_colorspace_is_420():
    header = parse_y4m_header(header_stream("YUV4MPEG2 W4 H2 F25:1\n"))
    assert header.pixel_format is PixelFormat.YUV420
    assert header.frame_size() == 12


def test_parse_header_c444_is_yuv444():
    """C444 is full-resolution Y, U, V, at odd sizes too, and is written
    back under the same tag."""
    line = "YUV4MPEG2 W3 H2 F30:1 C444\n"
    header = parse_y4m_header(header_stream(line))
    assert header.pixel_format is PixelFormat.YUV444
    assert header.frame_size() == 18
    assert serialize_y4m_header(header) == line.encode("ascii")


def test_parse_header_fractional_fps():
    header = parse_y4m_header(header_stream("YUV4MPEG2 W2 H2 F30000:1001\n"))
    assert (header.fps_num, header.fps_den) == (30000, 1001)
    assert header.fps == pytest.approx(29.97, abs=0.01)


def test_parse_header_preserves_unknown_tags():
    header = parse_y4m_header(
        header_stream("YUV4MPEG2 W4 H4 Ip A1:1 F25:1 C420 XYSCSS=420JPEG\n")
    )
    assert header.extra_tags == ("Ip", "A1:1", "XYSCSS=420JPEG")
    again = parse_y4m_header(io.BytesIO(serialize_y4m_header(header)))
    assert again == header


@pytest.mark.parametrize(
    "text",
    [
        "MPEG4 W4 H4\n",
        "YUV4MPEG2\n",
        "YUV4MPEG2 H4\n",
        "YUV4MPEG2 W4\n",
        "YUV4MPEG2 W0 H4\n",
        "YUV4MPEG2 Wx H4\n",
        "YUV4MPEG2 W4 H4 F30\n",
        "YUV4MPEG2 W4 H4 F0:1\n",
        "YUV4MPEG2 W5 H4 C420\n",
    ],
)
def test_parse_header_malformed(text):
    with pytest.raises(MalformedHeader):
        parse_y4m_header(header_stream(text))


def test_parse_header_reports_an_overlong_line():
    text = "YUV4MPEG2 W" + "9" * 5000 + " H4\n"
    with pytest.raises(MalformedHeader, match="header line is longer than 4096 bytes"):
        parse_y4m_header(header_stream(text))


class _SmallReadsOnly(io.BytesIO):
    """Stream that fails the test if anyone asks it for a large payload."""

    def read(self, size=-1):
        assert 0 <= size <= 1 << 20, f"read({size}) requested"
        return super().read(size)


@pytest.mark.parametrize(
    "text",
    [
        "YUV4MPEG2 W100000 H100000\n",
        "YUV4MPEG2 W16385 H2 Cmono\n",
        "YUV4MPEG2 W2 H16385 Cmono\n",
    ],
)
def test_reader_rejects_oversized_header_before_reading_a_frame(text):
    stream = _SmallReadsOnly(text.encode("ascii") + b"FRAME\n" + b"\x00" * 64)
    with pytest.raises(MalformedHeader):
        Y4MReader(stream)


def test_parse_header_accepts_16k_edges():
    header = parse_y4m_header(header_stream("YUV4MPEG2 W16384 H16384 C420\n"))
    assert (header.width, header.height) == (16384, 16384)


@pytest.mark.parametrize("colorspace", ["C422", "C411", "C444alpha", "Cfoo"])
def test_parse_header_unsupported_colorspace(colorspace):
    with pytest.raises(UnsupportedColorspace):
        parse_y4m_header(header_stream(f"YUV4MPEG2 W4 H4 {colorspace}\n"))


def test_header_rejects_odd_yuv_dims_at_construction():
    with pytest.raises(ValueError):
        StreamHeader(5, 4, 30, 1, PixelFormat.YUV420)


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, 4, 30, 1), "dimensions must be positive"),
        ((4, 0, 30, 1), "dimensions must be positive"),
        ((4, 4, 0, 1), "frame rate must be positive"),
        ((4, 4, 30, 0), "frame rate must be positive"),
    ],
    ids=["width", "height", "fps_num", "fps_den"],
)
def test_header_rejects_a_zero_field_at_construction(fields, message):
    with pytest.raises(ValueError, match=message):
        StreamHeader(*fields, PixelFormat.GRAY8)


@pytest.mark.parametrize("pixel_format", list(PixelFormat))
@pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (0, 0), (-2, 4)])
def test_frame_rejects_a_dimension_below_one(width, height, pixel_format):
    """Refused like a header's, so no per-pixel kernel sees an empty row."""
    with pytest.raises(ValueError, match="^frame dimensions must be positive$"):
        Frame(0, width, height, pixel_format, b"")


def test_frame_rejects_odd_yuv_dims():
    with pytest.raises(ValueError, match="yuv420 requires even width and height"):
        Frame(0, 3, 2, PixelFormat.YUV420, b"\x00" * 9)


def test_parse_header_skips_an_empty_tag():
    """Two spaces between tags parse like one."""
    doubled = parse_y4m_header(header_stream("YUV4MPEG2 W4  H2 F25:1 Cmono\n"))
    assert doubled == parse_y4m_header(header_stream("YUV4MPEG2 W4 H2 F25:1 Cmono\n"))


def test_read_frames_then_eos():
    header = StreamHeader(4, 2, 30, 1, PixelFormat.GRAY8)
    frames = [
        gray_frame(np.full((2, 4), v, dtype=np.uint8), i)
        for i, v in enumerate((0, 10, 20))
    ]
    reader = Y4MReader(io.BytesIO(frames_to_y4m(header, frames)))
    out = [reader.read(), reader.read(), reader.read()]
    assert [f.index for f in out] == [0, 1, 2]
    assert [f.data for f in out] == [f.data for f in frames]
    assert reader.read() is None
    assert reader.read() is None


def test_read_truncated_payload():
    header = StreamHeader(8, 8, 30, 1, PixelFormat.GRAY8)
    blob = serialize_y4m_header(header) + b"FRAME\n" + b"\x00" * 40
    reader = Y4MReader(io.BytesIO(blob))
    with pytest.raises(TruncatedFrame):
        reader.read()


def test_read_bad_marker():
    header = StreamHeader(2, 2, 30, 1, PixelFormat.GRAY8)
    blob = serialize_y4m_header(header) + b"FRAMX\n" + b"\x00" * 4
    with pytest.raises(MalformedFrameMarker):
        Y4MReader(io.BytesIO(blob)).read()


def test_overlong_frame_marker_is_named_as_too_long(tmp_path):
    blob = b"YUV4MPEG2 W2 H2 Cmono\nFRAME " + b"X" * 5000 + b"\n" + b"\x00" * 4
    message = "FRAME marker line is longer than 4096 bytes"
    with pytest.raises(MalformedFrameMarker, match=message):
        Y4MReader(io.BytesIO(blob)).read()
    path = tmp_path / "long_marker.y4m"
    path.write_bytes(blob)
    with pytest.raises(MalformedFrameMarker, match=message):
        count_y4m_frames(path)


def test_read_marker_with_parameters():
    header = StreamHeader(2, 2, 30, 1, PixelFormat.GRAY8)
    blob = serialize_y4m_header(header) + b"FRAME Ixyz\n" + b"\x07" * 4
    frame = Y4MReader(io.BytesIO(blob)).read()
    assert frame.data == b"\x07" * 4


def test_empty_stream_is_valid():
    header = StreamHeader(6, 4, 25, 1, PixelFormat.GRAY8)
    blob = frames_to_y4m(header, [])
    reader = Y4MReader(io.BytesIO(blob))
    assert reader.header == header
    assert reader.read() is None


def test_writer_rejects_mismatched_frame():
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    writer = Y4MWriter(io.BytesIO(), header)
    wrong = gray_frame(np.zeros((2, 4), dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        writer.write_frame(wrong)


def test_writer_mismatch_names_the_frame():
    header = StreamHeader(2, 2, 30, 1, PixelFormat.GRAY8)
    writer = Y4MWriter(io.BytesIO(), header)
    wrong = gray_frame(np.zeros((2, 4), dtype=np.uint8), 7)
    message = "frame 7 is 4x2 gray8, stream is 2x2 gray8"
    with pytest.raises(DimensionMismatch, match=message):
        writer.write_frame(wrong)


def test_frame_payload_length_validated():
    with pytest.raises(ValueError):
        Frame(0, 4, 4, PixelFormat.GRAY8, b"\x00" * 15)


def _read_only(array):
    array = np.array(array, dtype=np.uint8)
    array.flags.writeable = False
    return array


def test_frame_from_read_only_view_equals_frame_from_bytes():
    pixels = _read_only(np.random.default_rng(3).integers(0, 256, 36))
    from_bytes = Frame(7, 6, 4, PixelFormat.YUV420, pixels.tobytes())
    for data in (memoryview(pixels), pixels):
        from_view = Frame(7, 6, 4, PixelFormat.YUV420, data)
        assert from_view == from_bytes
        assert from_bytes == from_view
        assert hash(from_view) == hash(from_bytes)
        assert isinstance(from_view.data, memoryview)
        assert len(from_view.data) == 36
        assert from_view.data == pixels.tobytes()
    other = Frame(7, 6, 4, PixelFormat.YUV420, memoryview(_read_only(pixels ^ 1)))
    assert other != from_bytes


@pytest.mark.parametrize(
    "make",
    [
        lambda: bytearray(16),
        lambda: np.zeros(16, np.uint8),
        lambda: memoryview(bytearray(16)),
        lambda: memoryview(np.zeros(16, np.uint8)),
    ],
    ids=["bytearray", "array", "memoryview", "array-view"],
)
def test_frame_refuses_writable_buffers(make):
    with pytest.raises(ValueError, match="read-only"):
        Frame(0, 4, 4, PixelFormat.GRAY8, make())


def test_frame_refuses_a_strided_view():
    strided = _read_only(np.zeros((4, 8)))[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        Frame(0, 4, 4, PixelFormat.GRAY8, memoryview(strided))


def test_frame_measures_a_2d_view_in_bytes():
    # Two rows of eight bytes: len() would say 2, the payload is 16 bytes.
    pixels = _read_only(np.arange(16).reshape(2, 8))
    frame = Frame(0, 4, 4, PixelFormat.GRAY8, memoryview(pixels))
    assert len(frame.data) == 16
    assert frame == Frame(0, 4, 4, PixelFormat.GRAY8, pixels.tobytes())
    # Sixteen rows of two bytes: len() would say 16, the payload is 32 bytes.
    with pytest.raises(ValueError, match="32 bytes"):
        Frame(0, 4, 4, PixelFormat.GRAY8, memoryview(_read_only(np.zeros((16, 2)))))


def _view_frames(frames):
    return [
        Frame(
            f.index, f.width, f.height, f.pixel_format,
            memoryview(_read_only(np.frombuffer(f.data, np.uint8))),
        )
        for f in frames
    ]


def test_y4m_writer_writes_a_view_byte_for_byte():
    header = StreamHeader(6, 4, 30, 1, PixelFormat.YUV420)
    rng = np.random.default_rng(11)
    frames = [random_frame(rng, 6, 4, PixelFormat.YUV420, i) for i in range(3)]
    sink = io.BytesIO()
    writer = Y4MWriter(sink, header)
    for frame in _view_frames(frames):
        writer.write_frame(frame)
    assert sink.getvalue() == frames_to_y4m(header, frames)


class _FaultySink:
    """A binary sink that takes the header, then raises ``write_error``
    from every write, or ``flush_error`` from every flush."""

    def __init__(self, write_error=None, flush_error=None):
        self.data = bytearray()
        self.write_error = write_error
        self.flush_error = flush_error

    def write(self, data):
        if self.data and self.write_error is not None:
            raise self.write_error
        self.data += data
        return len(data)

    def flush(self):
        if self.flush_error is not None:
            raise self.flush_error


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_y4m_writer_reports_a_full_disk_as_sink_unavailable(failing):
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    full = OSError(errno.ENOSPC, "No space left on device")
    writer = Y4MWriter(_FaultySink(**{f"{failing}_error": full}), header)
    with pytest.raises(SinkUnavailable) as excinfo:
        if failing == "write":
            writer.write_frame(gray_frame(np.zeros((4, 4), np.uint8)))
        else:
            writer.flush()
    assert excinfo.value.__cause__ is full


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="/dev/full is absent")
def test_y4m_writer_close_releases_its_stream_when_the_flush_fails():
    """A final flush into a full device raises SinkUnavailable from
    close(), and the stream is closed all the same."""
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    stream = open("/dev/full", "wb")
    writer = Y4MWriter(stream, header)
    writer.write_frame(gray_frame(np.zeros((4, 4), np.uint8)))
    try:
        with pytest.raises(SinkUnavailable):
            writer.close()
        assert stream.closed
    finally:
        if not stream.closed:
            stream.raw.close()


def test_y4m_writer_lets_a_broken_pipe_through():
    """A BrokenPipeError reaches the caller unchanged, so a writer into a
    codec's stdin can tell a dead reader from a failed disk."""
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    broken = BrokenPipeError(errno.EPIPE, "Broken pipe")
    writer = Y4MWriter(_FaultySink(write_error=broken), header)
    with pytest.raises(BrokenPipeError) as excinfo:
        writer.write_frame(gray_frame(np.zeros((4, 4), np.uint8)))
    assert excinfo.value is broken


def test_codec_encoder_writes_a_view_byte_for_byte(tmp_path):
    header = StreamHeader(6, 4, 30, 1, PixelFormat.YUV444)
    rng = np.random.default_rng(12)
    frames = [random_frame(rng, 6, 4, PixelFormat.YUV444, i) for i in range(3)]
    copy = (
        "import shutil, sys; "
        "shutil.copyfileobj(sys.stdin.buffer, open(sys.argv[1], 'wb'))"
    )
    template = f"{shlex.quote(sys.executable)} -c {shlex.quote(copy)} {{output}}"
    out = tmp_path / "copy.y4m"
    with CodecEncoder(template, out, header) as encoder:
        for frame in _view_frames(frames):
            encoder.write_frame(frame)
    assert out.read_bytes() == frames_to_y4m(header, frames)


@given(st.data())
def test_y4m_write_read_roundtrip(data):
    """Serializing frames and reading them back is the identity."""
    pixel_format = data.draw(st.sampled_from(list(PixelFormat)))
    width = data.draw(st.integers(1, 16))
    height = data.draw(st.integers(1, 16))
    if pixel_format is PixelFormat.YUV420:
        width += width % 2
        height += height % 2
    extras = tuple(
        data.draw(
            st.lists(
                st.sampled_from(["Ip", "Ib", "A1:1", "A4:3", "Xmeta=1"]),
                max_size=2,
            )
        )
    )
    header = StreamHeader(
        width,
        height,
        data.draw(st.integers(1, 120)),
        data.draw(st.integers(1, 1001)),
        pixel_format,
        extras,
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frames = [
        random_frame(rng, width, height, pixel_format, i)
        for i in range(data.draw(st.integers(0, 5)))
    ]
    reader = Y4MReader(io.BytesIO(frames_to_y4m(header, frames)))
    assert reader.header == header
    out = list(reader)
    assert [f.data for f in out] == [f.data for f in frames]
    assert [f.index for f in out] == list(range(len(frames)))


def test_raw_roundtrip():
    header = StreamHeader(5, 3, 30, 1, PixelFormat.YUV444)
    rng = np.random.default_rng(3)
    frames = [random_frame(rng, 5, 3, PixelFormat.YUV444, i) for i in range(4)]
    reader = RawReader(io.BytesIO(b"".join(f.data for f in frames)), header)
    out = list(reader)
    assert [f.data for f in out] == [f.data for f in frames]


def test_raw_truncated_tail():
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    reader = RawReader(io.BytesIO(b"\x00" * 20), header)
    assert reader.read() is not None
    with pytest.raises(TruncatedFrame):
        reader.read()


def test_count_y4m_frames(tmp_path):
    header = StreamHeader(6, 6, 30, 1, PixelFormat.GRAY8)
    frames = [
        gray_frame(np.full((6, 6), i, dtype=np.uint8), i) for i in range(7)
    ]
    path = tmp_path / "clip.y4m"
    path.write_bytes(frames_to_y4m(header, frames))
    assert count_y4m_frames(path) == 7


def test_count_y4m_frames_rejects_a_short_last_payload(tmp_path):
    header = StreamHeader(6, 6, 30, 1, PixelFormat.GRAY8)
    frames = [gray_frame(np.full((6, 6), i, np.uint8), i) for i in range(3)]
    path = tmp_path / "short.y4m"
    path.write_bytes(frames_to_y4m(header, frames)[:-10])
    with pytest.raises(TruncatedFrame, match="last frame payload is short"):
        count_y4m_frames(path)


def test_codec_decoder_via_cat(tmp_path):
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    rng = np.random.default_rng(11)
    frames = [random_frame(rng, 4, 4, PixelFormat.GRAY8, i) for i in range(5)]
    path = tmp_path / "plain.y4m"
    path.write_bytes(frames_to_y4m(header, frames))
    with CodecDecoder("cat {input}", path) as decoder:
        assert decoder.header == header
        out = list(decoder)
    assert [f.data for f in out] == [f.data for f in frames]


def test_codec_adapters_are_the_y4m_reader_and_writer(tmp_path):
    """Either adapter fits wherever a Y4M reader or writer does."""
    header, frames, path = _clip(tmp_path, count=2)
    with CodecDecoder("cat {input}", path) as decoder:
        assert isinstance(decoder, Y4MReader)
        assert [f.data for f in decoder] == [f.data for f in frames]
    with CodecEncoder(GZ_ENCODE, tmp_path / "out.y4m.gz", header) as encoder:
        assert isinstance(encoder, Y4MWriter)


def _clip(tmp_path, count=6):
    """A GRAY8 clip whose 76.8 kB frames each overflow a default 64 KiB pipe."""
    header = StreamHeader(320, 240, 30, 1, PixelFormat.GRAY8)
    rng = np.random.default_rng(17)
    frames = [random_frame(rng, 320, 240, PixelFormat.GRAY8, i) for i in range(count)]
    path = tmp_path / "clip.y4m"
    path.write_bytes(frames_to_y4m(header, frames))
    return header, frames, path


def _pipe_max_size() -> int:
    try:
        with open("/proc/sys/fs/pipe-max-size", encoding="ascii") as fh:
            return int(fh.read())
    except OSError:
        return 0


@needs_pipe_sizing
def test_codec_pipes_hold_one_mib(tmp_path):
    if _pipe_max_size() < 1 << 20:
        pytest.skip("pipe-max-size is below 1 MiB")
    header, frames, path = _clip(tmp_path)
    with CodecDecoder("cat {input}", path) as decoder:
        assert fcntl.fcntl(decoder._pipe.fileno(), fcntl.F_GETPIPE_SZ) == 1 << 20
        assert [f.data for f in decoder] == [f.data for f in frames]
    with CodecEncoder(GZ_ENCODE, tmp_path / "out.y4m.gz", header) as encoder:
        assert fcntl.fcntl(encoder._pipe.fileno(), fcntl.F_GETPIPE_SZ) == 1 << 20


@needs_pipe_sizing
def test_codec_decoder_reads_every_frame_when_resize_refused(tmp_path, monkeypatch):
    """A refused resize (a lower pipe-max-size, the per-user pipe quota)
    leaves the default pipe, which still carries every frame."""
    asked = []

    def refuse(fd, cmd, arg=0):
        asked.append(cmd)
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    _, frames, path = _clip(tmp_path)
    with CodecDecoder("cat {input}", path) as decoder:
        out = list(decoder)
    assert asked == [fcntl.F_SETPIPE_SZ]
    assert [f.data for f in out] == [f.data for f in frames]


def test_codec_roundtrip_through_gzip(tmp_path):
    """Encode 30 frames through the bundled gzip codec, decode them back."""
    header = StreamHeader(16, 12, 30, 1, PixelFormat.YUV420)
    rng = np.random.default_rng(5)
    frames = [
        random_frame(rng, 16, 12, PixelFormat.YUV420, i) for i in range(30)
    ]
    compressed = tmp_path / "clip.y4m.gz"
    with CodecEncoder(GZ_ENCODE, compressed, header) as encoder:
        for frame in frames:
            encoder.write_frame(frame)
    assert compressed.stat().st_size > 0
    with CodecDecoder(GZ_DECODE, compressed) as decoder:
        out = list(decoder)
    assert len(out) == 30
    assert decoder.header == header
    assert [f.data for f in out] == [f.data for f in frames]


def test_codec_decoder_spawn_failure(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"data")
    with pytest.raises(SpawnFailure):
        CodecDecoder("definitely-not-a-real-codec-tool {input}", path)


def test_codec_decoder_reaps_a_child_whose_output_is_not_y4m(tmp_path, monkeypatch):
    """A header that fails to parse raises MalformedHeader, and the child,
    which exited 0, is reaped before the error leaves the constructor."""
    path = tmp_path / "hello.txt"
    path.write_bytes(b"hello\n")
    children = []

    class RecordedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(frame_io.subprocess, "Popen", RecordedPopen)
    with pytest.raises(MalformedHeader):
        CodecDecoder("cat {input}", path)
    assert [child.returncode for child in children] == [0]


def test_codec_decoder_is_killed_when_its_block_raises(tmp_path):
    """Leaving a ``with`` block by an exception kills a child that would
    otherwise run on after its output was read."""
    _, frames, path = _clip(tmp_path, count=2)
    template = "sh -c 'cat \"$0\"; exec sleep 30' {input}"
    with pytest.raises(RuntimeError, match="consumer failed"):
        with CodecDecoder(template, path) as decoder:
            assert decoder.read().data == frames[0].data
            raise RuntimeError("consumer failed")
    assert decoder._proc.returncode == -signal.SIGKILL


def test_codec_decoder_close_does_not_wait_for_a_grandchild(tmp_path):
    """A decoder that exits 0 closes at once even when a process it forked
    still holds its stderr open: the stderr tail is waited for only when
    a nonzero status reports it."""
    _, frames, path = _clip(tmp_path, count=12)
    decoder = CodecDecoder("sh -c 'cat \"$0\"; sleep 8 >/dev/null &' {input}", path)
    try:
        assert len(list(decoder)) == len(frames)
        started = time.monotonic()
        decoder.close()
        assert time.monotonic() - started < 2.0
    finally:
        try:
            os.killpg(decoder._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        decoder._stderr.join(timeout=5.0)


def test_codec_decoder_close_kills_what_the_child_left_running(tmp_path):
    """close() after a decoder exits 0 kills the rest of its process
    group.  The background sleep held the child's stderr open, so its
    death ends the stderr drain at once; the group itself is gone once
    the killed sleep, now an orphan, is reaped by init, which some
    container inits do only every second or two."""
    _, frames, path = _clip(tmp_path, count=2)
    decoder = CodecDecoder("sh -c 'cat \"$0\"; sleep 8 >/dev/null &' {input}", path)
    group = decoder._proc.pid
    try:
        assert len(list(decoder)) == len(frames)
        decoder.close()
        assert decoder._proc.returncode == 0
        decoder._stderr.join(timeout=1.0)
        assert not decoder._stderr.is_alive()
        deadline = time.monotonic() + 5.0
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(group, 0)
                time.sleep(0.02)
    finally:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        decoder._stderr.join(timeout=10.0)


def test_codec_decoder_nonzero_exit(tmp_path):
    script = tmp_path / "failing_decoder.py"
    script.write_text(
        "import sys\nsys.stderr.write('no such profile\\n')\nsys.exit(3)\n"
    )
    path = tmp_path / "x.bin"
    path.write_bytes(b"data")
    template = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{input}}"
    with pytest.raises(NonZeroExit) as excinfo:
        CodecDecoder(template, path)
    assert "status 3" in str(excinfo.value)
    assert "no such profile" in str(excinfo.value)


def test_codec_decoder_failure_surfaces_on_close(tmp_path):
    """A decoder that dies mid-stream reports its status when closed."""
    script = tmp_path / "half_decoder.py"
    script.write_text(
        "import sys\n"
        "sys.stdout.write('YUV4MPEG2 W4 H4 F30:1 Cmono\\n')\n"
        "sys.stdout.write('FRAME\\n' + 'a' * 16)\n"
        "sys.stdout.flush()\n"
        "sys.stderr.write('bitstream damaged\\n')\n"
        "sys.exit(9)\n"
    )
    path = tmp_path / "x.bin"
    path.write_bytes(b"data")
    template = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{input}}"
    decoder = CodecDecoder(template, path)
    assert decoder.read() is not None
    assert decoder.read() is None
    with pytest.raises(NonZeroExit) as excinfo:
        decoder.close()
    assert "bitstream damaged" in str(excinfo.value)


def test_codec_encoder_nonzero_exit_on_close(tmp_path):
    script = tmp_path / "failing_encoder.py"
    script.write_text(
        "import sys\n"
        "sys.stdin.buffer.read()\n"
        "sys.stderr.write('encoder exploded\\n')\n"
        "sys.exit(5)\n"
    )
    template = (
        f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{output}}"
    )
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    encoder = CodecEncoder(template, tmp_path / "out.bin", header)
    encoder.write_frame(gray_frame(np.zeros((4, 4), dtype=np.uint8)))
    with pytest.raises(NonZeroExit) as excinfo:
        encoder.close()
    assert "status 5" in str(excinfo.value)
    assert "encoder exploded" in str(excinfo.value)


def test_codec_encoder_broken_pipe(tmp_path):
    """An encoder that exits cleanly without reading raises BrokenPipe."""
    script = tmp_path / "quitter.py"
    script.write_text("import sys\nsys.exit(0)\n")
    template = (
        f"{shlex.quote(sys.executable)} {shlex.quote(str(script))} {{output}}"
    )
    header = StreamHeader(640, 480, 30, 1, PixelFormat.GRAY8)
    big = gray_frame(np.zeros((480, 640), dtype=np.uint8))
    with pytest.raises(BrokenPipe):
        encoder = CodecEncoder(template, tmp_path / "out.bin", header)
        for _ in range(8):
            encoder.write_frame(big)
        encoder.close()


def test_codec_encoder_that_exits_0_unread_fails_on_close(tmp_path):
    """Frames still buffered when the command exits 0 without reading its
    input make close() raise BrokenPipe instead of reporting success."""
    header = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
    output = tmp_path / "out.enc"
    encoder = CodecEncoder("sh -c ': > \"$0\"' {output}", output, header)
    for i in range(2):
        encoder.write_frame(gray_frame(np.zeros((16, 16), np.uint8), i))
    assert encoder._proc.wait(timeout=10) == 0
    with pytest.raises(BrokenPipe):
        encoder.close()
    assert output.read_bytes() == b""


def _group_is_gone(pid_file) -> bool:
    """Whether the process group led by the pid in ``pid_file`` is gone."""
    try:
        os.killpg(int(pid_file.read_text()), 0)
    except ProcessLookupError:
        return True
    return False


def test_codec_decoder_whose_header_is_refused_is_killed_after_the_grace(
    tmp_path, monkeypatch
):
    """A decoder that printed a bad header and never exits is waited for
    at most _GRACE_SECONDS, then killed with its group, and the header's
    own error leaves the constructor."""
    monkeypatch.setattr(frame_io, "_GRACE_SECONDS", 1.0, raising=False)
    path = tmp_path / "x.bin"
    path.write_bytes(b"data")
    template = "sh -c 'echo $$ > \"$0.pid\"; echo garbage; exec sleep 60' {input}"
    started = time.monotonic()
    with pytest.raises(MalformedHeader, match="missing YUV4MPEG2 signature"):
        CodecDecoder(template, path)
    assert 1.0 <= time.monotonic() - started < 1.0 + 2.0
    assert _group_is_gone(tmp_path / "x.bin.pid")


def test_codec_encoder_that_closed_its_input_is_killed_after_the_grace(
    tmp_path, monkeypatch
):
    """An encoder that closed its input and never exits is waited for at
    most _GRACE_SECONDS, then killed with its group, and the write raises
    BrokenPipe."""
    monkeypatch.setattr(frame_io, "_GRACE_SECONDS", 1.0, raising=False)
    output = tmp_path / "out.enc"
    template = "sh -c 'echo $$ > \"$0.pid\"; exec <&-; exec sleep 60' {output}"
    header = StreamHeader(640, 480, 30, 1, PixelFormat.GRAY8)
    big = gray_frame(np.zeros((480, 640), dtype=np.uint8))
    encoder = CodecEncoder(template, output, header)
    try:
        while not (tmp_path / "out.enc.pid").exists():
            time.sleep(0.01)
        started = time.monotonic()
        with pytest.raises(BrokenPipe) as excinfo:
            for _ in range(64):
                encoder.write_frame(big)
        assert time.monotonic() - started < 1.0 + 2.0
        assert isinstance(excinfo.value.__cause__, BrokenPipeError)
        assert _group_is_gone(tmp_path / "out.enc.pid")
    finally:
        encoder.abort()


def test_codec_template_requires_placeholder(tmp_path):
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    with pytest.raises(ValueError):
        CodecDecoder("cat input.bin", tmp_path / "x")
    with pytest.raises(ValueError):
        CodecEncoder("gzip -c", tmp_path / "x", header)


def test_gzcodec_file_is_plain_gzip(tmp_path):
    """The shim's output is ordinary gzip holding the exact Y4M stream."""
    header = StreamHeader(8, 8, 30, 1, PixelFormat.GRAY8)
    rng = np.random.default_rng(21)
    frames = [random_frame(rng, 8, 8, PixelFormat.GRAY8, i) for i in range(3)]
    blob = frames_to_y4m(header, frames)
    compressed = tmp_path / "clip.gz"
    with CodecEncoder(GZ_ENCODE, compressed, header) as encoder:
        for frame in frames:
            encoder.write_frame(frame)
    assert gzip.decompress(compressed.read_bytes()) == blob


def test_gzcodec_encodes_one_input_to_the_same_bytes(tmp_path):
    """The gzip header carries no file name and a zero mtime, so two
    encodes of one clip under different names are byte-identical, and
    decoding gives the clip back."""
    header = StreamHeader(8, 8, 30, 1, PixelFormat.GRAY8)
    rng = np.random.default_rng(22)
    frames = [random_frame(rng, 8, 8, PixelFormat.GRAY8, i) for i in range(3)]
    encoded = []
    for name in ("a.enc.partial", "second.enc.partial"):
        with CodecEncoder(GZ_ENCODE, tmp_path / name, header) as encoder:
            for frame in frames:
                encoder.write_frame(frame)
        encoded.append((tmp_path / name).read_bytes())
    assert encoded[0] == encoded[1]
    assert encoded[0][3] & 0x08 == 0, "FNAME bit set"
    assert encoded[0][4:8] == bytes(4)
    with CodecDecoder(GZ_DECODE, tmp_path / "a.enc.partial") as decoder:
        assert decoder.header == header
        assert list(decoder) == frames
