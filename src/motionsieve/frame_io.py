"""Reading and writing uncompressed video streams.

The interchange carrier is YUV4MPEG2 ("Y4M"): one ASCII header line
(``YUV4MPEG2 W<width> H<height> F<num>:<den> C<colorspace> ...``) followed
by frames, each introduced by a ``FRAME`` marker line and carrying a
fixed-size raw payload.  Unknown header tags are preserved verbatim so a
parse/serialize round trip does not lose information.  Three pixel layouts
are supported:

* ``GRAY8``  -- single luma plane, ``w*h`` bytes per frame (``Cmono``)
* ``YUV444`` -- planar Y, U, V at full resolution, ``3*w*h`` bytes per
  frame (``C444``)
* ``YUV420`` -- planar Y, U, V with 2x2-subsampled chroma, ``w*h*3/2``
  bytes per frame (``C420`` family); width and height must be even

Every layout starts with its ``w*h`` luma plane.

Raw planar files (no header, concatenated payloads) cover fixtures where
exact bytes matter.  Compressed containers are never parsed here; they are
delegated to an external codec command via :class:`CodecDecoder` and
:class:`CodecEncoder`, where the child process speaks Y4M on its standard
streams and ``{input}`` / ``{output}`` placeholders in the command template
name the compressed file.
"""

from __future__ import annotations

import os
import shlex
import signal
import stat
import subprocess
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import BinaryIO, Iterator, Sequence

try:
    import fcntl
except ImportError:  # not POSIX
    fcntl = None

from .errors import (
    BrokenPipe,
    DimensionMismatch,
    MalformedFrameMarker,
    MalformedHeader,
    MotionSieveError,
    NonZeroExit,
    SinkUnavailable,
    SpawnFailure,
    TruncatedFrame,
    UnsupportedColorspace,
)

_MAX_LINE = 4096
_STDERR_TAIL = 8192
# Seconds a codec child is waited for once its stream has failed, and its
# stderr tail once it exited nonzero; a child still running then is killed.
_GRACE_SECONDS = 5.0
# Bytes asked of the kernel for each pipe a stream is built over, such as
# a codec's or stdin: Linux's default pipe-max-size for unprivileged
# processes, so a 3.1 MB 1080p frame crosses in about 3 wakeups instead of
# about 48 through the default 64 KiB pipe.
_PIPE_BYTES = 1 << 20
# Largest accepted frame edge: 16K video fits, and a hostile header cannot
# make a reader ask for a multi-gigabyte payload.
_MAX_DIMENSION = 16384


class PixelFormat(Enum):
    GRAY8 = "gray8"
    YUV444 = "yuv444"
    YUV420 = "yuv420"

    def frame_size(self, width: int, height: int) -> int:
        """Payload size in bytes for one frame at the given dimensions."""
        if self is PixelFormat.GRAY8:
            return width * height
        if self is PixelFormat.YUV444:
            return 3 * width * height
        return width * height * 3 // 2


def _check_layout(width: int, height: int, pixel_format: PixelFormat) -> None:
    """Raise ValueError unless a frame of these dimensions can hold the
    layout: both at least 1, and both even for 4:2:0 chroma."""
    if width < 1 or height < 1:
        raise ValueError("frame dimensions must be positive")
    if pixel_format is PixelFormat.YUV420 and (width % 2 or height % 2):
        raise ValueError("yuv420 requires even width and height")


_COLORSPACE_TO_FORMAT = {
    "mono": PixelFormat.GRAY8,
    "420": PixelFormat.YUV420,
    "420jpeg": PixelFormat.YUV420,
    "420mpeg2": PixelFormat.YUV420,
    "420paldv": PixelFormat.YUV420,
    "444": PixelFormat.YUV444,
}

_FORMAT_TO_COLORSPACE = {
    PixelFormat.GRAY8: "mono",
    PixelFormat.YUV420: "420",
    PixelFormat.YUV444: "444",
}


@dataclass(frozen=True)
class StreamHeader:
    """Per-stream metadata: dimensions, frame rate, pixel layout, extra tags.

    ``extra_tags`` holds unrecognized Y4M tokens (interlacing, aspect,
    ``X`` extensions) verbatim, in their original order.  ``colorspace``
    is the value of the C tag, which names ``pixel_format``: the format's
    own (``420``, ``444`` or ``mono``) unless given, as a header read with
    a 4:2:0 siting such as ``C420jpeg`` gives it.
    """

    width: int
    height: int
    fps_num: int = 30
    fps_den: int = 1
    pixel_format: PixelFormat = PixelFormat.YUV420
    extra_tags: tuple[str, ...] = ()
    colorspace: str | None = None

    def __post_init__(self) -> None:
        if self.width > _MAX_DIMENSION or self.height > _MAX_DIMENSION:
            raise ValueError(f"frame dimensions must be at most {_MAX_DIMENSION}")
        _check_layout(self.width, self.height, self.pixel_format)
        if self.fps_num < 1 or self.fps_den < 1:
            raise ValueError("frame rate must be positive")
        if self.colorspace is None:
            own = _FORMAT_TO_COLORSPACE[self.pixel_format]
            object.__setattr__(self, "colorspace", own)
        elif _COLORSPACE_TO_FORMAT.get(self.colorspace) is not self.pixel_format:
            raise ValueError(
                f"C{self.colorspace} does not name {self.pixel_format.value}"
            )

    @property
    def fps(self) -> float:
        return self.fps_num / self.fps_den

    def frame_size(self) -> int:
        return self.pixel_format.frame_size(self.width, self.height)


@dataclass(frozen=True)
class Frame:
    """One video frame: position in the input stream plus raw planar bytes.

    ``data`` is ``bytes`` or any read-only, C-contiguous buffer of the
    frame's size, such as a read-only numpy array, so a frame made from an
    array needs no copy.  A buffer other than ``bytes`` is kept as a flat
    ``memoryview`` of bytes, so ``len(data)`` is always the byte count.
    A writable buffer is refused, so a frame cannot change after it is
    made, not even while it waits in a queue.  Frames compare by content;
    ``hash`` leaves ``data`` out, because a view of an array cannot be
    hashed.
    """

    index: int
    width: int
    height: int
    pixel_format: PixelFormat
    data: bytes | memoryview = field(hash=False)

    def __post_init__(self) -> None:
        _check_layout(self.width, self.height, self.pixel_format)
        view = memoryview(self.data)
        if not view.readonly:
            raise ValueError("payload must be read-only")
        if not view.c_contiguous:
            raise ValueError("payload must be C-contiguous")
        expected = self.pixel_format.frame_size(self.width, self.height)
        if view.nbytes != expected:
            raise ValueError(f"payload is {view.nbytes} bytes, expected {expected}")
        if not isinstance(self.data, bytes):
            object.__setattr__(self, "data", view.cast("B"))


def parse_y4m_header(stream: BinaryIO) -> StreamHeader:
    """Read and decode the Y4M signature line from ``stream``.

    Raises MalformedHeader when the signature or a required tag is missing
    or undecodable, when a tag holds a non-ASCII byte, when W or H exceeds
    16384 or when the line is longer than 4096 bytes, UnsupportedColorspace
    for C tags outside the supported families.  A missing F tag defaults to
    30:1, a missing C tag to the conventional 4:2:0.
    """
    line = _read_line(stream, "header", MalformedHeader)
    tokens = line.decode("ascii", "surrogateescape").rstrip("\n").split(" ")
    if tokens[0] != "YUV4MPEG2" or len(tokens) < 2:
        raise MalformedHeader("missing YUV4MPEG2 signature")

    width = height = None
    fps_num, fps_den = 30, 1
    colorspace = None
    extras: list[str] = []
    for token in tokens[1:]:
        if not token:
            continue
        if not token.isascii():
            raw = token.encode("ascii", "surrogateescape")
            raise MalformedHeader(f"tag {raw!r} holds a non-ASCII byte")
        key, value = token[0], token[1:]
        if key == "W":
            width = _parse_tag(value, "W")
        elif key == "H":
            height = _parse_tag(value, "H")
        elif key == "F":
            num, sep, den = value.partition(":")
            if not sep:
                raise MalformedHeader(f"bad F tag {token!r}")
            fps_num = _parse_tag(num, "F")
            fps_den = _parse_tag(den, "F")
        elif key == "C":
            colorspace = value
        else:
            extras.append(token)

    if width is None:
        raise MalformedHeader("missing W tag")
    if height is None:
        raise MalformedHeader("missing H tag")
    if colorspace is None:
        pixel_format = PixelFormat.YUV420
    else:
        try:
            pixel_format = _COLORSPACE_TO_FORMAT[colorspace]
        except KeyError:
            raise UnsupportedColorspace(f"C{colorspace}") from None
    try:
        return StreamHeader(
            width, height, fps_num, fps_den, pixel_format, tuple(extras), colorspace
        )
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from None


def _parse_tag(text: str, tag: str) -> int:
    """A tag's integer value; StreamHeader refuses one below 1."""
    try:
        return _parse_int(text)
    except ValueError:
        raise MalformedHeader(f"bad {tag} tag value {text!r}") from None


def _parse_int(text: str) -> int:
    """``text`` as an integer, which must be ASCII digits with an optional
    leading "-"; ValueError otherwise.  int() alone would also take "+",
    "_", surrounding whitespace and non-ASCII digits."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def serialize_y4m_header(header: StreamHeader) -> bytes:
    tokens = [
        "YUV4MPEG2",
        f"W{header.width}",
        f"H{header.height}",
        f"F{header.fps_num}:{header.fps_den}",
        f"C{header.colorspace}",
        *header.extra_tags,
    ]
    return (" ".join(tokens) + "\n").encode("ascii")


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class _Stream:
    """Owns a stream and ends it one way.  A ``with`` block closes it when
    the block succeeds and aborts it when the block raises, so the block's
    error is the one that leaves.  close() finishes the stream (a writer
    flushes) and runs ``_end(kill=False)``.  abort() runs ``_end(kill=True)``
    and lets no Exception out.  Each step taken on the stream itself (the
    start, such as a Y4M header read or write, a frame read, a write, a
    flush and close()'s finish) runs through ``_or_abort``, so a step that
    fails ends the stream before its error leaves: a second flush into a
    codec child that stalled without reading would block.  Once a failed
    step, close() or abort() has ended the stream, close() does nothing,
    so a close in a ``finally`` cannot replace the error that ended it."""

    _ended = False

    def __init__(self, stream, *args):
        self._stream = stream
        _widen_pipe(stream)
        self._or_abort(self._start, *args)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()

    def close(self) -> None:
        if self._ended:
            return
        self._or_abort(self._finish)
        self._ended = True
        self._end(kill=False)

    def abort(self) -> None:
        self._ended = True
        try:
            self._end(kill=True)
        except Exception:
            pass

    def _or_abort(self, step, *args):
        """``step(*args)``, aborting after ``_failed`` hears its error."""
        try:
            return step(*args)
        except BaseException as exc:
            try:
                if isinstance(exc, MotionSieveError):
                    self._failed(exc)
            finally:
                self.abort()
            raise

    def _start(self) -> None:
        """Begin the stream once it is owned; nothing by default."""

    def _finish(self) -> None:
        """Write out what is buffered; nothing by default."""

    def _failed(self, exc: MotionSieveError) -> None:
        """Hear a step's MotionSieveError before the abort; nothing by default."""

    def _end(self, kill: bool) -> None:
        """Let go of the stream; a plain stream has nothing to kill."""
        self._stream.close()


class RawReader(_Stream):
    """Sequential frame reader over a binary stream, by default headerless
    frame payloads back to back, framed by the header the caller supplies.
    A subclass frames the stream in ``_payload``, which returns the next
    payload as read or None at end of stream; ``read`` checks its size and
    numbers the frames from 0."""

    def _start(self, header: StreamHeader) -> None:
        self.header = header
        self._next_index = 0

    def read(self) -> Frame | None:
        """Next frame, or None at end of stream."""
        return self._or_abort(self._next_frame)

    def _next_frame(self) -> Frame | None:
        data = self._payload()
        if data is None:
            return None
        size = self.header.frame_size()
        if len(data) != size:
            raise TruncatedFrame(f"frame payload is {len(data)} of {size} bytes")
        frame = Frame(
            self._next_index,
            self.header.width,
            self.header.height,
            self.header.pixel_format,
            data,
        )
        self._next_index += 1
        return frame

    def _payload(self) -> bytes | None:
        return _read_exact(self._stream, self.header.frame_size()) or None

    def __iter__(self) -> Iterator[Frame]:
        # No local holds a frame while the next one is read.
        return iter(self.read, None)


class Y4MReader(RawReader):
    """Sequential frame reader over a binary Y4M stream.

    The header is parsed eagerly at construction; frames are then yielded
    in order with 0-based ``index`` assigned by read position.
    """

    def _start(self) -> None:
        super()._start(parse_y4m_header(self._stream))

    def _payload(self) -> bytes | None:
        if not _read_frame_marker(self._stream):
            return None
        return _read_exact(self._stream, self.header.frame_size())


def _read_line(
    stream: BinaryIO, name: str, error: type[MotionSieveError]
) -> bytes:
    """One line of at most 4096 bytes, b"" at end of stream; a longer line
    raises ``error`` naming it as ``name``."""
    line = stream.readline(_MAX_LINE)
    if len(line) == _MAX_LINE and not line.endswith(b"\n"):
        raise error(f"{name} line is longer than {_MAX_LINE} bytes")
    return line


def _read_frame_marker(stream: BinaryIO) -> bool:
    """Consume one FRAME marker line; False at end of stream."""
    line = _read_line(stream, "FRAME marker", MalformedFrameMarker)
    if line == b"":
        return False
    # Frame markers may carry their own parameters: "FRAME Ixyz\n".
    if not line.endswith(b"\n") or line[:6] not in (b"FRAME\n", b"FRAME "):
        raise MalformedFrameMarker(f"expected FRAME marker, got {line[:40]!r}")
    return True


class _Sink(_Stream):
    """A writer's stream, binary or text.  Every write and flush goes
    through ``_guarded``: an OSError or ValueError, such as a full disk or
    a closed file, becomes SinkUnavailable, and a BrokenPipeError goes to
    ``_broken_pipe``, which lets it reach the caller unchanged.  A start
    and ``_finish``, run through ``_or_abort`` already, use it directly."""

    def flush(self) -> None:
        self._or_abort(self._finish)

    def _write(self, data) -> None:
        self._or_abort(self._guarded, self._stream.write, data)

    def _guarded(self, call, *args) -> None:
        try:
            call(*args)
        except BrokenPipeError as exc:
            self._broken_pipe(exc)
        except (OSError, ValueError) as exc:
            raise SinkUnavailable(str(exc)) from exc

    def _broken_pipe(self, exc: BrokenPipeError) -> None:
        raise exc

    def _finish(self) -> None:
        self._guarded(self._stream.flush)


class Y4MWriter(_Sink):
    """Frame sink serializing to Y4M.  The header line is written eagerly,
    so an empty stream still yields a well-formed file."""

    def _start(self, header: StreamHeader) -> None:
        self.header = header
        self._guarded(self._stream.write, serialize_y4m_header(header))

    def write_frame(self, frame: Frame) -> None:
        header = self.header
        check_geometry(frame, (header.width, header.height, header.pixel_format))
        self._write(b"FRAME\n")
        self._write(frame.data)


def check_geometry(frame: Frame, stream: tuple[int, int, PixelFormat]) -> None:
    """Raise DimensionMismatch, naming the frame, unless ``frame`` has the
    stream's (width, height, pixel_format)."""
    if (frame.width, frame.height, frame.pixel_format) != stream:
        width, height, pixel_format = stream
        raise DimensionMismatch(
            f"frame {frame.index} is {frame.width}x{frame.height} "
            f"{frame.pixel_format.value}, stream is {width}x{height} "
            f"{pixel_format.value}"
        )


def count_y4m_frames(path) -> int:
    """Number of frames in a Y4M file, skipping payloads by seeking."""
    with open(path, "rb") as stream:
        total = stream.seek(0, 2)
        stream.seek(0)
        header = parse_y4m_header(stream)
        size = header.frame_size()
        count = 0
        while _read_frame_marker(stream):
            if stream.seek(size, 1) > total:
                raise TruncatedFrame("last frame payload is short")
            count += 1
        return count


@contextmanager
def committed(paths: Sequence[str], *, durable: bool = False) -> Iterator[list[str]]:
    """Yield the ``*.partial`` name each of ``paths`` is written under, and
    rename them all into place once the block ends without an error, so a
    failed run leaves only ``*.partial`` files.  Close every stream inside
    the block, so that a failed close, such as a codec's exit, stops it.

    ``durable`` fsyncs each ``*.partial`` before its rename and, after the
    last rename, each directory renamed into, where the user may read it.
    Without it a power cut soon after the run can
    leave a final name over a file whose data never reached the disk."""
    yield [path + ".partial" for path in paths]
    for path in paths:
        if durable:
            _fsync(path + ".partial")
        os.replace(path + ".partial", path)
    if durable:
        directories = (os.path.dirname(os.path.abspath(path)) for path in paths)
        for directory in dict.fromkeys(directories):
            _fsync(directory)


def _fsync(path: str) -> None:
    """Flush a file, or a directory's entries, to the disk by path.  An
    output directory the user may write but not read cannot be opened, and
    is left as it is."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except PermissionError:
        if os.path.isdir(path):
            return
        raise
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _StderrDrain(threading.Thread):
    """Drains a child's stderr so it can never block, keeping the tail."""

    def __init__(self, pipe):
        super().__init__(daemon=True)
        self._pipe = pipe
        self._tail = b""
        self.start()

    def run(self) -> None:
        with self._pipe:
            while chunk := self._pipe.read(4096):
                self._tail = (self._tail + chunk)[-_STDERR_TAIL:]

    def text(self) -> str:
        return self._tail.decode("utf-8", "replace").strip()


_PLACEHOLDERS = {"decode": "{input}", "encode": "{output}"}


def check_template(role: str, template: str) -> list[str]:
    """A ``"decode"`` or ``"encode"`` command template split into argv
    tokens as a POSIX shell would; ValueError when it does not name its
    file with the role's placeholder or cannot be split."""
    placeholder = _PLACEHOLDERS[role]
    if placeholder not in template:
        raise ValueError(f"{role} command template must contain {placeholder}")
    try:
        return shlex.split(template)
    except ValueError as exc:
        raise ValueError(f"{role} command template cannot be split: {exc}") from None


class _CodecChild(_Stream):
    """An external codec command, run with one standard stream piped.

    Listed before a Y4M reader or writer class, it makes that class's
    stream the child's pipe, over which the reader or writer is built
    here.  The child's stderr is drained so it can never block.  close()
    waits for the child, and so does a failed step of the stream, such as
    a header that does not parse or a frame cut short, through ``_failed``
    for up to ``_GRACE_SECONDS``: a nonzero status raises NonZeroExit,
    carrying the stderr tail.  abort() kills it without caring about its
    status.  The child leads a process group of its own, which either
    way is killed once the child has exited, so nothing a shell command
    forked, instead of exec'ing, outlives it."""

    _role = ""

    def __init__(self, template: str, path, *args):
        argv = [token.replace(_PLACEHOLDERS[self._role], str(path))
                for token in check_template(self._role, template)]
        writes = self._role == "encode"
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE if writes else subprocess.DEVNULL,
                stdout=subprocess.DEVNULL if writes else subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
        except OSError as exc:
            raise SpawnFailure(f"cannot run {argv[0]!r}: {exc}") from exc
        self._pipe = self._proc.stdin if writes else self._proc.stdout
        self._stderr = _StderrDrain(self._proc.stderr)
        super().__init__(self._pipe, *args)

    def _failed(self, exc: MotionSieveError) -> None:
        self._end(kill=False, cause=exc)

    def _end(self, kill: bool, cause: BaseException | None = None) -> None:
        """End the child: kill its process group first when ``kill`` is
        set, close our end of the pipe, reap the child, then kill the group
        again, so that nothing the child started outlives it.  The first
        kill precedes the pipe close, which waits while a read stage
        blocked on the pipe holds its lock.  A child reaped before this
        call is not signalled again: its group was killed then, and its pid
        may name another process by now.  A child that was not killed and
        exited nonzero raises NonZeroExit, carrying its stderr tail and
        chained to ``cause``.  With a ``cause``, the stream's own failure,
        the child is waited for at most ``_GRACE_SECONDS`` and then killed,
        and this returns so that the caller raises ``cause``."""
        reaped = self._proc.returncode is not None

        def kill_group() -> None:
            if not reaped:
                try:
                    os.killpg(self._proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

        if kill:
            kill_group()
        try:
            self._pipe.close()
        except OSError:
            pass
        try:
            rc = self._proc.wait(None if cause is None else _GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            # The stream has failed already, and its error says why.
            kill = True
            kill_group()
            rc = self._proc.wait()
        kill_group()
        if rc != 0 and not kill:
            # Only a reported tail waits for stderr's end: a process that
            # left the child's group can hold it open after the group died.
            self._stderr.join(timeout=_GRACE_SECONDS)
            detail = self._stderr.text()
            message = f"{self._role} command exited with status {rc}"
            raise NonZeroExit(f"{message}: {detail}" if detail else message) from cause


def _widen_pipe(stream) -> None:
    """Enlarge the kernel buffer of the pipe under ``stream`` to
    _PIPE_BYTES where the platform allows it.  A stream with no
    descriptor, such as io.BytesIO, or one that is not a pipe is left
    alone; a refusal (a lower pipe-max-size, the per-user pipe quota)
    leaves the default size, which is slower but correct."""
    set_size = getattr(fcntl, "F_SETPIPE_SZ", None)
    if set_size is None:
        return
    try:
        fd = stream.fileno()
        if stat.S_ISFIFO(os.fstat(fd).st_mode):
            fcntl.fcntl(fd, set_size, _PIPE_BYTES)
    except (AttributeError, OSError, ValueError):
        pass


class CodecDecoder(_CodecChild, Y4MReader):
    """A Y4MReader over the stdout of an external decode command.

    The command template names the compressed file via ``{input}`` and must
    emit Y4M on stdout.  close() and a failed read check the child's exit
    status: a nonzero one raises NonZeroExit, in place of a read's error.
    """

    _role = "decode"


class CodecEncoder(_CodecChild, Y4MWriter):
    """A Y4MWriter into the stdin of an external encode command.

    The command template names the compressed output file via ``{output}``
    and must read Y4M from stdin.  An encoder that stops reading raises
    BrokenPipe, or NonZeroExit when it exited nonzero, from a write or a
    flush, close()'s included.
    """

    _role = "encode"

    def _broken_pipe(self, exc: BrokenPipeError) -> None:
        raise BrokenPipe("encode command closed its input early") from exc
