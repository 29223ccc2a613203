import contextlib
import io
import itertools
import math
import os
import sys
import tempfile
import threading
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motionsieve import (
    DimensionMismatch,
    Frame,
    MalformedRow,
    MotionConfig,
    NonMonotonicIndex,
    PixelFormat,
    SidecarRecord,
    SinkUnavailable,
    StreamHeader,
    Y4MReader,
    Y4MWriter,
    read_sidecar,
    reconstruct_files,
    reconstruct_stream,
    reference_compress,
    run_pipeline,
)
from motionsieve.frame_io import serialize_y4m_header
from motionsieve.motion_core import analyse
from motionsieve.reconstruct import env_frame, rec_frame
from motionsieve.sidecar import SidecarWriter
from synth import (
    frame_from_luma, frames_to_y4m, gray_frame, moving_square_luma, random_video,
    records_to_csv, rising_box_yuv444,
)

VARIED_CONFIG = MotionConfig(
    threshold=20, downscale=2, buffer_radius=1,
    keyframe_interval=4, min_motion_pixels=3,
)


def render_reference(header, frames, config):
    kept, records = reference_compress(frames, config)
    video = io.BytesIO()
    writer = Y4MWriter(video, header)
    for frame in kept:
        writer.write_frame(frame)
    writer.flush()
    sidecar = io.StringIO()
    sidecar_writer = SidecarWriter(sidecar)
    for record in records:
        sidecar_writer.write_row(record)
    return video.getvalue(), sidecar.getvalue()


def at_depth(capacity):
    """Inside the ``with`` block, run_pipeline joins its stages by queues
    of ``capacity`` items, so a test can force backpressure."""
    return mock.patch("motionsieve.pipeline.QUEUE_CAPACITY", capacity)


def render_pipeline(header, frames, config, capacity):
    video = io.BytesIO()
    writer = Y4MWriter(video, header)
    sidecar = io.StringIO()
    with at_depth(capacity):
        report = run_pipeline(
            iter(frames), config, writer, SidecarWriter(sidecar)
        )
    writer.flush()
    return video.getvalue(), sidecar.getvalue(), report


@pytest.mark.parametrize("capacity", [1, 2, 64])
@pytest.mark.parametrize("seed", [101, 202, 303, 404])
def test_pipeline_matches_reference(seed, capacity):
    """Concurrent run emits byte-identical video and sidecar for any
    queue capacity."""
    header, frames = random_video(seed, max_side=32, max_frames=24)
    expected_video, expected_sidecar = render_reference(
        header, frames, VARIED_CONFIG
    )
    video, sidecar, report = render_pipeline(
        header, frames, VARIED_CONFIG, capacity
    )
    assert video == expected_video
    assert sidecar == expected_sidecar
    assert report.frames_in == len(frames)
    assert report.frames_out == len(read_sidecar(io.StringIO(sidecar)))


def test_empty_source_emits_valid_empty_outputs():
    header_stream = io.BytesIO()
    from motionsieve import PixelFormat, StreamHeader

    header = StreamHeader(8, 8, 30, 1, PixelFormat.GRAY8)
    writer = Y4MWriter(header_stream, header)
    sidecar = io.StringIO()
    report = run_pipeline([], MotionConfig(), writer, SidecarWriter(sidecar))
    writer.flush()
    assert report.frames_in == 0
    assert report.frames_out == 0
    reader = Y4MReader(io.BytesIO(header_stream.getvalue()))
    assert reader.read() is None
    assert read_sidecar(io.StringIO(sidecar.getvalue())) == []


def test_static_source_single_row():
    arr = np.full((24, 24), 33, np.uint8)
    frames = [gray_frame(arr, i) for i in range(40)]
    kept, records = reference_compress(frames, MotionConfig())
    assert len(kept) == 1
    assert records == [SidecarRecord(0, 0, True)]


def test_yuv444_motion_in_the_luma_plane_alone_is_kept():
    """A 60-level luma rise is motion at the default threshold of 25 in a
    C444 clip too: analysis reads plane 0, not a mix of Y, U and V."""
    frames = rising_box_yuv444()
    kept, records = reference_compress(frames, MotionConfig())
    assert [frame.index for frame in kept] == [0, 1, 2]
    assert records_to_csv(records).splitlines()[1:] == ["0,0,1", "1,1,1", "2,2,0"]


@pytest.mark.parametrize(
    "index, error, message, written",
    [
        (0, NonMonotonicIndex, "row 2: input_frame 0 after 0", [0]),
        (-1, MalformedRow, "row 1: negative input_frame", []),
        (False, MalformedRow, "row 1: non-integer field", []),
    ],
    ids=["repeated", "negative", "bool"],
)
def test_pipeline_refuses_frame_indices_its_sidecar_could_not_hold(
    index, error, message, written
):
    """Library frames whose ``index`` is not a strictly increasing count
    from 0 stop the run, and reference_compress, with the error
    read_sidecar would raise on the row.  Neither sink receives the
    refused frame: the video holds a frame for each row of the sidecar,
    which holds only the rows before it."""
    header = StreamHeader(40, 32, 30, 1, PixelFormat.GRAY8)
    frames = [gray_frame(luma, index) for luma in moving_square_luma(40, 32, 6)]
    with pytest.raises(error, match=f"^{message}$"):
        reference_compress(frames, MotionConfig())
    video, sidecar = io.BytesIO(), io.StringIO()
    with pytest.raises(error, match=f"^{message}$"):
        run_pipeline(frames, MotionConfig(), Y4MWriter(video, header),
                     SidecarWriter(sidecar))
    rows = read_sidecar(io.StringIO(sidecar.getvalue()))
    assert [row.input_frame for row in rows] == written
    reader = Y4MReader(io.BytesIO(video.getvalue()))
    assert len(list(reader)) == len(rows)


def test_failing_source_raises_its_own_error():
    def source():
        for i in range(5):
            yield gray_frame(np.full((8, 8), i * 30, np.uint8), i)
        raise OSError("sensor unplugged")

    from motionsieve import PixelFormat, StreamHeader

    header = StreamHeader(8, 8, 30, 1, PixelFormat.GRAY8)
    video = io.BytesIO()
    writer = Y4MWriter(video, header)
    sidecar = io.StringIO()
    with pytest.raises(OSError, match="^sensor unplugged$"), at_depth(2):
        run_pipeline(source(), MotionConfig(min_motion_pixels=1), writer,
                     SidecarWriter(sidecar))
    # whatever made it out is whole: every sidecar line is complete and
    # the video parses frame by frame
    text = sidecar.getvalue()
    assert text.endswith("\n")
    for line in text.splitlines()[1:]:
        assert len(line.split(",")) == 3
    reader = Y4MReader(io.BytesIO(video.getvalue()))
    while reader.read() is not None:
        pass


def test_analysis_failure_raises_its_own_error():
    frames = [
        gray_frame(np.zeros((8, 8), np.uint8), 0),
        gray_frame(np.zeros((8, 10), np.uint8), 1),
    ]
    from motionsieve import PixelFormat, StreamHeader

    header = StreamHeader(8, 8, 30, 1, PixelFormat.GRAY8)
    writer = Y4MWriter(io.BytesIO(), header)
    with pytest.raises(DimensionMismatch, match="^frame 1 is 10x8"):
        run_pipeline(frames, MotionConfig(), writer, SidecarWriter(io.StringIO()))


class _ExplodingSink:
    def __init__(self, allow):
        self.allow = allow
        self.writes = 0

    def write_frame(self, frame):
        if self.writes >= self.allow:
            raise SinkUnavailable("disk full")
        self.writes += 1


def test_writer_failure_raises_its_own_error():
    rng = np.random.default_rng(77)
    frames = [
        gray_frame(rng.integers(0, 256, (8, 8), np.uint8), i) for i in range(20)
    ]
    sink = _ExplodingSink(allow=2)
    with pytest.raises(SinkUnavailable, match="^disk full$"), at_depth(2):
        run_pipeline(
            frames, MotionConfig(downscale=1, min_motion_pixels=1), sink,
            SidecarWriter(io.StringIO()),
        )


def test_capacity_one_with_heavy_drops_terminates():
    """Sentinel propagation must not deadlock when most frames drop and
    every queue slot matters."""
    arr = np.full((16, 16), 5, np.uint8)
    frames = [gray_frame(arr, i) for i in range(200)]
    from motionsieve import PixelFormat, StreamHeader

    header = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
    video = io.BytesIO()
    writer = Y4MWriter(video, header)
    with at_depth(1):
        report = run_pipeline(
            frames, MotionConfig(), writer, SidecarWriter(io.StringIO())
        )
    assert report.frames_in == 200
    assert report.frames_out == 1


@contextlib.contextmanager
def _recorded_waits():
    """Inside the ``with`` block, every threading.Condition.wait made by
    this thread or a stage thread appends ``(thread name, timeout)`` to the
    list this yields, and the set this yields holds the names of the
    threads inside such a wait."""
    waits, waiting = [], set()
    real = threading.Condition.wait
    here = threading.current_thread().name

    def wait(self, timeout=None):
        name = threading.current_thread().name
        if name != here and not name.startswith("motionsieve-"):
            return real(self, timeout)
        waits.append((name, timeout))
        waiting.add(name)
        try:
            return real(self, timeout)
        finally:
            waiting.discard(name)

    with mock.patch.object(threading.Condition, "wait", wait):
        yield waits, waiting


def test_an_idle_run_makes_no_timed_wait():
    """A stage waiting on a link sleeps until it has work or the run is
    cancelled: while the source pauses between two frames, no stage wakes
    on a timer."""

    def paused():
        yield gray_frame(np.zeros((48, 64), np.uint8), 0)
        time.sleep(0.3)
        yield gray_frame(np.full((48, 64), 200, np.uint8), 1)

    writer = Y4MWriter(io.BytesIO(), StreamHeader(64, 48, 30, 1, PixelFormat.GRAY8))
    with _recorded_waits() as (waits, _):
        report = run_pipeline(paused(), MotionConfig(), writer,
                              SidecarWriter(io.StringIO()))
    assert (report.frames_in, report.frames_out) == (2, 2)
    assert ("motionsieve-analysis", None) in waits
    assert [wait for wait in waits if wait[1] is not None] == []


def test_a_write_failure_wakes_a_read_stage_waiting_for_room():
    """At depth 1, a write-stage failure reaches a read stage that waits
    for room on its full link by cancelling the link, not on a timer: no
    wait of the run carries a timeout.  The sink fails once analysis waits
    for room behind it, so the read stage's wait can end only by the
    cancellation."""
    rng = np.random.default_rng(5)
    frames = [
        gray_frame(rng.integers(0, 256, (8, 8), np.uint8), i) for i in range(50)
    ]

    class FailOnceBothWait:
        def write_frame(self, frame):
            deadline = time.monotonic() + 10
            while not {"motionsieve-read", "motionsieve-analysis"} <= waiting:
                assert time.monotonic() < deadline, waits
                time.sleep(0.001)
            raise SinkUnavailable("disk full")

    with _recorded_waits() as (waits, waiting), at_depth(1):
        with pytest.raises(SinkUnavailable, match="^disk full$"):
            run_pipeline(
                frames, MotionConfig(downscale=1, min_motion_pixels=1),
                FailOnceBothWait(), SidecarWriter(io.StringIO()),
            )
    _assert_no_stage_thread()
    assert [wait for wait in waits if wait[1] is not None] == []


@pytest.mark.parametrize("capacity", [1, 2])
def test_links_lose_no_item_when_threads_switch_every_microsecond(capacity):
    """Each link's items, byte count and wake-ups are shared by two threads:
    with the interpreter switching between them as often as it can, the run
    still emits exactly the reference output."""
    header = StreamHeader(24, 16, 30, 1, PixelFormat.GRAY8)
    lumas = moving_square_luma(24, 16, 200, size=4, step=3)
    frames = [gray_frame(luma, i) for i, luma in enumerate(lumas)]
    expected = render_reference(header, frames, VARIED_CONFIG)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        video, sidecar, report = render_pipeline(
            header, frames, VARIED_CONFIG, capacity
        )
    finally:
        sys.setswitchinterval(previous)
    assert (video, sidecar) == expected
    assert report.frames_in == len(frames)


def test_report_speed_consistent_with_counts():
    rng = np.random.default_rng(1)
    frames = [
        gray_frame(rng.integers(0, 256, (16, 16), np.uint8), i)
        for i in range(30)
    ]
    from motionsieve import PixelFormat, StreamHeader

    header = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
    writer = Y4MWriter(io.BytesIO(), header)
    report = run_pipeline(
        frames, VARIED_CONFIG, writer, SidecarWriter(io.StringIO())
    )
    assert report.wall_time > 0
    assert report.processing_speed == pytest.approx(
        report.frames_in / report.wall_time
    )


def test_ctrl_c_while_joining_stops_every_stage():
    """A real SIGINT that lands while run_pipeline waits for its stages
    propagates as KeyboardInterrupt and leaves no stage thread running."""
    import os
    import signal
    import threading
    import time

    frame = gray_frame(np.full((16, 16), 7, np.uint8))
    quit_source = threading.Event()

    def endless():
        # The event only ends the stream once the test is over, so a
        # pipeline that ignored the interrupt cannot outlive the test.
        while not quit_source.is_set():
            yield frame

    def stage_threads():
        return [t.name for t in threading.enumerate()
                if t.name.startswith("motionsieve-") and t.is_alive()]

    from motionsieve import PixelFormat, StreamHeader

    writer = Y4MWriter(io.BytesIO(), StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8))
    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    # pytest started with SIGINT ignored (a background job of a
    # non-interactive shell) would drop the signal and join forever.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        timer.start()
        with pytest.raises(KeyboardInterrupt), at_depth(2):
            run_pipeline(endless(), MotionConfig(), writer,
                         SidecarWriter(io.StringIO()))
        deadline = time.monotonic() + 1.0
        while stage_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert stage_threads() == []
    finally:
        timer.cancel()
        quit_source.set()
        signal.signal(signal.SIGINT, previous)


def test_ctrl_c_keeps_a_stage_stuck_in_next_alive():
    """After Ctrl-C, a read stage still blocked in the source's next()
    reports alive until the source lets go, so a caller can tell that a
    stage is stuck instead of finding every stage stopped."""
    import os
    import signal
    import threading
    import time

    frame = gray_frame(np.full((16, 16), 7, np.uint8))
    entered = threading.Event()
    release = threading.Event()

    def stuck():
        yield frame
        entered.set()
        release.wait(10)
        yield frame

    def interrupt():
        if entered.wait(10):
            # Let run_pipeline start every stage and settle into its wait.
            time.sleep(0.2)
            os.kill(os.getpid(), signal.SIGINT)

    from motionsieve import PixelFormat, StreamHeader

    writer = Y4MWriter(io.BytesIO(), StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8))
    interrupter = threading.Thread(target=interrupt)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        interrupter.start()
        with pytest.raises(KeyboardInterrupt), at_depth(2):
            run_pipeline(stuck(), MotionConfig(), writer,
                         SidecarWriter(io.StringIO()))
        [reader] = [t for t in threading.enumerate() if t.name == "motionsieve-read"]
        assert reader.is_alive()
        release.set()
        reader.join(5.0)
        assert not reader.is_alive()
    finally:
        release.set()
        # No SIGINT may land once the previous handler is back.
        interrupter.join(15.0)
        signal.signal(signal.SIGINT, previous)


def test_ctrl_c_waits_once_for_all_stuck_stages():
    """With the read stage stuck in next() and the write stage stuck in
    write_frame, Ctrl-C re-raises after one shutdown wait shared by every
    stage, not one wait per stuck stage."""
    import os
    import signal
    import threading
    import time

    frame = gray_frame(np.full((16, 16), 7, np.uint8))
    source_stuck = threading.Event()
    sink_stuck = threading.Event()
    release = threading.Event()

    def stuck():
        yield frame
        source_stuck.set()
        release.wait(10)

    class StuckSink:
        def write_frame(self, frame):
            sink_stuck.set()
            release.wait(10)

        def write_row(self, record):
            pass

    sent = []

    def interrupt():
        if source_stuck.wait(10) and sink_stuck.wait(10):
            time.sleep(0.1)
            sent.append(time.monotonic())
            os.kill(os.getpid(), signal.SIGINT)

    sink = StuckSink()
    interrupter = threading.Thread(target=interrupt)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        interrupter.start()
        with pytest.raises(KeyboardInterrupt), at_depth(2):
            run_pipeline(stuck(), MotionConfig(), sink, sink)
        assert time.monotonic() - sent[0] < 1.5
    finally:
        release.set()
        interrupter.join(15.0)
        signal.signal(signal.SIGINT, previous)


def _assert_let_go_once_written(pixel_format, run):
    """Start ``run(source)`` on a thread, with a source that yields a 64x48
    frame 0 over a watched read-only array and then blocks.  Once a
    Y4MWriter has written that frame, no stage may hold it: the array must
    be freed within 2 s while the source still blocks."""
    payload = np.full(pixel_format.frame_size(64, 48), 90, np.uint8)
    payload.flags.writeable = False
    watched = weakref.ref(payload)
    frames = [Frame(0, 64, 48, pixel_format, payload)]
    del payload
    written, release = threading.Event(), threading.Event()

    def source():
        yield frames.pop()
        release.wait(10)

    real = Y4MWriter.write_frame

    def write_frame(self, frame):
        real(self, frame)
        written.set()

    with mock.patch.object(Y4MWriter, "write_frame", write_frame):
        thread = threading.Thread(target=run, args=(source(),))
        thread.start()
        try:
            assert written.wait(10)
            deadline = time.monotonic() + 2
            while watched() is not None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert watched() is None
        finally:
            release.set()
            thread.join(10)
    assert not thread.is_alive()


def test_a_written_frame_is_let_go_while_the_source_blocks():
    """No stage of a compress run keeps a frame once it is written."""
    header = StreamHeader(64, 48, 30, 1, PixelFormat.GRAY8)
    video, sidecar = io.BytesIO(), io.StringIO()

    def run(source):
        run_pipeline(source, MotionConfig(), Y4MWriter(video, header),
                     SidecarWriter(sidecar))

    _assert_let_go_once_written(PixelFormat.GRAY8, run)
    assert video.getvalue() == serialize_y4m_header(header) + b"FRAME\n" + bytes(
        [90] * 64 * 48
    )
    assert sidecar.getvalue().splitlines()[1:] == ["0,0,1"]


def test_a_rebuilt_position_is_let_go_while_the_source_blocks(tmp_path):
    """No stage of a reconstruct run keeps the colour frame of a position
    once it is written."""
    header = StreamHeader(64, 48, 30, 1, PixelFormat.YUV420)
    prefix = str(tmp_path / "r")

    def run(source):
        reconstruct_files(source, header, [SidecarRecord(0, 0, True)], prefix)

    _assert_let_go_once_written(PixelFormat.YUV420, run)
    with open(prefix + ".dl.y4m", "rb") as fh:
        assert [bytes(frame.data) for frame in Y4MReader(fh)] == [
            bytes([90] * header.frame_size())
        ]


def _peak_traced_bytes(side, count, sink_seconds=0.005):
    """Peak memory traced while run_pipeline moves ``count`` fresh
    side x side GRAY8 frames, from a plain generator with no header, into
    a video sink that takes ``sink_seconds`` a frame."""
    import time
    import tracemalloc

    from motionsieve import Frame, PixelFormat

    def source():
        # Each frame differs from the last everywhere, so every one is kept
        # and each outcome carries a frame-sized payload of its own.
        for i in range(count):
            data = bytes([200 * (i % 2)]) * side**2
            yield Frame(i, side, side, PixelFormat.GRAY8, data)

    class SlowSink:
        def write_frame(self, frame):
            time.sleep(sink_seconds)

        def write_row(self, record):
            pass

    sink = SlowSink()
    tracemalloc.start()
    try:
        run_pipeline(source(), MotionConfig(), sink, sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_queued_frames_bound_memory():
    """With a fast source and a slow sink both queues fill, and memory
    stays within the queued frames plus the few the stages hold.

    Beyond the 2 * QUEUE_CAPACITY queued frames, c = 7 frames
    cover what the stages hold at once: the reader's next frame, blocked on
    a full queue (1); the analysis stage's input, the masked copy it builds
    in numpy and that copy's bytes (3), with the previous and current gray
    grids and the dilated mask, each about a quarter frame at s = 2 (under
    1); the frame the writer is writing (1); and one frame of slack for the
    interpreter's own allocations, which are a small part of one 256 KiB
    frame.  Measured: 21.2 frames at depth 8, 48 at depth 64.
    """
    from motionsieve.pipeline import QUEUE_CAPACITY

    side, count = 512, 48
    bound = (2 * QUEUE_CAPACITY + 7) * side**2
    assert count * side**2 > bound
    assert _peak_traced_bytes(side, count) < bound
    # At depth 64 the whole stream piles up: the measurement sees queued
    # frames, so the bound above is not met by accident.
    with at_depth(64):
        assert _peak_traced_bytes(side, count) > bound


def test_byte_budget_bounds_memory_whatever_the_frame_size():
    """Frames so large that the byte budget binds before the frame cap
    keep memory within what the two queues may hold by bytes, plus the
    c = 7 frames the stages hold (see test_queued_frames_bound_memory).

    A queue admits while it holds under QUEUE_BYTE_BUDGET bytes, so it
    holds at most the budget plus the one frame that crossed it.  The bound
    depends on the frame size only through those frames.  Measured: 11.0
    frames of 4 MiB against a bound of 13.4; 21 with queues capped by
    frame count alone.
    """
    from motionsieve.pipeline import QUEUE_BYTE_BUDGET, QUEUE_CAPACITY

    side, count = 2048, 24
    frame = side**2
    bound = 2 * (QUEUE_BYTE_BUDGET + frame) + 7 * frame
    assert QUEUE_BYTE_BUDGET + frame < QUEUE_CAPACITY * frame
    assert count * frame > bound
    # The sink is the slowest stage, so both queues fill.
    assert _peak_traced_bytes(side, count, sink_seconds=0.03) < bound


def test_frames_larger_than_the_byte_budget_still_move():
    """An empty queue admits one frame of any size, so a stream whose
    every frame exceeds the byte budget runs to the end."""
    from motionsieve import Frame, PixelFormat
    from motionsieve.pipeline import QUEUE_BYTE_BUDGET

    side = math.isqrt(QUEUE_BYTE_BUDGET) + 2
    frames = [
        Frame(i, side, side, PixelFormat.GRAY8, bytes([200 * (i % 2)]) * side**2)
        for i in range(3)
    ]
    sink = _ExplodingSink(allow=len(frames))
    with at_depth(2):
        report = run_pipeline(iter(frames), MotionConfig(), sink,
                              SidecarWriter(io.StringIO()))
    assert (report.frames_in, report.frames_out, sink.writes) == (3, 3, 3)


def _resting_square(pixel_format=PixelFormat.GRAY8):
    """A square that moves, rests, then moves again: the run drops frames,
    masks frames and promotes keyframes."""
    moves = moving_square_luma(16, 16, 16, size=4, step=2)
    patterns = moves[:8] + [moves[7]] * 8 + moves[8:]
    return [frame_from_luma(pattern, pixel_format, i)
            for i, pattern in enumerate(patterns)]


_FAULT_FRAMES = _resting_square()
_FAULT_HEADER = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
_FAULT_VIDEO, _FAULT_SIDECAR = render_reference(
    _FAULT_HEADER, _FAULT_FRAMES, VARIED_CONFIG
)


def _assert_no_stage_thread():
    for thread in threading.enumerate():
        if thread.name.startswith("motionsieve-"):
            thread.join(1.0)
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith("motionsieve-") and t.is_alive()]


def _failing_at(call, error, real, fired):
    """``real``, except that its ``call``-th call appends to ``fired`` and
    raises ``error``."""
    calls = itertools.count(1)

    def wrapper(*args):
        if next(calls) == call:
            fired.append(error)
            raise error
        return real(*args)

    return wrapper


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(1, 8),
    site=st.sampled_from(["next", "analyse", "write_frame", "write_row"]),
    call=st.integers(1, 26),
    error_type=st.sampled_from([OSError, ValueError, RuntimeError, SinkUnavailable]),
)
def test_injected_fault_stops_the_run_at_a_whole_prefix(
    capacity, site, call, error_type
):
    """A failure raised at any call of the source or a stage fails the run
    with that very error, leaves outputs that are a prefix of
    the reference, with the frame written before its row, and leaves no
    stage thread running.  A failure in the source or in analysis leaves
    exactly the output of the frames before it.  A failure never reached
    changes nothing."""
    error = error_type("injected")
    fired = []
    video = io.BytesIO()
    video_sink = Y4MWriter(video, _FAULT_HEADER)
    sidecar = io.StringIO()
    sidecar_sink = SidecarWriter(sidecar)
    source = iter(_FAULT_FRAMES)
    with contextlib.ExitStack() as patches:
        if site == "next":
            # iter(callable, sentinel) calls the callable for every next();
            # no frame is None, so only the list's end stops it.
            source = iter(_failing_at(call, error, source.__next__, fired), None)
        elif site == "analyse":
            patches.enter_context(mock.patch(
                "motionsieve.pipeline.analyse",
                _failing_at(call, error, analyse, fired),
            ))
        else:
            sink = video_sink if site == "write_frame" else sidecar_sink
            patches.enter_context(mock.patch.object(
                sink, site, _failing_at(call, error, getattr(sink, site), fired)
            ))
        patches.enter_context(at_depth(capacity))
        try:
            run_pipeline(source, VARIED_CONFIG, video_sink, sidecar_sink)
        except Exception as exc:
            assert exc is error
            assert fired == [error]
        else:
            assert fired == []

    _assert_no_stage_thread()

    got_video, got_sidecar = video.getvalue(), sidecar.getvalue()
    if not fired:
        assert (got_video, got_sidecar) == (_FAULT_VIDEO, _FAULT_SIDECAR)
        return
    if site in ("next", "analyse"):
        assert (got_video, got_sidecar) == render_reference(
            _FAULT_HEADER, _FAULT_FRAMES[:call - 1], VARIED_CONFIG
        )
    header_bytes = len(serialize_y4m_header(_FAULT_HEADER))
    frame_bytes = len(b"FRAME\n") + _FAULT_HEADER.frame_size()
    frames, torn = divmod(len(got_video) - header_bytes, frame_bytes)
    assert torn == 0
    assert got_video == _FAULT_VIDEO[:len(got_video)]
    assert got_sidecar.endswith("\n")
    assert _FAULT_SIDECAR.startswith(got_sidecar)
    rows = got_sidecar.count("\n") - 1
    assert 0 <= frames - rows <= 1


# The stored video that reconstruct reads: color frames, so that the
# pass-through (.dl) and rebuilt (.fgbg) writes differ in pixel format.
_STORED_HEADER = StreamHeader(16, 16, 30, 1, PixelFormat.YUV420)
_STORED, _STORED_ROWS = reference_compress(
    _resting_square(PixelFormat.YUV420), VARIED_CONFIG
)
_STORED_VIDEO = frames_to_y4m(_STORED_HEADER, _STORED)
_REBUILT_HEADER = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
_REBUILT_VIDEO = frames_to_y4m(
    _REBUILT_HEADER,
    [gray_frame(item.restored, position) for position, item
     in enumerate(reconstruct_stream(_STORED, _STORED_ROWS))],
)
_ALIGN = "position,input_frame\n" + "".join(
    f"{position},{row.input_frame}\n" for position, row in enumerate(_STORED_ROWS)
)
# The positions of the masked rows, the ones rebuilt with the kernels.
_MASKED_POSITIONS = [
    position for position, row in enumerate(_STORED_ROWS) if not row.full_frame
]


class _FailingWrites:
    """A text file whose write() is ``write``."""

    def __init__(self, handle, write):
        self._handle = handle
        self.write = write

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def flush(self):
        self._handle.flush()

    def close(self):
        self._handle.close()


@settings(max_examples=50, deadline=None)
@given(
    site=st.sampled_from(["next", "env_frame", "rec_frame", "dl", "fgbg", "align"]),
    call=st.integers(1, 20),
    error_type=st.sampled_from([OSError, ValueError, RuntimeError, SinkUnavailable]),
)
def test_injected_fault_stops_reconstruct_at_a_whole_prefix(site, call, error_type):
    """A failure raised at any call of the source, of a rebuild kernel or
    of one of the three writes makes reconstruct_files raise that very
    error, except that an OSError or ValueError in an .align.csv write
    becomes SinkUnavailable, as in a Y4M write.  It leaves only *.partial
    files, with the pass-through stream a whole-frame prefix of the stored
    video, and leaves no stage thread running.  A failure in the source or
    a kernel leaves all three files holding exactly the positions before
    the one that failed.  A failure never reached changes nothing."""
    error = error_type("injected")
    fired = []
    source = iter(_STORED)
    with contextlib.ExitStack() as patches:
        if site == "next":
            source = iter(_failing_at(call, error, source.__next__, fired), None)
        elif site in ("env_frame", "rec_frame"):
            kernel = env_frame if site == "env_frame" else rec_frame
            patches.enter_context(mock.patch(
                f"motionsieve.reconstruct.{site}",
                _failing_at(call, error, kernel, fired),
            ))
        elif site == "align":
            def open_failing(path, *args, **kwargs):
                handle = open(path, *args, **kwargs)
                if not path.endswith(".align.csv.partial"):
                    return handle
                return _FailingWrites(
                    handle, _failing_at(call, error, handle.write, fired)
                )

            patches.enter_context(mock.patch(
                "motionsieve.reconstruct.open", open_failing, create=True
            ))
        else:
            written = PixelFormat.YUV420 if site == "dl" else PixelFormat.GRAY8
            real = Y4MWriter.write_frame
            failing = _failing_at(call, error, real, fired)

            def write_frame(self, frame):
                pick = failing if frame.pixel_format is written else real
                return pick(self, frame)

            patches.enter_context(
                mock.patch.object(Y4MWriter, "write_frame", write_frame)
            )
        out = patches.enter_context(tempfile.TemporaryDirectory())
        prefix = os.path.join(out, "r")
        try:
            reconstruct_files(source, _STORED_HEADER, _STORED_ROWS, prefix)
        except Exception as exc:
            if site == "align" and error_type in (OSError, ValueError):
                assert type(exc) is SinkUnavailable
                assert exc.__cause__ is error
            else:
                assert exc is error
            assert fired == [error]
        else:
            assert fired == []
        _assert_no_stage_thread()

        suffixes = (".dl.y4m", ".fgbg.y4m", ".align.csv")
        if not fired:
            assert sorted(os.listdir(out)) == sorted("r" + s for s in suffixes)
            got = []
            for suffix in suffixes:
                with open(prefix + suffix, "rb") as fh:
                    got.append(fh.read())
            assert got == [_STORED_VIDEO, _REBUILT_VIDEO, _ALIGN.encode()]
            return
        _assert_stored_prefix_left(out, prefix)
        if site == "next":
            _assert_positions_left(prefix, call - 1)
        elif site in ("env_frame", "rec_frame"):
            # A 16x16 position is rebuilt in one band: one call a position.
            _assert_positions_left(prefix, _MASKED_POSITIONS[call - 1])


def _assert_positions_left(prefix, count):
    """The three *.partial files at ``prefix`` hold exactly the first
    ``count`` positions of the whole outputs."""
    frames = len(b"FRAME\n") + _STORED_HEADER.frame_size()
    rebuilt = len(b"FRAME\n") + _REBUILT_HEADER.frame_size()
    expected = [
        _STORED_VIDEO[:len(serialize_y4m_header(_STORED_HEADER)) + count * frames],
        _REBUILT_VIDEO[:len(serialize_y4m_header(_REBUILT_HEADER)) + count * rebuilt],
        "".join(_ALIGN.splitlines(keepends=True)[:count + 1]).encode(),
    ]
    got = []
    for suffix in (".dl.y4m", ".fgbg.y4m", ".align.csv"):
        with open(prefix + suffix + ".partial", "rb") as fh:
            got.append(fh.read())
    assert got == expected


def _assert_stored_prefix_left(out, prefix):
    """Only the three *.partial files are in ``out``, and the pass-through
    stream is a whole-frame prefix of the stored video."""
    assert sorted(os.listdir(out)) == sorted(
        "r" + s + ".partial" for s in (".dl.y4m", ".fgbg.y4m", ".align.csv")
    )
    with open(prefix + ".dl.y4m.partial", "rb") as fh:
        stored = fh.read()
    header_bytes = len(serialize_y4m_header(_STORED_HEADER))
    frame_bytes = len(b"FRAME\n") + _STORED_HEADER.frame_size()
    assert (len(stored) - header_bytes) % frame_bytes == 0
    assert stored == _STORED_VIDEO[:len(stored)]


@settings(max_examples=30, deadline=None)
@given(
    site=st.sampled_from(["env_frame", "rec_frame"]),
    masked=st.integers(0, 9),
    band=st.integers(2, 5),
    error_type=st.sampled_from([OSError, ValueError, RuntimeError, SinkUnavailable]),
)
def test_fault_in_a_middle_band_stops_reconstruct_at_a_whole_prefix(
    site, masked, band, error_type
):
    """With 3-row bands each 16x16 masked position is rebuilt in six
    bands.  A failure raised in one of the four middle bands of any of the
    ten masked positions makes reconstruct_files raise that very error.
    It leaves only *.partial files, with the pass-through stream a
    whole-frame prefix of the stored video and the rebuilt stream one of
    the rebuilt video, so no half-built frame is written, and leaves no
    stage thread running.  The three files hold exactly the positions
    before the failed one."""
    error = error_type("injected")
    fired = []
    kernel = env_frame if site == "env_frame" else rec_frame
    call = 6 * masked + band
    with contextlib.ExitStack() as patches:
        patches.enter_context(
            mock.patch("motionsieve.motion_core._BAND_BYTES", 3 * 16)
        )
        patches.enter_context(mock.patch(
            f"motionsieve.reconstruct.{site}",
            _failing_at(call, error, kernel, fired),
        ))
        out = patches.enter_context(tempfile.TemporaryDirectory())
        prefix = os.path.join(out, "r")
        with pytest.raises(error_type) as raised:
            reconstruct_files(iter(_STORED), _STORED_HEADER, _STORED_ROWS, prefix)
        assert raised.value is error
        assert fired == [error]
        _assert_no_stage_thread()
        _assert_stored_prefix_left(out, prefix)
        _assert_positions_left(prefix, _MASKED_POSITIONS[masked])
        with open(prefix + ".fgbg.y4m.partial", "rb") as fh:
            rebuilt = fh.read()
    header_bytes = len(serialize_y4m_header(_REBUILT_HEADER))
    frame_bytes = len(b"FRAME\n") + _REBUILT_HEADER.frame_size()
    assert (len(rebuilt) - header_bytes) % frame_bytes == 0
    assert rebuilt == _REBUILT_VIDEO[:len(rebuilt)]
