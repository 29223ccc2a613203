"""Concurrent stage runner, and the compression pipeline built on it.

_run_stages runs a source, zero or more folds and an emit on one thread
per link, joined by FIFO queues bounded in frames and in bytes, so a slow
stage applies backpressure instead of ballooning memory, whatever the
frame size.  A stage pulls its next item only once the queue it feeds has
room, so no stage holds an item it cannot hand on.  End of input is
signalled by a sentinel that cascades down the queues.  On any stage error
the others are cancelled promptly and the first error wins.

run_pipeline is the compression run: reader, analysis and writer, the
analysis fold being _kept.  It raises StageFailure wrapping the first
error.  reconstruct_files runs the rebuild on the same runner, with no
fold: read and rebuild on one thread, the three writes on the other.

Queue bounds affect scheduling only: for any capacity >= 1 the emitted
video and sidecar are byte-identical to the single-threaded
reference_compress fold, which exists as the plain-English executable
answer to "what is this pipeline supposed to produce".
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .errors import StageFailure
from .frame_io import Frame
from .motion_core import AnalysisOutcome, AnalysisState, MotionConfig, analyse
from .sidecar import SidecarRecord

# Frames each inter-stage queue holds at most.  Frames over an eighth of
# the byte budget below, such as 1080p, meet the budget first; smaller
# ones meet this cap.  Depth beyond it buys small frames only memory: on
# 720p GRAY8, where the budget alone allows 10 frames a queue, the cap
# kept peak RSS 3-4 MB lower at the same fps (BENCH_14.json).
DEFAULT_QUEUE_CAPACITY = 8
# Bytes of frame payload each inter-stage queue holds before it stops
# admitting more; an empty queue admits a frame of any size.  Three 1080p
# YUV420 frames, from a sweep of one to four against depth 8 alone
# (BENCH_14.json): every budget kept busy-1080p and static-1080p fps and
# CPU per frame within run-to-run spread, but below three the traced time
# analysis waits for input rose past the spread on busy-1080p.  Three cut
# busy-1080p peak RSS from 95 to 72 MB.
QUEUE_BYTE_BUDGET = 3 * 1920 * 1080 * 3 // 2

_SENTINEL = object()
_POLL_SECONDS = 0.05
_SHUTDOWN_SECONDS = 1.0


class _Cancelled(Exception):
    """Internal: another stage failed, unwind quietly."""


def _payload(item) -> int:
    """Bytes of frame payload a queued item holds: a frame's, an outcome's
    frame's, and none for anything else, such as the end-of-input
    sentinel."""
    frame = item.frame if isinstance(item, AnalysisOutcome) else item
    return len(frame.data) if isinstance(frame, Frame) else 0


class _PayloadQueue(queue.Queue):
    """A FIFO that is full at ``maxsize`` items or at QUEUE_BYTE_BUDGET
    bytes of frame payload, whichever comes first.  An empty queue always
    admits one item, so a frame larger than the budget still moves."""

    def _init(self, maxsize):
        super()._init(maxsize)
        self.payload = 0

    def _qsize(self):
        # Queue.put waits while this is >= maxsize and Queue.get while it
        # is 0; a queue over budget is never empty, so it reads as full.
        if self.payload >= QUEUE_BYTE_BUDGET:
            return self.maxsize
        return len(self.queue)

    def _put(self, item):
        self.payload += _payload(item)
        super()._put(item)

    def _get(self):
        item = super()._get()
        self.payload -= _payload(item)
        return item

    def wait_for_room(self, timeout: float) -> None:
        """Return once a put would not block; raise queue.Full if that
        takes longer than ``timeout`` seconds."""
        with self.not_full:
            if not self.not_full.wait_for(
                lambda: self._qsize() < self.maxsize, timeout
            ):
                raise queue.Full


@dataclass(frozen=True)
class PipelineReport:
    """What a run did: frame counts and wall time in seconds."""

    frames_in: int
    frames_out: int
    wall_time: float

    @property
    def processing_speed(self) -> float:
        """Frames read per second of wall time."""
        return self.frames_in / self.wall_time


def _kept(frames: Iterable[Frame], config: MotionConfig) -> Iterator:
    """The analysis fold: every outcome that is not a drop, in order."""
    state = AnalysisState()
    for frame in frames:
        outcome, state = analyse(state, config, frame)
        if outcome.record is not None:
            yield outcome


def reference_compress(
    frames: Iterable[Frame], config: MotionConfig
) -> tuple[list[Frame], list[SidecarRecord]]:
    """Single-threaded fold producing exactly what run_pipeline must emit."""
    outcomes = list(_kept(frames, config))
    return [o.frame for o in outcomes], [o.record for o in outcomes]


def run_pipeline(
    source: Iterable[Frame],
    config: MotionConfig,
    video_sink,
    sidecar_sink,
    *,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
) -> PipelineReport:
    """Compress ``source`` into ``video_sink`` + ``sidecar_sink``.

    ``video_sink`` needs a write_frame(frame) method, ``sidecar_sink`` a
    write_row(record) method; neither is closed here, the caller owns both.
    Raises StageFailure if any stage fails; sinks may then hold a prefix of
    the output (whole frames and whole rows only, never a torn record).
    On an interrupt, such as Ctrl-C, the interrupt is re-raised without
    waiting for a stage inside ``source`` or a sink: only the caller, by
    aborting them, can free such a stage.
    """

    def emit(outcome) -> None:
        video_sink.write_frame(outcome.frame)
        sidecar_sink.write_row(outcome.record)

    started = time.monotonic()
    frames_in, frames_out, failure = _run_stages(
        source, [("analysis", lambda frames: _kept(frames, config))], emit,
        queue_capacity,
    )
    wall_time = max(time.monotonic() - started, 1e-9)
    if failure is not None:
        raise StageFailure(f"{type(failure).__name__}: {failure}") from failure
    return PipelineReport(frames_in, frames_out, wall_time)


def _run_stages(
    source: Iterable,
    folds: Sequence[tuple[str, Callable[[Iterator], Iterator]]],
    emit: Callable[[object], None],
    queue_capacity: int,
) -> tuple[int, int, BaseException | None]:
    """Run ``source`` through each ``(name, fold)`` in turn into ``emit``,
    one thread per link.

    The ``read`` stage iterates ``source``, each fold's stage maps the
    items of the link before it to the items of its own, and the ``write``
    stage calls ``emit`` on each item of the last link, in order.  A
    _PayloadQueue of ``queue_capacity`` joins each link to the next, and a
    stage pulls its next item only once the queue it feeds has room, so a
    link holds at most its queue's items plus the one its consumer is on.
    Iterating ``source`` and calling ``emit`` count as the caller's code.

    Returns the items read, the items written and the first failure of any
    stage, or None; after a failure every stage has stopped.  On an
    interrupt, such as Ctrl-C, the interrupt is re-raised without waiting
    for a stage inside the caller's code.
    """
    if queue_capacity < 1:
        raise ValueError("queue capacity must be >= 1")

    stop = threading.Event()
    failure_lock = threading.Lock()
    failures: list[BaseException] = []
    results: dict[str, int] = {}
    finished: dict[str, threading.Event] = {}
    in_caller: set[str] = set()

    def fail(exc: BaseException) -> None:
        with failure_lock:
            if not failures:
                failures.append(exc)
        stop.set()

    def poll(call, *args):
        """``call(*args)`` on a queue, retried until it goes through or
        the run is cancelled."""
        while not stop.is_set():
            try:
                return call(*args, timeout=_POLL_SECONDS)
            except (queue.Full, queue.Empty):
                continue
        raise _Cancelled

    def caller(name: str, call, *args):
        """``call(*args)``, a call into the caller's source or sinks, made
        only while the run is live; stage ``name`` is marked as inside the
        caller's code until it returns."""
        in_caller.add(name)
        try:
            if stop.is_set():
                raise _Cancelled
            return call(*args)
        finally:
            in_caller.discard(name)

    def pull(items):
        """``items``, each next() made through ``caller``."""
        items = iter(items)
        while (item := caller("read", next, items, _SENTINEL)) is not _SENTINEL:
            yield item

    def drain(q: _PayloadQueue):
        while (item := poll(q.get)) is not _SENTINEL:
            yield item

    def pump(items: Iterator, q: _PayloadQueue) -> int:
        count = 0
        while True:
            # Only this stage puts on q, so the room it waited for is still
            # there once the next item is pulled.
            poll(q.wait_for_room)
            item = next(items, _SENTINEL)
            q.put_nowait(item)
            if item is _SENTINEL:
                return count
            count += 1

    def write(items) -> int:
        count = 0
        for count, item in enumerate(items, 1):
            caller("write", emit, item)
        return count

    def stage(name: str, body, *args) -> None:
        # The event, not Thread.join, tells when a stage is over: on
        # CPython 3.11 a join interrupted by Ctrl-C marks the thread
        # stopped while it still runs.
        done = threading.Event()

        def run() -> None:
            try:
                results[name] = body(*args)
            except _Cancelled:
                pass
            except BaseException as exc:
                fail(exc)
            finally:
                done.set()

        threading.Thread(target=run, name=f"motionsieve-{name}").start()
        finished[name] = done

    try:
        link = _PayloadQueue(queue_capacity)
        stage("read", pump, pull(source), link)
        for name, fold in folds:
            items, link = drain(link), _PayloadQueue(queue_capacity)
            stage(name, pump, fold(items), link)
        stage("write", write, drain(link))
        for done in finished.values():
            done.wait()
    except BaseException:
        # Ctrl-C lands here, in the calling thread: cancel the stages so the
        # process can exit.  A stage inside the caller's code, such as a
        # next() on a stalled decoder, can end only once the caller aborts
        # its streams, after this returns, so it is not waited for.  Read
        # after stop is set, in_caller misses no stage that could still
        # enter such a call; the rest share one deadline.
        stop.set()
        deadline = time.monotonic() + _SHUTDOWN_SECONDS
        for name in [name for name in finished if name not in in_caller]:
            finished[name].wait(max(0.0, deadline - time.monotonic()))
        raise

    failure = failures[0] if failures else None
    return results.get("read", 0), results.get("write", 0), failure
