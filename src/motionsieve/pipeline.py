"""Concurrent stage runner, and the compression pipeline built on it.

_run_stages runs a source, at most one fold and an emit on one thread
per stage, joined by _Link FIFOs bounded in frames and in bytes, so a slow
stage applies backpressure instead of ballooning memory, whatever the
frame size.  A stage pulls its next item only once the link it feeds has
room, so no stage holds an item it cannot hand on, and a waiting stage
sleeps until it has work or the run is cancelled.  End of input is
signalled by a sentinel that cascades down the links.  A stage error
cancels every link before the failed stage, which wakes each stage
waiting there at once, and ends the link after it with the sentinel, so
the stages after it still hand on every item they were given: the sinks
hold the output of each item before the failure.  The first error is
raised unchanged.

run_pipeline is the compression run: reader, analysis fold _kept and
writer.  reconstruct_files runs the rebuild on the same runner, with no
fold: read and rebuild on one thread, the three writes on the other.  The
write stage hands emit each item with its 0-based position, which is the
output position of a compressed frame and of a rebuilt one alike.

Queue bounds affect scheduling only: for any capacity >= 1 the emitted
video and sidecar are byte-identical to the single-threaded
reference_compress fold, which exists as the plain-English executable
answer to "what is this pipeline supposed to produce".
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .frame_io import Frame
from .motion_core import AnalysisOutcome, AnalysisState, MotionConfig, analyse
from .sidecar import SidecarRecord, _checked_record

# Frames each inter-stage queue holds at most.  Frames over an eighth of
# the byte budget below, such as 1080p, meet the budget first; smaller
# ones meet this cap.  Depth beyond it buys small frames only memory: on
# 720p GRAY8, where the budget alone allows 10 frames a queue, the cap
# kept peak RSS 3-4 MB lower at the same fps (BENCH_14.json).
QUEUE_CAPACITY = 8
# Bytes of frame payload each inter-stage queue holds before it stops
# admitting more; an empty queue admits a frame of any size.  Three 1080p
# YUV420 frames, from a sweep of one to four against depth 8 alone
# (BENCH_14.json): every budget kept busy-1080p and static-1080p fps and
# CPU per frame within run-to-run spread, but below three the traced time
# analysis waits for input rose past the spread on busy-1080p.  Three cut
# busy-1080p peak RSS from 95 to 72 MB.
QUEUE_BYTE_BUDGET = 3 * 1920 * 1080 * 3 // 2

_SENTINEL = object()
_SHUTDOWN_SECONDS = 1.0


class _Cancelled(Exception):
    """Internal: another stage failed, unwind quietly."""


def _payload(item) -> int:
    """Bytes of frame payload a queued item holds: a frame's, an outcome's
    frame's, and none for anything else, such as the end-of-input
    sentinel."""
    frame = item.frame if isinstance(item, AnalysisOutcome) else item
    return len(frame.data) if isinstance(frame, Frame) else 0


class _Link:
    """The FIFO that joins one stage to the next: full at ``capacity``
    items or at QUEUE_BYTE_BUDGET bytes of frame payload, whichever comes
    first, though an empty link admits one item of any size.  One stage
    puts and one gets, so at most one of them waits on the condition.
    Waits take no timeout; once the link is cancelled, each raises
    _Cancelled."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.items: deque = deque()
        self.payload = 0
        self.cancelled = False
        self.changed = threading.Condition()

    def _wait(self, ready: Callable[[], bool]) -> None:
        """Wait, holding the lock, until ``ready()`` or cancellation."""
        self.changed.wait_for(lambda: self.cancelled or ready())
        if self.cancelled:
            raise _Cancelled

    def wait_for_room(self) -> None:
        """Return once the link has room for one more item."""
        with self.changed:
            self._wait(lambda: len(self.items) < self.capacity
                       and self.payload < QUEUE_BYTE_BUDGET)

    def put(self, item) -> None:
        with self.changed:
            self.items.append(item)
            self.payload += _payload(item)
            self.changed.notify()

    def get(self):
        """The oldest item, once there is one."""
        with self.changed:
            self._wait(lambda: bool(self.items))
            item = self.items.popleft()
            self.payload -= _payload(item)
            self.changed.notify()
            return item

    def cancel(self) -> None:
        with self.changed:
            self.cancelled = True
            self.changed.notify_all()


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
    """The analysis fold: every outcome that is not a drop, in order.  A
    record the sidecar could not hold raises the sidecar's error before
    its outcome is yielded, so neither sink receives its frame."""
    state, previous_input = AnalysisState(), -1
    for frame in frames:
        outcome, state = analyse(state, config, frame)
        if (record := outcome.record) is not None:
            previous_input = _checked_record(
                record, previous_input, record.output_frame
            ).input_frame
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
) -> PipelineReport:
    """Compress ``source`` into ``video_sink`` + ``sidecar_sink``.

    ``video_sink`` needs a write_frame(frame) method, ``sidecar_sink`` a
    write_row(record) method; neither is closed here, the caller owns both.
    Raises the first stage error as raised.  The sinks then hold the output
    of every frame before the one that failed, or, if a sink failed, a
    prefix of it (whole frames and whole rows only, never a torn record).
    A frame whose sidecar row the sidecar could not hold, such as an
    ``index`` that does not rise, fails before either sink receives it.
    On an interrupt, such as Ctrl-C, the interrupt is re-raised without
    waiting for a stage inside ``source`` or a sink: only the caller, by
    aborting them, can free such a stage.
    """

    def emit(_position: int, outcome) -> None:
        video_sink.write_frame(outcome.frame)
        sidecar_sink.write_row(outcome.record)

    started = time.monotonic()
    frames_in, frames_out = _run_stages(
        source, emit, QUEUE_CAPACITY, lambda frames: _kept(frames, config)
    )
    wall_time = max(time.monotonic() - started, 1e-9)
    return PipelineReport(frames_in, frames_out, wall_time)


def _run_stages(
    source: Iterable,
    emit: Callable[[int, object], None],
    queue_capacity: int,
    analysis: Callable[[Iterator], Iterator] | None = None,
) -> tuple[int, int]:
    """Run ``source``, through ``analysis`` if given, into ``emit``, one
    thread per stage.

    The ``read`` stage iterates ``source``; the ``analysis`` stage, if
    there is one, maps the items of the _Link before it to the items of
    its own; and the ``write`` stage calls ``emit(position, item)`` on each
    item of the last link, in order, ``position`` counting from 0.  Each
    link holds at most ``queue_capacity`` items, and a stage pulls its
    next item only once the link it feeds has room.  Iterating ``source``
    and calling ``emit`` count as the caller's code.

    Returns the items read and the items written; once every stage has
    stopped, the first error of any stage is raised as it was raised.  A
    failed stage cancels the stages before it, and those after it first
    hand on every item it gave them.  On an interrupt, such as Ctrl-C,
    the interrupt is re-raised without waiting for a stage inside the
    caller's code.
    """
    stop = threading.Event()
    links = [_Link(queue_capacity) for _ in range(1 if analysis is None else 2)]
    failure_lock = threading.Lock()
    failures: list[BaseException] = []
    results: dict[str, int] = {}
    finished: dict[str, threading.Event] = {}
    in_caller: set[str] = set()

    def cancel() -> None:
        stop.set()
        for link in links:
            link.cancel()

    def fail(exc: BaseException, feeds: _Link | None) -> None:
        """Keep ``exc`` if it is the run's first error, cancel the links
        before the stage that raised it and end ``feeds``, the link that
        stage feeds, as end of input does: the stages after it still hand
        on every item they were given."""
        with failure_lock:
            if not failures:
                failures.append(exc)
        for link in links if feeds is None else links[:links.index(feeds)]:
            link.cancel()
        if feeds is not None:
            feeds.put(_SENTINEL)

    def caller(name: str, call, *args):
        """``call(*args)``, a call into the caller's source or sinks, made
        only until the run is interrupted; stage ``name`` is marked as
        inside the caller's code until it returns."""
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

    def drain(link: _Link):
        while (item := link.get()) is not _SENTINEL:
            yield item

    def pump(items: Iterator, link: _Link) -> int:
        count = 0
        while True:
            # Only this stage puts on the link, so the room it waited for is
            # still there once the next item is pulled.
            link.wait_for_room()
            item = next(items, _SENTINEL)
            link.put(item)
            if item is _SENTINEL:
                return count
            count += 1

    def write(items) -> int:
        position = -1
        for position, item in enumerate(items):
            caller("write", emit, position, item)
        return position + 1

    def stage(name: str, items: Iterator, feeds: _Link | None = None) -> None:
        """Start stage ``name``, which puts ``items`` on ``feeds`` or, with
        no link to feed, writes them."""
        # The event, not Thread.join, tells when a stage is over: on
        # CPython 3.11 a join interrupted by Ctrl-C marks the thread
        # stopped while it still runs.
        done = threading.Event()

        def run() -> None:
            try:
                results[name] = write(items) if feeds is None else pump(items, feeds)
            except _Cancelled:
                pass
            except BaseException as exc:
                fail(exc, feeds)
            finally:
                done.set()

        threading.Thread(target=run, name=f"motionsieve-{name}").start()
        finished[name] = done

    try:
        stage("read", pull(source), links[0])
        if analysis is not None:
            stage("analysis", analysis(drain(links[0])), links[1])
        stage("write", drain(links[-1]))
        for done in finished.values():
            done.wait()
    except BaseException:
        # Ctrl-C lands here, in the calling thread: cancel the stages so the
        # process can exit.  A stage inside the caller's code, such as a
        # next() on a stalled decoder, can end only once the caller aborts
        # its streams, after this returns, so it is not waited for.  Read
        # after stop is set, in_caller misses no stage that could still
        # enter such a call; the rest share one deadline.
        cancel()
        deadline = time.monotonic() + _SHUTDOWN_SECONDS
        for name in [name for name in finished if name not in in_caller]:
            finished[name].wait(max(0.0, deadline - time.monotonic()))
        raise

    if failures:
        raise failures[0]
    return results.get("read", 0), results.get("write", 0)
