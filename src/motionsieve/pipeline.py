"""Three-stage concurrent compression pipeline.

Reader, analysis, and writer run on their own threads, joined by bounded
FIFO queues so a slow stage applies backpressure instead of ballooning
memory.  End of input is signalled by a sentinel that cascades down the
queues.  On any stage error the others are cancelled promptly, the first
error wins, and run_pipeline raises StageFailure wrapping it.

Queue capacity affects scheduling only: for any capacity >= 1 the emitted
video and sidecar are byte-identical to the single-threaded
reference_compress fold, which exists as the plain-English executable
answer to "what is this pipeline supposed to produce".
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import StageFailure
from .frame_io import Frame
from .motion_core import AnalysisState, MotionConfig, analyse
from .sidecar import SidecarRecord
from .stats import CompressionStats

# Frames each inter-stage queue holds.  A 1080p YUV420 frame is ~3.1 MB,
# so the two queues can hold ~50 MB.  With the 1 MiB codec pipe the read
# stage keeps analysis fed at this depth: against depth 64, traced
# analysis waits the same, fps is within run-to-run spread, and peak RSS
# is 100 MB instead of 233 MB on busy-1080p (BENCH_8.json).
DEFAULT_QUEUE_CAPACITY = 8

_SENTINEL = object()
_POLL_SECONDS = 0.05
_SHUTDOWN_SECONDS = 1.0


class _Cancelled(Exception):
    """Internal: another stage failed, unwind quietly."""


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

    @property
    def stats(self) -> CompressionStats:
        return CompressionStats(self.frames_in, self.frames_out)


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
    """
    if queue_capacity < 1:
        raise ValueError("queue capacity must be >= 1")

    frame_queue: queue.Queue = queue.Queue(queue_capacity)
    outcome_queue: queue.Queue = queue.Queue(queue_capacity)
    stop = threading.Event()
    failure_lock = threading.Lock()
    failures: list[BaseException] = []
    results: dict[str, int] = {}
    finished: list[threading.Event] = []

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

    def drain(q: queue.Queue):
        while (item := poll(q.get)) is not _SENTINEL:
            yield item

    def pump(items, q: queue.Queue) -> int:
        count = 0
        for count, item in enumerate(items, 1):
            poll(q.put, item)
        poll(q.put, _SENTINEL)
        return count

    def write(outcomes) -> int:
        count = 0
        for count, outcome in enumerate(outcomes, 1):
            video_sink.write_frame(outcome.frame)
            sidecar_sink.write_row(outcome.record)
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
        finished.append(done)

    started = time.monotonic()
    try:
        stage("read", pump, source, frame_queue)
        stage("analysis", pump, _kept(drain(frame_queue), config), outcome_queue)
        stage("write", write, drain(outcome_queue))
        for done in finished:
            done.wait()
    except BaseException:
        # Ctrl-C lands here, in the calling thread: cancel the stages so the
        # process can exit, but never wait long on a source stuck in next():
        # every stage shares one deadline.
        stop.set()
        deadline = time.monotonic() + _SHUTDOWN_SECONDS
        for done in finished:
            done.wait(max(0.0, deadline - time.monotonic()))
        raise
    wall_time = max(time.monotonic() - started, 1e-9)

    if failures:
        first = failures[0]
        raise StageFailure(f"{type(first).__name__}: {first}") from first

    return PipelineReport(results["read"], results["write"], wall_time)
