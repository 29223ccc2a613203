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
from typing import Iterable

from .errors import StageFailure
from .frame_io import Frame
from .motion_core import AnalysisState, MotionConfig, OutcomeKind, analyse
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
    """What a run did and how fast: frame counts, wall time in seconds,
    processing speed in frames per second, and the counts as stats."""

    frames_in: int
    frames_out: int
    wall_time: float
    processing_speed: float
    stats: CompressionStats


def reference_compress(
    frames: Iterable[Frame], config: MotionConfig
) -> tuple[list[Frame], list[SidecarRecord]]:
    """Single-threaded fold producing exactly what run_pipeline must emit."""
    state = AnalysisState()
    kept: list[Frame] = []
    records: list[SidecarRecord] = []
    for frame in frames:
        outcome, state = analyse(state, config, frame)
        if outcome.kind is not OutcomeKind.DROP:
            kept.append(outcome.frame)
            records.append(outcome.record)
    return kept, records


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
    counts = {"in": 0, "out": 0}

    def fail(exc: BaseException) -> None:
        with failure_lock:
            if not failures:
                failures.append(exc)
        stop.set()

    def put(q: queue.Queue, item) -> None:
        while True:
            if stop.is_set():
                raise _Cancelled
            try:
                q.put(item, timeout=_POLL_SECONDS)
                return
            except queue.Full:
                continue

    def get(q: queue.Queue):
        while True:
            if stop.is_set():
                raise _Cancelled
            try:
                return q.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                continue

    def read_stage() -> None:
        try:
            for frame in source:
                counts["in"] += 1
                put(frame_queue, frame)
            put(frame_queue, _SENTINEL)
        except _Cancelled:
            pass
        except BaseException as exc:
            fail(exc)

    def analysis_stage() -> None:
        state = AnalysisState()
        try:
            while True:
                item = get(frame_queue)
                if item is _SENTINEL:
                    put(outcome_queue, _SENTINEL)
                    return
                outcome, state = analyse(state, config, item)
                if outcome.kind is not OutcomeKind.DROP:
                    put(outcome_queue, outcome)
        except _Cancelled:
            pass
        except BaseException as exc:
            fail(exc)

    def write_stage() -> None:
        try:
            while True:
                item = get(outcome_queue)
                if item is _SENTINEL:
                    return
                video_sink.write_frame(item.frame)
                sidecar_sink.write_row(item.record)
                counts["out"] += 1
        except _Cancelled:
            pass
        except BaseException as exc:
            fail(exc)

    threads = [
        threading.Thread(target=read_stage, name="motionsieve-read"),
        threading.Thread(target=analysis_stage, name="motionsieve-analysis"),
        threading.Thread(target=write_stage, name="motionsieve-write"),
    ]
    started = time.monotonic()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException:
        # Ctrl-C lands here, in the calling thread: cancel the stages so the
        # process can exit, but never wait long on a source stuck in next().
        stop.set()
        for thread in threads:
            if thread.is_alive():
                thread.join(_SHUTDOWN_SECONDS)
        raise
    wall_time = max(time.monotonic() - started, 1e-9)

    if failures:
        first = failures[0]
        raise StageFailure(f"{type(first).__name__}: {first}") from first

    return PipelineReport(
        frames_in=counts["in"],
        frames_out=counts["out"],
        wall_time=wall_time,
        processing_speed=counts["in"] / wall_time,
        stats=CompressionStats(counts["in"], counts["out"]),
    )
