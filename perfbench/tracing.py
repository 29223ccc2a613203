"""Spans recorded from outside the package, and the per-layer metrics
derived from them.

``install`` replaces public motionsieve names with timing wrappers for the
life of one traced process; nothing under ``src/`` changes.  Each span is
``(id, parent, name, thread, start, end, note)`` with perf_counter times;
``parent`` is the innermost open span on the same thread (0 for none) and
``note`` carries a per-call observation (bytes moved, verdict, coverage)
that is taken after the span closes, so it is not timed.
Spans stay in memory and are written out once, by ``dump``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        """Time the block; yields the span's one-slot note list, which may
        be filled in later."""
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        note = [None]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield note
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, threading.current_thread().name,
                 start, end, note)
            )

    def wrap(self, name: str, fn, observe=None):
        """``fn`` inside a span; ``observe(args, result)``, if given, runs
        after the span closes and returns the note."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as note:
                result = fn(*args, **kwargs)
            if observe is not None:
                note[0] = observe(args, result)
            return result

        return traced

    def iterate(self, name: str, items, observe=None):
        """Iterate ``items`` with every ``next`` inside a span;
        ``observe(item)``, if given, is the note (item is None for the
        final, exhausted ``next``)."""
        iterator = iter(items)
        while True:
            with self.span(name) as note:
                item = next(iterator, None)
            if observe is not None:
                note[0] = observe(item)
            if item is None:
                return
            yield item

    def source(self, frames):
        """A frame source whose reads are frame_io.read spans."""
        return self.iterate(
            "frame_io.read", frames,
            lambda frame: 0 if frame is None else len(frame.data) + 6,
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span[:6] + (span[6][0],) for span in self.spans], handle)


def install(tracer: Tracer) -> None:
    """Wrap the package's public hot-path names with spans."""
    import numpy as np

    from motionsieve import frame_io, motion_core, pipeline, reconstruct, sidecar

    def verdict(args, result):
        return result[0].kind.value

    def nonempty(args, result):
        return result is not args[0]

    def coverage(args, result):
        return np.count_nonzero(args[1]) / args[1].size

    def frame_bytes(args, result):
        return len(args[1].data) + 6

    pipeline.analyse = tracer.wrap("motion_core.analyse", pipeline.analyse, verdict)
    for name in ("to_grayscale", "downscale", "abs_diff", "threshold_mask",
                 "upscale_mask"):
        setattr(motion_core, name,
                tracer.wrap(f"motion_core.{name}", getattr(motion_core, name)))
    motion_core.dilate = tracer.wrap("motion_core.dilate", motion_core.dilate, nonempty)
    motion_core.apply_mask = tracer.wrap(
        "motion_core.apply_mask", motion_core.apply_mask, coverage
    )
    for name in ("to_grayscale", "env_frame", "rec_frame"):
        setattr(reconstruct, name,
                tracer.wrap(f"reconstruct.{name}", getattr(reconstruct, name)))

    stream = reconstruct.reconstruct_stream

    @functools.wraps(stream)
    def traced_stream(frames, records):
        return tracer.iterate("reconstruct.rebuild", stream(frames, records))

    reconstruct.reconstruct_stream = traced_stream
    frame_io.Y4MWriter.write_frame = tracer.wrap(
        "frame_io.write", frame_io.Y4MWriter.write_frame, frame_bytes
    )
    sidecar.SidecarWriter.write_row = tracer.wrap(
        "sidecar.write_row", sidecar.SidecarWriter.write_row
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _busy(spans) -> float:
    return sum(s[5] - s[4] for s in spans)


def _thread_gaps(spans) -> float:
    """Time between consecutive spans of one thread."""
    ordered = sorted(spans, key=lambda s: s[4])
    return sum(max(0.0, b[4] - a[5]) for a, b in zip(ordered, ordered[1:]))


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced run (all zero for a layer that the
    workload never calls)."""
    by_name: dict[str, list] = {}
    child_time: dict[int, float] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        if span[1]:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[5] - span[4]

    def durations(name):
        return [s[5] - s[4] for s in by_name.get(name, [])]

    def ms_per_call(name):
        return 1e3 * _mean(durations(name))

    def self_ms(name):
        return 1e3 * _mean(
            s[5] - s[4] - child_time.get(s[0], 0.0) for s in by_name.get(name, [])
        )

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, [])]

    analyse = spans_of("motion_core.analyse")
    verdicts = [s[6] for s in analyse]
    diffs = len(spans_of("motion_core.abs_diff"))
    # Only the compress pipeline analyses frames; there, reads run on the
    # read thread and video and sidecar writes on the write thread.
    reads = spans_of("frame_io.read") if analyse else []
    writes = spans_of("frame_io.write", "sidecar.write_row") if analyse else []
    return {
        "motion_core.analyse_ms": ms_per_call("motion_core.analyse"),
        "motion_core.analyse_self_ms": self_ms("motion_core.analyse"),
        "motion_core.to_grayscale_ms": ms_per_call("motion_core.to_grayscale"),
        "motion_core.downscale_ms": ms_per_call("motion_core.downscale"),
        "motion_core.diff_ms": 1e3 * _busy(
            spans_of("motion_core.abs_diff", "motion_core.threshold_mask")
        ) / diffs if diffs else 0.0,
        "motion_core.dilate_ms": ms_per_call("motion_core.dilate"),
        "motion_core.dilate_nonempty_share": _mean(
            s[6] for s in spans_of("motion_core.dilate")
        ),
        "motion_core.upscale_mask_ms": ms_per_call("motion_core.upscale_mask"),
        "motion_core.apply_mask_ms": ms_per_call("motion_core.apply_mask"),
        "motion_core.mask_coverage_pct": 100.0 * _mean(
            s[6] for s in spans_of("motion_core.apply_mask")
        ),
        "motion_core.dropped": verdicts.count("drop"),
        "motion_core.masked": verdicts.count("masked"),
        "motion_core.full": verdicts.count("full_frame"),
        "frame_io.read_ms": ms_per_call("frame_io.read"),
        "frame_io.write_ms": ms_per_call("frame_io.write"),
        "frame_io.bytes_read": sum(s[6] for s in spans_of("frame_io.read")),
        "frame_io.bytes_written": sum(s[6] for s in spans_of("frame_io.write")),
        "sidecar.write_row_us": 1e6 * _mean(durations("sidecar.write_row")),
        "pipeline.read_busy_s": _busy(reads),
        "pipeline.read_blocked_s": _thread_gaps(reads),
        "pipeline.analysis_busy_s": _busy(analyse),
        "pipeline.analysis_wait_s": _thread_gaps(analyse),
        "pipeline.write_busy_s": _busy(writes),
        "pipeline.write_wait_s": _thread_gaps(writes),
        "reconstruct.rebuild_ms": ms_per_call("reconstruct.rebuild"),
        "reconstruct.rebuild_self_ms": self_ms("reconstruct.rebuild"),
        "reconstruct.to_grayscale_ms": ms_per_call("reconstruct.to_grayscale"),
        "reconstruct.env_frame_ms": ms_per_call("reconstruct.env_frame"),
        "reconstruct.rec_frame_ms": ms_per_call("reconstruct.rec_frame"),
    }
