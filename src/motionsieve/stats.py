"""Reduction percentages and pixel-change statistics.

Percentages are 100 * (in - out) / in, rounded half-up to two decimals via
decimal arithmetic; float rounding must never flip the last digit of a
published number.  Byte totals for a compressed result include the sidecar,
which is part of the price of reconstruction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from statistics import fmean, median
from typing import Iterable

import numpy as np

from .errors import TooFewFrames, ZeroInput
from .frame_io import Frame
from .motion_core import _band_diffs, check_gray_pair, to_grayscale


def _as_decimal(value) -> Decimal:
    # str() keeps the decimal digits a float literal was written with.
    return Decimal(value) if isinstance(value, int) else Decimal(str(value))


def _reduction_pct(total_in, total_out, what: str) -> float:
    din, dout = _as_decimal(total_in), _as_decimal(total_out)
    if not (din.is_finite() and dout.is_finite()):
        raise ValueError(f"{what} totals must be finite")
    if total_in <= 0:
        raise ZeroInput(f"{what} input total is zero")
    if total_out < 0 or total_out > total_in:
        raise ValueError(f"{what} output total must be in [0, input total]")
    pct = (din - dout) / din * 100
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def frame_reduction(frames_in: int, frames_out: int) -> float:
    """Percentage of frames removed, at two decimals."""
    return _reduction_pct(frames_in, frames_out, "frame")


def size_reduction(bytes_in, bytes_out) -> float:
    """Percentage of bytes removed, at two decimals.

    Totals may be int or float; either way the arithmetic is decimal, so
    e.g. size_reduction(10895.05, 266.02) lands exactly on 97.56.
    """
    return _reduction_pct(bytes_in, bytes_out, "size")


@dataclass(frozen=True)
class PixelChangeSeries:
    """Per-adjacent-pair change percentages plus their mean and median."""

    per_frame: list[float]
    mean: float
    median: float


def pixel_change_series(
    frames: Iterable[Frame], threshold: int = 25
) -> PixelChangeSeries:
    """Fraction of pixels changing between adjacent frames, in percent.

    Works at full resolution on the grayscale reduction, in cache-sized
    row bands.  A pixel counts as changed when its absolute luma
    difference strictly exceeds ``threshold`` (0 counts any difference at
    all).  Needs at least two frames.
    """
    if not 0 <= threshold <= 255:
        raise ValueError("threshold must be in [0, 255]")
    values: list[float] = []
    prev = None
    for frame in frames:
        gray = to_grayscale(frame)
        if prev is not None:
            check_gray_pair(prev, gray)
            changed = sum(
                np.count_nonzero(band > threshold) for band in _band_diffs(prev, gray)
            )
            values.append(changed * 100.0 / gray.size)
        prev = gray
    if not values:
        raise TooFewFrames("pixel-change series needs at least 2 frames")
    return PixelChangeSeries(values, fmean(values), median(values))


@dataclass(frozen=True)
class CompressionStats:
    """Inputs for the reduction report.  Byte totals are optional; the
    size reduction is only defined when both are known."""

    frames_in: int
    frames_out: int
    bytes_in: int | float | None = None
    bytes_out: int | float | None = None

    @property
    def frame_reduction_pct(self) -> float:
        return frame_reduction(self.frames_in, self.frames_out)

    @property
    def size_reduction_pct(self) -> float | None:
        """None when byte totals are unknown or the output outgrew the
        input (possible for all-motion video, where the sidecar is pure
        overhead)."""
        if self.bytes_in is None or self.bytes_out is None:
            return None
        if not 0 <= self.bytes_out <= self.bytes_in:
            return None
        return size_reduction(self.bytes_in, self.bytes_out)


def render_json(payload: dict) -> str:
    """Deterministic JSON rendering: keys in the payload's order, two-space
    indent, trailing newline.  Every JSON report the CLI prints is made here."""
    return json.dumps(payload, indent=2) + "\n"


def stats_json(stats: CompressionStats, *, empty_ok: bool = False) -> str:
    """The reduction report as JSON, in a fixed key order.  With no input
    frames it raises ZeroInput, or with ``empty_ok`` reports the frame
    reduction as null, as compress does for an empty input."""
    empty = empty_ok and stats.frames_in == 0
    return render_json({
        "frames_in": stats.frames_in,
        "frames_out": stats.frames_out,
        "frame_reduction_pct": None if empty else stats.frame_reduction_pct,
        "bytes_in": stats.bytes_in,
        "bytes_out": stats.bytes_out,
        "size_reduction_pct": stats.size_reduction_pct,
    })


def stats_table(stats: CompressionStats) -> str:
    """Human-readable two-column table, percentages at two decimals."""
    rows = [
        ("frames in", f"{stats.frames_in}"),
        ("frames out", f"{stats.frames_out}"),
        ("frame reduction", f"{stats.frame_reduction_pct:.2f}%"),
    ]
    if stats.bytes_in is not None and stats.bytes_out is not None:
        rows += [
            ("bytes in", f"{stats.bytes_in}"),
            ("bytes out", f"{stats.bytes_out}"),
        ]
        if stats.size_reduction_pct is not None:
            rows.append(("size reduction", f"{stats.size_reduction_pct:.2f}%"))
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows) + "\n"
