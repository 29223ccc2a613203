import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from motionsieve import (
    CompressionStats,
    DimensionMismatch,
    TooFewFrames,
    ZeroInput,
    frame_reduction,
    pixel_change_series,
    size_reduction,
    stats_json,
    stats_table,
)
from oracles import oracle_changed_count, oracle_gray
from synth import gray_frame, moving_square_video


@pytest.mark.parametrize(
    "frames_in,frames_out,expected",
    [
        (5445, 4166, 23.49),
        (22269, 9989, 55.14),
        # 100 * 167489 / 179912 = 93.09496..., so this pair gives 93.09; the
        # published 93.03 does not follow from these counts (see the
        # docstring of test_acceptance.py::test_metrics_exactness).
        (179912, 12423, 93.09),
        (790, 775, 1.90),
        (56664, 14331, 74.71),
        (5471, 3862, 29.41),
        (100, 100, 0.00),
        (17, 0, 100.00),
    ],
)
def test_frame_reduction_reference_values(frames_in, frames_out, expected):
    assert frame_reduction(frames_in, frames_out) == expected


@pytest.mark.parametrize(
    "bytes_in,bytes_out,expected",
    [
        (327.48, 70.61, 78.44),
        (442.45, 39.48, 91.08),
        (1303.21, 52.92, 95.94),
        (23.59, 2.47, 89.53),
        (10895.05, 266.02, 97.56),
        (73.09, 20.80, 71.54),
        (4096, 1024, 75.00),
    ],
)
def test_size_reduction_reference_values(bytes_in, bytes_out, expected):
    assert size_reduction(bytes_in, bytes_out) == expected


def test_rounding_is_half_up_not_bankers():
    # 100 * 13010 / 200000 = 6.505 exactly; bankers' would give 6.50
    assert frame_reduction(200000, 186990) == 6.51
    # 100 * 0.02 / 400 = 0.005 exactly
    assert size_reduction(400.0, 399.98) == 0.01


def test_reduction_zero_input():
    with pytest.raises(ZeroInput):
        frame_reduction(0, 0)
    with pytest.raises(ZeroInput):
        size_reduction(0, 0)


@pytest.mark.parametrize(
    "bytes_in, bytes_out",
    [(math.inf, 5), (math.nan, 5), (10, math.nan), (10, -math.inf)],
    ids=["inf-in", "nan-in", "nan-out", "minus-inf-out"],
)
def test_size_reduction_rejects_totals_that_are_not_finite(bytes_in, bytes_out):
    with pytest.raises(ValueError, match="totals must be finite"):
        size_reduction(bytes_in, bytes_out)


def test_reduction_rejects_growth():
    with pytest.raises(ValueError):
        frame_reduction(10, 11)
    with pytest.raises(ValueError):
        size_reduction(10.0, -1.0)


@given(st.integers(1, 10**9), st.integers(0, 10**9), st.integers(0, 10**9))
def test_frame_reduction_antitone_and_bounded(frames_in, out_a, out_b):
    """More surviving frames never increases the reduction, and the value
    stays inside [0, 100]."""
    lo, hi = sorted((out_a % (frames_in + 1), out_b % (frames_in + 1)))
    high = frame_reduction(frames_in, lo)
    low = frame_reduction(frames_in, hi)
    assert high >= low
    assert 0.0 <= low <= high <= 100.0


def test_pixel_change_static_video_is_zero():
    frames = [gray_frame(np.full((8, 8), 9, np.uint8), i) for i in range(5)]
    series = pixel_change_series(frames, 25)
    assert series.per_frame == [0.0] * 4
    assert series.mean == 0.0
    assert series.median == 0.0


def test_pixel_change_alternating_video_is_full():
    black = np.zeros((6, 6), np.uint8)
    white = np.full((6, 6), 255, np.uint8)
    frames = [
        gray_frame(black if i % 2 == 0 else white, i) for i in range(6)
    ]
    series = pixel_change_series(frames, 25)
    assert series.per_frame == [100.0] * 5
    assert series.mean == 100.0
    assert series.median == 100.0


def test_pixel_change_moving_square():
    """A 10x10 square stepping 1 px on a 100x100 canvas disturbs 20 pixels
    per transition: 0.2% each, so mean and median are 0.2."""
    frames = moving_square_video(
        100, 100, 11, size=10, step=1, background=0, foreground=255
    )
    series = pixel_change_series(frames, 25)
    grays = [oracle_gray(f) for f in frames]
    counts = [
        oracle_changed_count(a, b, 25) for a, b in zip(grays, grays[1:])
    ]
    assert counts == [20] * 10
    assert series.per_frame == [count * 100.0 / 10000 for count in counts]
    assert series.mean == pytest.approx(0.2)
    assert series.median == pytest.approx(0.2)


@given(st.integers(0, 2**32 - 1), st.integers(0, 255))
def test_pixel_change_equals_exact_count_ratio(seed, threshold):
    rng = np.random.default_rng(seed)
    frames = [
        gray_frame(rng.integers(0, 256, (9, 7), np.uint8), i) for i in range(3)
    ]
    series = pixel_change_series(frames, threshold)
    grays = [oracle_gray(f) for f in frames]
    for value, (a, b) in zip(series.per_frame, zip(grays, grays[1:])):
        assert value == oracle_changed_count(a, b, threshold) * 100.0 / 63


def test_pixel_change_counts_in_bands_not_whole_frames():
    """A pair of 4 MiB frames is counted in cache-sized row bands: beyond
    the frames, the count holds under a quarter of one frame at its peak.
    Measured: 0.75 MiB, against 8 MiB for a whole-frame difference and
    mask."""
    rng = np.random.default_rng(5)
    grays = rng.integers(0, 256, (2, 2048, 2048), np.uint8)
    frames = [gray_frame(gray, i) for i, gray in enumerate(grays)]
    tracemalloc.start()
    try:
        series = pixel_change_series(frames, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grays[0].size // 4, peak
    changed = np.count_nonzero(np.abs(grays[1].astype(np.int16) - grays[0]) > 25)
    assert series.per_frame == [changed * 100.0 / grays[0].size]


def test_pixel_change_threshold_zero_counts_any_difference():
    a = np.zeros((4, 4), np.uint8)
    b = a.copy()
    b[0, 0] = 1
    series = pixel_change_series([gray_frame(a, 0), gray_frame(b, 1)], 0)
    assert series.per_frame == [100.0 / 16]


def test_pixel_change_needs_two_frames():
    with pytest.raises(TooFewFrames):
        pixel_change_series([], 25)
    with pytest.raises(TooFewFrames):
        pixel_change_series([gray_frame(np.zeros((4, 4), np.uint8))], 25)


def test_pixel_change_threshold_range():
    frames = [gray_frame(np.zeros((4, 4), np.uint8), i) for i in range(2)]
    with pytest.raises(ValueError):
        pixel_change_series(frames, -1)
    with pytest.raises(ValueError):
        pixel_change_series(frames, 256)


def test_pixel_change_rejects_dimension_change():
    frames = [
        gray_frame(np.zeros((4, 4), np.uint8), 0),
        gray_frame(np.zeros((4, 6), np.uint8), 1),
    ]
    with pytest.raises(DimensionMismatch):
        pixel_change_series(frames, 25)


def test_stats_json_roundtrip_and_determinism():
    stats = CompressionStats(790, 775, 10895.05, 266.02)
    text = stats_json(stats)
    assert text == stats_json(stats)
    assert '"frame_reduction_pct": 1.9' in text
    assert '"size_reduction_pct": 97.56' in text


def test_stats_json_without_optional_blocks():
    stats = CompressionStats(300, 1)
    text = stats_json(stats)
    assert '"bytes_in": null' in text
    assert "pixel_change_pct" not in text


def test_stats_table_two_decimal_formatting():
    table = stats_table(CompressionStats(790, 775, 1000, 500))
    assert "1.90%" in table
    assert "50.00%" in table
    assert table.endswith("\n")


def test_stats_report_zero_input_raises_before_render():
    empty = CompressionStats(0, 0)
    with pytest.raises(ZeroInput):
        stats_json(empty)
    with pytest.raises(ZeroInput):
        stats_table(empty)


def test_size_reduction_pct_none_when_output_outgrew_input():
    stats = CompressionStats(10, 10, 1000, 1200)
    assert stats.size_reduction_pct is None
    assert '"size_reduction_pct": null' in stats_json(stats)
