import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as npst

from motionsieve import DimensionMismatch, MotionConfig, PixelFormat
from motionsieve.motion_core import (
    AnalysisState,
    OutcomeKind,
    abs_diff,
    analyse,
    apply_mask,
    dilate,
    downscale,
    mask_grid_shape,
    threshold_mask,
    to_grayscale,
    upscale_mask,
)
from oracles import (
    oracle_apply_mask,
    oracle_dilate,
    oracle_downscale,
    oracle_gray,
    oracle_upscale,
)
from synth import frame_from_luma, gray_frame, random_frame, rgb_frame, yuv_frame

small_arrays = npst.arrays(
    dtype=np.uint8, shape=st.tuples(st.integers(1, 20), st.integers(1, 20))
)


def test_config_defaults():
    config = MotionConfig()
    assert config.threshold == 25
    assert config.downscale == 2
    assert config.buffer_radius == 5
    assert config.keyframe_interval == 100
    assert config.min_motion_pixels == 10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"threshold": 0},
        {"threshold": 256},
        {"downscale": 0},
        {"buffer_radius": -1},
        {"keyframe_interval": 0},
        {"min_motion_pixels": 0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        MotionConfig(**kwargs)


def test_grayscale_gray_is_identity():
    arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert np.array_equal(to_grayscale(gray_frame(arr)), arr)


def test_grayscale_yuv_is_luma_plane():
    y = np.arange(16, dtype=np.uint8).reshape(4, 4)
    chroma = np.full((2, 2), 99, dtype=np.uint8)
    assert np.array_equal(to_grayscale(yuv_frame(y, chroma, chroma)), y)


@pytest.mark.parametrize(
    "rgb,expected",
    [
        ((255, 255, 255), 255),
        ((0, 0, 0), 0),
        ((255, 0, 0), 76),
        ((0, 255, 0), 150),
        ((0, 0, 255), 29),
        ((100, 100, 100), 100),
    ],
)
def test_grayscale_rgb_weights(rgb, expected):
    r, g, b = (np.full((1, 1), v, dtype=np.uint8) for v in rgb)
    assert to_grayscale(rgb_frame(r, g, b))[0, 0] == expected


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_grayscale_rgb_rounds_half_up(r, g, b):
    """Integer grayscale sits within half a step of the exact weighted sum,
    on the half-up side."""
    r_a, g_a, b_a = (np.full((1, 1), v, dtype=np.uint8) for v in (r, g, b))
    got = int(to_grayscale(rgb_frame(r_a, g_a, b_a))[0, 0])
    exact = Fraction(299 * r + 587 * g + 114 * b, 1000)
    assert got == (299 * r + 587 * g + 114 * b + 500) // 1000
    assert abs(Fraction(got) - exact) <= Fraction(1, 2)


def test_downscale_identity():
    arr = np.arange(30, dtype=np.uint8).reshape(5, 6)
    assert downscale(arr, 1) is arr


def test_downscale_exact_block_mean():
    arr = np.array([[10, 20], [30, 40]], dtype=np.uint8)
    assert downscale(arr, 2)[0, 0] == 25


def test_downscale_rounds_half_up():
    arr = np.array([[10, 11], [10, 10]], dtype=np.uint8)
    # mean 10.25 -> 10; bump one pixel: mean 10.5 -> 11
    assert downscale(arr, 2)[0, 0] == 10
    arr[0, 0] = 12
    assert downscale(arr, 2)[0, 0] == 11


def test_downscale_ragged_edges_use_inbounds_pixels_only():
    arr = np.array(
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        dtype=np.uint8,
    )
    out = downscale(arr, 2)
    assert out.shape == (2, 2)
    assert out[0, 0] == 3  # (1+2+4+5)/4 = 3
    assert out[0, 1] == 5  # (3+6)/2 = 4.5 -> 5 half-up
    assert out[1, 0] == 8  # (7+8)/2 = 7.5 -> 8 half-up
    assert out[1, 1] == 9


@given(small_arrays, st.integers(1, 6))
def test_downscale_matches_bruteforce(arr, factor):
    got = downscale(arr, factor)
    expected = oracle_downscale(arr.tolist(), factor)
    assert got.tolist() == expected


@pytest.mark.parametrize("factor", [2, 11, 12, 16, 17])
@pytest.mark.parametrize("ragged", [False, True])
@pytest.mark.parametrize("fill", ["all-255", "random"])
def test_downscale_production_factors_match_bruteforce(factor, ragged, fill):
    """Factors either side of the accumulator's width switch, with all-255
    input giving the largest tile sums and ragged shapes the partial tiles."""
    shape = (2 * factor + ragged, 3 * factor - ragged)
    if fill == "all-255":
        arr = np.full(shape, 255, dtype=np.uint8)
    else:
        arr = np.random.default_rng(factor).integers(0, 256, shape, dtype=np.uint8)
    assert downscale(arr, factor).tolist() == oracle_downscale(arr.tolist(), factor)


@pytest.mark.parametrize("factor", [2, 3, 4, 6])
@pytest.mark.parametrize(
    "case",
    ["second-short-rows", "second-short-cols", "second-short-both",
     "one-row", "one-col", "one-pixel"],
)
@pytest.mark.parametrize("fill", ["all-255", "random"])
def test_downscale_short_or_missing_second_view(factor, case, fill):
    """h or w = s + 1 makes the second strided view one entry shorter than
    the first, and h or w = 1 leaves the first view alone, so the
    accumulator starts from one view instead of the sum of two."""
    shape = {
        "second-short-rows": (factor + 1, 3 * factor),
        "second-short-cols": (2 * factor, factor + 1),
        "second-short-both": (factor + 1, factor + 1),
        "one-row": (1, 2 * factor + 1),
        "one-col": (2 * factor + 1, 1),
        "one-pixel": (1, 1),
    }[case]
    if fill == "all-255":
        arr = np.full(shape, 255, dtype=np.uint8)
    else:
        arr = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
    assert downscale(arr, factor).tolist() == oracle_downscale(arr.tolist(), factor)


def test_downscale_huge_factor_allocates_only_frame_sized_memory():
    """A factor far beyond the frame makes one partial tile; padding the
    frame out to the factor would need about factor**2 bytes."""
    arr = np.full((3, 5), 255, dtype=np.uint8)
    tracemalloc.start()
    try:
        out = downscale(arr, 100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.tolist() == [[255]]
    assert peak < 64 * 1024


def test_abs_diff_values_and_symmetry():
    a = np.array([[10, 200]], dtype=np.uint8)
    b = np.array([[40, 50]], dtype=np.uint8)
    assert abs_diff(a, b).tolist() == [[30, 150]]
    assert np.array_equal(abs_diff(a, b), abs_diff(b, a))
    assert abs_diff(a, a).max() == 0


def test_abs_diff_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        abs_diff(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))


def test_abs_diff_matches_widened_formula_on_every_pair():
    """All 256 x 256 uint8 pairs, contiguous and as strided views; the
    operands stay untouched."""
    values = np.arange(256, dtype=np.uint8)
    a, b = np.meshgrid(values, values)
    for prev, curr in ((a, b), (a.T, b.T), (a[::-1, ::-1], b[::-1, ::-1])):
        got = abs_diff(prev, curr)
        assert got.dtype == np.uint8
        assert np.array_equal(
            got, np.abs(curr.astype(np.int16) - prev.astype(np.int16))
        )
    assert np.array_equal(a, np.meshgrid(values, values)[0])
    assert np.array_equal(b, np.meshgrid(values, values)[1])


@pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int64, np.float32])
def test_abs_diff_rejects_wider_dtypes(dtype):
    """max - min is only exact in uint8; wider input must not pass."""
    wide = np.array([[10, 300]], dtype)
    narrow = np.array([[40, 50]], np.uint8)
    for prev, curr in ((wide, wide), (wide, narrow), (narrow, wide)):
        with pytest.raises(ValueError):
            abs_diff(prev, curr)


def test_threshold_is_strict():
    diff = np.array([[24, 25, 26]], dtype=np.uint8)
    assert threshold_mask(diff, 25).tolist() == [[False, False, True]]


def test_dilate_zero_radius_is_identity():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 2] = True
    assert dilate(mask, 0) is mask


def test_dilate_single_pixel_square():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    out = dilate(mask, 2)
    assert out.sum() == 25
    assert out[1:6, 1:6].all()


def test_dilate_clips_at_edges():
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = True
    out = dilate(mask, 1)
    assert out.sum() == 4
    assert out[:2, :2].all()


@given(
    npst.arrays(
        dtype=bool, shape=st.tuples(st.integers(1, 12), st.integers(1, 12))
    ),
    st.integers(0, 3),
)
def test_dilate_matches_bruteforce(mask, radius):
    got = dilate(mask, radius)
    assert got.tolist() == oracle_dilate(mask.tolist(), radius)


@pytest.mark.parametrize("radius", [*range(10), 50])
@pytest.mark.parametrize("shape", [(1, 37), (37, 1), (23, 31)])
def test_dilate_every_radius_matches_bruteforce(radius, shape):
    """Radii 0-9 and one past the grid's size: the doubling ORs a shorter
    slice in its last step at most radii, and a strip or a grid smaller
    than the kernel leaves every slice reaching past an edge."""
    rng = np.random.default_rng(radius * 100 + shape[0])
    for density in (0.02, 0.1):
        mask = rng.random(shape) < density
        mask.flat[rng.integers(mask.size)] = True
        got = dilate(mask, radius)
        assert got.tolist() == oracle_dilate(mask.tolist(), radius)


@given(
    npst.arrays(
        dtype=bool,
        shape=st.one_of(
            st.tuples(st.just(1), st.integers(1, 40)),
            st.tuples(st.integers(1, 40), st.just(1)),
            st.tuples(st.integers(1, 40), st.integers(1, 40)),
        ),
    ),
    st.sampled_from([5, 9]),
)
def test_dilate_production_radii_match_bruteforce(mask, radius):
    """The default radius (5) and a larger one, including strips narrower
    than the kernel, where every shifted slice reaches past an edge."""
    got = dilate(mask, radius)
    assert got.tolist() == oracle_dilate(mask.tolist(), radius)


@given(
    npst.arrays(
        dtype=np.uint8, shape=st.tuples(st.integers(1, 12), st.integers(1, 12))
    ),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_dilate_grows_with_radius(diff, r1, r2):
    """A larger radius never loses cells; dilation only grows the mask."""
    lo, hi = sorted((r1, r2))
    mask = threshold_mask(diff, 100)
    small, big = dilate(mask, lo), dilate(mask, hi)
    assert np.array_equal(small & big, small)


@given(
    npst.arrays(
        dtype=np.uint8, shape=st.tuples(st.integers(1, 12), st.integers(1, 12))
    ),
    st.integers(0, 255),
    st.integers(0, 255),
)
def test_threshold_monotone(diff, t1, t2):
    lo, hi = sorted((t1, t2))
    strict = threshold_mask(diff, hi)
    loose = threshold_mask(diff, lo)
    assert np.array_equal(strict & loose, strict)


def test_upscale_identity_at_factor_one():
    mask = np.array([[True, False], [False, True]])
    assert upscale_mask(mask, 1, 2, 2) is mask


def test_upscale_paints_blocks():
    mask = np.array([[True, False], [False, False]])
    out = upscale_mask(mask, 2, 4, 4)
    assert out[:2, :2].all()
    assert out.sum() == 4


def test_upscale_crops_ragged_target():
    mask = np.zeros((4, 4), dtype=bool)
    mask[3, 3] = True
    out = upscale_mask(mask, 2, 7, 7)
    assert out.shape == (7, 7)
    assert out[6, 6]
    assert out.sum() == 1  # the block is cropped to a single pixel


def test_upscale_rejects_wrong_grid():
    mask = np.zeros((3, 3), dtype=bool)
    with pytest.raises(DimensionMismatch):
        upscale_mask(mask, 2, 7, 7)


@given(st.data())
def test_upscale_nearest_neighbor_indexing(data):
    factor = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 15))
    height = data.draw(st.integers(1, 15))
    grid = data.draw(npst.arrays(dtype=bool, shape=mask_grid_shape(width, height, factor)))
    out = upscale_mask(grid, factor, width, height)
    for y in range(height):
        for x in range(width):
            assert out[y, x] == grid[y // factor, x // factor]


def test_apply_mask_all_and_nothing():
    rng = np.random.default_rng(0)
    frame = random_frame(rng, 6, 4, PixelFormat.GRAY8)
    keep_all = np.ones((4, 6), dtype=bool)
    assert apply_mask(frame, keep_all).data == frame.data
    keep_none = np.zeros((4, 6), dtype=bool)
    assert apply_mask(frame, keep_none).data == b"\x00" * 24


def test_apply_mask_gray_checkerboard():
    arr = np.full((2, 2), 128, dtype=np.uint8)
    mask = np.array([[True, False], [False, True]])
    out = apply_mask(gray_frame(arr), mask)
    assert list(out.data) == [128, 0, 0, 128]


def test_apply_mask_rgb_masks_every_plane():
    r = np.full((2, 2), 10, dtype=np.uint8)
    g = np.full((2, 2), 20, dtype=np.uint8)
    b = np.full((2, 2), 30, dtype=np.uint8)
    mask = np.array([[True, False], [False, False]])
    out = apply_mask(rgb_frame(r, g, b), mask)
    assert list(out.data) == [10, 0, 0, 0, 20, 0, 0, 0, 30, 0, 0, 0]


def test_apply_mask_yuv_chroma_follows_any_kept_luma():
    y = np.full((2, 4), 50, dtype=np.uint8)
    u = np.array([[100, 110]], dtype=np.uint8)
    v = np.array([[120, 130]], dtype=np.uint8)
    mask = np.zeros((2, 4), dtype=bool)
    mask[0, 0] = True  # one luma pixel in the left chroma block
    out = apply_mask(yuv_frame(y, u, v), mask)
    luma = list(out.data[:8])
    assert luma == [50, 0, 0, 0, 0, 0, 0, 0]
    assert list(out.data[8:10]) == [100, 0]
    assert list(out.data[10:12]) == [120, 0]


@given(st.data())
def test_apply_mask_matches_bruteforce(data):
    pixel_format = data.draw(st.sampled_from(list(PixelFormat)))
    width = data.draw(st.integers(1, 10))
    height = data.draw(st.integers(1, 10))
    if pixel_format is PixelFormat.YUV420:
        width += width % 2
        height += height % 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frame = random_frame(rng, width, height, pixel_format)
    mask = data.draw(npst.arrays(dtype=bool, shape=(height, width)))
    assert apply_mask(frame, mask).data == oracle_apply_mask(frame, mask.tolist())


@pytest.mark.parametrize("pixel_format", list(PixelFormat))
def test_apply_mask_returns_read_only_data(pixel_format):
    rng = np.random.default_rng(17)
    frame = random_frame(rng, 10, 6, pixel_format)
    grid = rng.integers(0, 2, mask_grid_shape(10, 6, 2)).astype(bool)
    out = apply_mask(frame, grid, 2)
    assert out.data.readonly
    assert len(out.data) == len(frame.data)
    with pytest.raises(TypeError):
        out.data[0] = 1
    full = np.repeat(np.repeat(grid, 2, axis=0), 2, axis=1)[:6, :10]
    assert out.data == oracle_apply_mask(frame, full.tolist())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_apply_mask_yuv_chroma_kept_from_each_luma_site(seed):
    """Chroma cells kept through exactly one luma site, for each of the
    four sites of a 2x2 cell, plus random extra kept luma."""
    rng = np.random.default_rng(seed)
    cells = (12, 16)
    frame = random_frame(rng, 2 * cells[1], 2 * cells[0], PixelFormat.YUV420)
    site = rng.integers(-1, 4, cells)  # -1 leaves the chroma cell unkept
    assert set(np.unique(site)) == {-1, 0, 1, 2, 3}
    mask = rng.random((2 * cells[0], 2 * cells[1])) < 0.05
    for dy in (0, 1):
        for dx in (0, 1):
            mask[dy::2, dx::2] |= site == 2 * dy + dx
    assert apply_mask(frame, mask).data == oracle_apply_mask(frame, mask.tolist())


def _grid_sizes(pixel_format, factor):
    """(width, height) pairs that give exact and ragged grids at ``factor``:
    odd sizes for GRAY8 and RGB24, even sizes for 4:2:0 that the factor
    does not divide."""
    if pixel_format is PixelFormat.YUV420:
        return [(12, 12), (14, 10), (2 * factor + 2, 4 * factor - 2)]
    return [(12, 12), (13, 7), (10, 7), (1, 5), (2 * factor + 1, 3 * factor - 1)]


@pytest.mark.parametrize("factor", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("pixel_format", list(PixelFormat))
def test_apply_mask_on_grid_matches_upscaled_oracle(pixel_format, factor):
    rng = np.random.default_rng([factor, list(PixelFormat).index(pixel_format)])
    for width, height in _grid_sizes(pixel_format, factor):
        for density in (0.0, 0.3, 1.0):
            frame = random_frame(rng, width, height, pixel_format)
            grid = rng.random(mask_grid_shape(width, height, factor)) < density
            full = oracle_upscale(grid.tolist(), factor, width, height)
            got = apply_mask(frame, grid, factor).data
            assert got == oracle_apply_mask(frame, full), (width, height, density)


@given(st.data())
def test_apply_mask_on_grid_matches_bruteforce(data):
    pixel_format = data.draw(st.sampled_from(list(PixelFormat)))
    factor = data.draw(st.integers(1, 8))
    width = data.draw(st.integers(1, 20))
    height = data.draw(st.integers(1, 20))
    if pixel_format is PixelFormat.YUV420:
        width += width % 2
        height += height % 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frame = random_frame(rng, width, height, pixel_format)
    grid = data.draw(
        npst.arrays(dtype=bool, shape=mask_grid_shape(width, height, factor))
    )
    full = oracle_upscale(grid.tolist(), factor, width, height)
    assert apply_mask(frame, grid, factor).data == oracle_apply_mask(frame, full)


@pytest.mark.parametrize("pixel_format", list(PixelFormat))
@pytest.mark.parametrize(
    "factor, shape",
    [(1, (6, 9)), (1, (10, 6)), (2, (6, 10)), (2, (3, 4)), (3, (3, 3)), (4, (3, 2))],
)
def test_apply_mask_rejects_wrong_grid(pixel_format, factor, shape):
    frame = random_frame(np.random.default_rng(0), 10, 6, pixel_format)
    with pytest.raises(DimensionMismatch):
        apply_mask(frame, np.ones(shape, dtype=bool), factor)


@given(st.data())
def test_grayscale_matches_bruteforce(data):
    pixel_format = data.draw(st.sampled_from(list(PixelFormat)))
    width = data.draw(st.integers(1, 10))
    height = data.draw(st.integers(1, 10))
    if pixel_format is PixelFormat.YUV420:
        width += width % 2
        height += height % 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    frame = random_frame(rng, width, height, pixel_format)
    assert to_grayscale(frame).tolist() == oracle_gray(frame)


def step_all(frames, config):
    state = AnalysisState()
    outcomes = []
    for frame in frames:
        outcome, state = analyse(state, config, frame)
        outcomes.append(outcome)
    return outcomes, state


def test_analyse_static_video_keeps_only_first():
    arr = np.full((16, 16), 77, dtype=np.uint8)
    frames = [gray_frame(arr, i) for i in range(50)]
    outcomes, state = step_all(frames, MotionConfig())
    kinds = [o.kind for o in outcomes]
    assert kinds[0] is OutcomeKind.FULL_FRAME
    assert all(k is OutcomeKind.DROP for k in kinds[1:])
    record = outcomes[0].record
    assert (record.input_frame, record.output_frame, record.full_frame) == (0, 0, True)
    assert state.out_index == 1


def test_analyse_first_frame_even_if_black():
    frames = [gray_frame(np.zeros((8, 8), dtype=np.uint8))]
    outcomes, _ = step_all(frames, MotionConfig())
    assert outcomes[0].kind is OutcomeKind.FULL_FRAME


def test_analyse_keyframe_cadence():
    """Continuous motion with interval 5: full frames at emits 0 (first
    frame), 1 (run opener), then every fifth emitted frame."""
    rng = np.random.default_rng(42)
    frames = [
        gray_frame(rng.integers(0, 256, (16, 16), dtype=np.uint8), i)
        for i in range(13)
    ]
    config = MotionConfig(
        threshold=10, downscale=1, buffer_radius=0,
        keyframe_interval=5, min_motion_pixels=1,
    )
    outcomes, _ = step_all(frames, config)
    kinds = [o.kind for o in outcomes]
    F, M = OutcomeKind.FULL_FRAME, OutcomeKind.MASKED
    assert kinds == [F, F, M, M, M, M, F, M, M, M, M, F, M]
    assert [o.record.output_frame for o in outcomes] == list(range(13))


def test_analyse_drop_resets_motion_run():
    """After a gap, the next motion frame opens a new run with a full
    frame, whatever the keyframe countdown said."""
    moving = np.random.default_rng(1).integers(0, 256, (3, 16, 16), dtype=np.uint8)
    still = np.full((16, 16), 40, dtype=np.uint8)
    frames = [
        gray_frame(moving[0], 0),
        gray_frame(moving[1], 1),
        gray_frame(moving[2], 2),
        gray_frame(still, 3),
        gray_frame(still, 4),   # drop
        gray_frame(moving[0], 5),
        gray_frame(moving[1], 6),
    ]
    config = MotionConfig(
        threshold=10, downscale=1, buffer_radius=0,
        keyframe_interval=100, min_motion_pixels=1,
    )
    outcomes, _ = step_all(frames, config)
    F, M, D = OutcomeKind.FULL_FRAME, OutcomeKind.MASKED, OutcomeKind.DROP
    assert [o.kind for o in outcomes] == [F, F, M, M, D, F, M]


def test_analyse_compares_adjacent_inputs_not_last_kept():
    """A brightness creep below threshold per step stays dropped even once
    the cumulative change is large: the baseline always advances."""
    config = MotionConfig(
        threshold=25, downscale=1, buffer_radius=0, min_motion_pixels=1
    )
    frames = [
        gray_frame(np.full((8, 8), v, dtype=np.uint8), i)
        for i, v in enumerate((0, 20, 40, 60, 80))
    ]
    outcomes, state = step_all(frames, config)
    kinds = [o.kind for o in outcomes]
    assert kinds[0] is OutcomeKind.FULL_FRAME
    assert all(k is OutcomeKind.DROP for k in kinds[1:])
    assert int(state.prev_gray[0, 0]) == 80


def test_analyse_state_prev_gray_updates_every_step():
    rng = np.random.default_rng(9)
    config = MotionConfig(threshold=200, downscale=2, min_motion_pixels=5)
    state = AnalysisState()
    for i in range(6):
        frame = gray_frame(rng.integers(0, 256, (10, 12), dtype=np.uint8), i)
        _, state = analyse(state, config, frame)
        expected = downscale(to_grayscale(frame), 2)
        assert np.array_equal(state.prev_gray, expected)


def test_analyse_min_motion_pixels_counts_dilated_mask():
    """The population gate looks at the dilated mask, so the buffer can
    rescue a frame whose raw change is tiny."""
    base = np.zeros((9, 9), dtype=np.uint8)
    spot = base.copy()
    spot[4, 4] = 255
    config_no_buffer = MotionConfig(
        threshold=25, downscale=1, buffer_radius=0, min_motion_pixels=5
    )
    outcomes, _ = step_all(
        [gray_frame(base, 0), gray_frame(spot, 1)], config_no_buffer
    )
    assert outcomes[1].kind is OutcomeKind.DROP
    config_buffer = MotionConfig(
        threshold=25, downscale=1, buffer_radius=1, min_motion_pixels=5
    )
    outcomes, _ = step_all(
        [gray_frame(base, 0), gray_frame(spot, 1)], config_buffer
    )
    assert outcomes[1].kind is not OutcomeKind.DROP


def test_analyse_masked_frame_zero_outside_mask():
    """Third frame of a motion run is masked: content only where the
    square moved (plus the one-cell buffer), zero elsewhere."""
    def with_square(left):
        img = np.full((12, 12), 10, dtype=np.uint8)
        img[2:5, left : left + 3] = 250
        return img

    frames = [gray_frame(with_square(left), i) for i, left in enumerate((2, 3, 4))]
    config = MotionConfig(
        threshold=25, downscale=1, buffer_radius=1, min_motion_pixels=1
    )
    outcomes, _ = step_all(frames, config)
    masked = outcomes[2]
    assert masked.kind is OutcomeKind.MASKED
    out = np.frombuffer(masked.frame.data, dtype=np.uint8).reshape(12, 12)
    # changed columns are the trailing edge (3) and leading edge (6),
    # buffered by one pixel on each side
    assert out[2:5, 4:7].sum() > 0
    keep_region = np.zeros((12, 12), dtype=bool)
    keep_region[1:6, 1:8] = True
    assert out[~keep_region].sum() == 0


def test_analyse_rejects_dimension_change():
    config = MotionConfig()
    state = AnalysisState()
    _, state = analyse(state, config, gray_frame(np.zeros((8, 8), np.uint8), 0))
    with pytest.raises(DimensionMismatch):
        analyse(state, config, gray_frame(np.zeros((8, 10), np.uint8), 1))
    frame = frame_from_luma(np.zeros((8, 8), np.uint8), PixelFormat.RGB24, 1)
    with pytest.raises(DimensionMismatch):
        analyse(state, config, frame)


def test_analyse_mismatch_names_the_frame():
    config = MotionConfig()
    _, state = analyse(
        AnalysisState(), config, gray_frame(np.zeros((2, 2), np.uint8), 0)
    )
    wrong = gray_frame(np.zeros((2, 4), np.uint8), 5)
    message = "frame 5 is 4x2 gray8, stream is 2x2 gray8"
    with pytest.raises(DimensionMismatch, match=message):
        analyse(state, config, wrong)


@given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12))
def test_analyse_drop_gate_matches_mask_population(seed, threshold, min_pixels):
    """Second frame of a random pair drops exactly when the dilated mask
    population is under the configured minimum."""
    rng = np.random.default_rng(seed)
    config = MotionConfig(
        threshold=threshold, downscale=2, buffer_radius=1,
        min_motion_pixels=min_pixels,
    )
    first = gray_frame(rng.integers(0, 256, (11, 13), dtype=np.uint8), 0)
    second = gray_frame(
        np.clip(
            to_grayscale(first).astype(np.int16)
            + rng.integers(-80, 81, (11, 13)),
            0,
            255,
        ).astype(np.uint8),
        1,
    )
    state = AnalysisState()
    _, state = analyse(state, config, first)
    outcome, _ = analyse(state, config, second)
    mask = dilate(
        threshold_mask(
            abs_diff(
                downscale(to_grayscale(first), 2),
                downscale(to_grayscale(second), 2),
            ),
            threshold,
        ),
        1,
    )
    expect_drop = int(mask.sum()) < min_pixels
    assert (outcome.kind is OutcomeKind.DROP) == expect_drop
