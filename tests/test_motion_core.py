import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as npst

from motionsieve import DimensionMismatch, MotionConfig, PixelFormat, motion_core
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
from synth import band_bytes_for, frame_from_luma, gray_frame, random_frame, yuv_frame

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


@pytest.mark.parametrize(
    "name, value",
    [
        ("threshold", 25.7),
        ("downscale", 2.5),
        ("buffer_radius", 1.5),
        ("keyframe_interval", 1.5),
        ("min_motion_pixels", 10.0),
    ],
)
def test_config_refuses_a_non_integer_field(name, value):
    """Refused at construction, naming the field, instead of failing mid-run
    or being used as given; numpy integers pass as Python ones do."""
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        MotionConfig(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got '3'$"):
        MotionConfig(**{name: "3"})
    config = MotionConfig(**{name: np.int64(3)})
    assert getattr(config, name) == 3


def test_grayscale_gray_is_identity():
    arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert np.array_equal(to_grayscale(gray_frame(arr)), arr)


def test_grayscale_yuv_is_luma_plane():
    """YUV420 and YUV444 luma is a view of the payload's first plane."""
    y = np.arange(16, dtype=np.uint8).reshape(4, 4)
    for side in (2, 4):
        chroma = np.full((side, side), 99, dtype=np.uint8)
        frame = yuv_frame(y, chroma, chroma)
        gray = to_grayscale(frame)
        assert np.array_equal(gray, y), frame.pixel_format
        assert np.shares_memory(gray, np.frombuffer(frame.data, np.uint8))


def test_downscale_identity():
    arr = np.arange(30, dtype=np.uint8).reshape(5, 6)
    assert downscale(arr, 1) is arr


def test_downscale_rejects_a_factor_below_one():
    with pytest.raises(ValueError, match="downscale factor"):
        downscale(np.zeros((4, 4), np.uint8), 0)


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
    """Radius 0, or a mask with no cell set, returns the input itself; the
    benchmark tells dilate calls that grew a mask by a result that is not
    the input."""
    mask = np.zeros((4, 4), dtype=bool)
    assert dilate(mask, 3) is mask
    mask[1, 2] = True
    assert dilate(mask, 0) is mask


def test_dilate_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="dilation radius"):
        dilate(np.ones((4, 4), bool), -1)


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


@pytest.mark.parametrize("radius", [*range(10), 50, 10**9])
@pytest.mark.parametrize("shape", [(1, 37), (37, 1), (23, 31)])
def test_dilate_every_radius_matches_bruteforce(radius, shape):
    """Radii 0-9 and two past the grid's size: the doubling ORs a shorter
    slice in its last step at most radii, and a strip or a grid smaller
    than the kernel leaves every slice reaching past an edge.  Padding by
    the radius itself would take (h+2r)(w+2r) bytes, so the peak is bound."""
    rng = np.random.default_rng(radius * 100 + shape[0])
    for density in (0.02, 0.1):
        mask = rng.random(shape) < density
        mask.flat[rng.integers(mask.size)] = True
        tracemalloc.start()
        try:
            got = dilate(mask, radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tolist() == oracle_dilate(mask.tolist(), radius)
        assert peak < 64 * 1024


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


def test_apply_mask_yuv444_masks_every_plane():
    y = np.full((2, 2), 10, dtype=np.uint8)
    u = np.full((2, 2), 20, dtype=np.uint8)
    v = np.full((2, 2), 30, dtype=np.uint8)
    mask = np.array([[True, False], [False, False]])
    out = apply_mask(yuv_frame(y, u, v), mask)
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
    odd sizes for GRAY8 and YUV444, even sizes for 4:2:0 that the factor
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


@pytest.mark.parametrize("factor", [10**9, 10**9 + 1])
@pytest.mark.parametrize("kept", [True, False])
@pytest.mark.parametrize("pixel_format", [PixelFormat.GRAY8, PixelFormat.YUV420])
def test_apply_mask_past_the_frame_masks_as_its_longer_side(pixel_format, kept, factor):
    """Every factor at or past the frame's longer side gives one 1x1 grid,
    even or odd, and the same bytes as that side.  A grid row repeated
    10**9 times across would take a gigabyte, so the peak is bound."""
    frame = random_frame(np.random.default_rng(23), 64, 48, pixel_format)
    grid = np.full((1, 1), kept)
    full = oracle_upscale(grid.tolist(), 64, 64, 48)
    tracemalloc.start()
    try:
        got = apply_mask(frame, grid, factor).data
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == apply_mask(frame, grid, 64).data == oracle_apply_mask(frame, full)
    assert peak < 64 * 1024


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
    # The baseline is the last input, 80, not the last kept frame, 0: a
    # step of exactly the threshold from it drops and one more is stored.
    at_threshold = gray_frame(np.full((8, 8), 105, dtype=np.uint8), 5)
    assert analyse(state, config, at_threshold)[0].kind is OutcomeKind.DROP
    past_threshold = gray_frame(np.full((8, 8), 106, dtype=np.uint8), 5)
    assert analyse(state, config, past_threshold)[0].kind is OutcomeKind.FULL_FRAME


def test_analyse_downscales_no_frame_that_follows_a_still_drop(monkeypatch):
    """A frame within the threshold of a dropped frame, pixel by pixel, is
    dropped without a reduction.  A frame that follows a kept one, or that
    is not within the threshold, is analysed on the grid, and after a
    skipped reduction it reduces the dropped frame's luma too."""
    calls = []
    real = motion_core.downscale

    def counted(gray, factor):
        calls.append(gray.shape)
        return real(gray, factor)

    monkeypatch.setattr(motion_core, "downscale", counted)
    rng = np.random.default_rng(5)
    # Sensor noise of up to 25 levels, exactly the threshold, on a still
    # scene, and an 8x8 square that appears, moves and is gone again.
    noise = rng.integers(0, 26, (12, 24, 32)).astype(np.uint8)
    lumas = 100 + noise
    lumas[5, 4:12, 4:12] = 220
    lumas[6, 4:12, 8:16] = 220
    lumas[8:] = lumas[7]
    frames = [gray_frame(luma, i) for i, luma in enumerate(lumas)]
    outcomes, _ = step_all(frames, MotionConfig())
    F, M, D = OutcomeKind.FULL_FRAME, OutcomeKind.MASKED, OutcomeKind.DROP
    assert [o.kind for o in outcomes] == [F, D, D, D, D, F, M, M, D, D, D, D]
    # One each for frames 0 and 1, none for the drops 2-4, two for frame 5
    # (frame 4's skipped one and its own), one each for frames 6-8, and
    # none for the drops 9-11.
    assert calls == [(24, 32)] * 7


def test_still_check_sits_out_more_drops_after_each_wasted_try(monkeypatch):
    """A check that fails on a frame the grid then drops is tried again
    only after 1, 3, 7, ... up to 63 drops the grid decides.  A pass
    clears the wait's growth, and a failure on a frame that is kept sets no
    wait."""
    checked = []
    real = motion_core._within

    def counted(prev, curr, threshold):
        checked.append(len(kinds))
        return real(prev, curr, threshold)

    monkeypatch.setattr(motion_core, "_within", counted)
    base = np.full((16, 24), 100, dtype=np.uint8)

    def spiked(i):
        # One pixel 26 levels off, past the threshold of 25, while its 2x2
        # tile's mean moves by 7: every spiked frame is a grid drop.
        luma = base.copy()
        luma[i % 16, (5 * i) % 24] += 26
        return luma

    box = base.copy()
    box[4:12, 4:12] = 220
    lumas = [spiked(i) for i in range(130)] + [base] * 65
    lumas += [spiked(1), spiked(2), box, spiked(3), spiked(4), spiked(5)]
    kinds = []
    state = AnalysisState()
    for i, luma in enumerate(lumas):
        outcome, state = analyse(state, MotionConfig(), gray_frame(luma, i))
        kinds.append(outcome.kind)
    F, M, D = OutcomeKind.FULL_FRAME, OutcomeKind.MASKED, OutcomeKind.DROP
    assert kinds == [F] + [D] * 196 + [F, M, D, D]
    # Frame 1 follows a kept frame.  Waits of 1, 3, 7, 15, 31 and 63
    # follow the tries at 2 to 64 and at 128; the still frames from 130 on
    # wait out the last one and pass from 192, so the spike at 195 is
    # checked, and the one at 196 sits out a wait of 1.  The box at 197
    # fails the check and is kept, which sets no wait; frame 199 follows a
    # kept frame, and 200 is checked.
    assert checked == [2, 4, 8, 16, 32, 64, 128, 192, 193, 194, 195, 197, 200]
    assert (state.check_wait, state.check_backoff) == (3, 3)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(2, 9),
    height=st.integers(1, 11),
    rows=st.integers(0, 3),
    slack=st.integers(0, 13),
    spread=st.integers(0, 40),
    threshold=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=2, height=7, rows=3, slack=1, spread=0, threshold=1, seed=0)
@example(width=9, height=5, rows=0, slack=7, spread=30, threshold=25, seed=1)
def test_band_walk_tiles_the_frame_at_ragged_band_heights(
    width, height, rows, slack, spread, threshold, seed
):
    """Bands of 1, 2 or 3 rows, which need not divide the height, or of
    one row when the width passes _BAND_BYTES, cover every row once, top to
    bottom, each with the whole-frame difference of its rows; the still
    check agrees with a whole-frame maximum."""
    rng = np.random.default_rng(seed)
    prev = rng.integers(0, 256, (height, width), np.uint8)
    noise = rng.integers(-spread, spread + 1, (height, width))
    curr = np.clip(prev + noise, 0, 255).astype(np.uint8)
    whole = np.abs(curr.astype(np.int16) - prev)
    step = max(rows, 1)
    with mock.patch("motionsieve.motion_core._BAND_BYTES",
                    band_bytes_for(width, rows, slack)):
        bands = [(band_rows, band.copy())
                 for band_rows, band in motion_core._band_diffs(prev, curr)]
        within = motion_core._within(prev, curr, threshold)
    assert [band_rows for band_rows, _ in bands] == [
        slice(top, top + step) for top in range(0, height, step)
    ]
    for band_rows, band in bands:
        assert np.array_equal(band, whole[band_rows])
    assert within == (whole.max() <= threshold)


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
    frame = frame_from_luma(np.zeros((8, 8), np.uint8), PixelFormat.YUV444, 1)
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
