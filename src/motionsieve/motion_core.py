"""Per-frame motion analysis: what changed, and is it worth keeping.

A frame's luma plane is downscaled by block averaging and differenced
against the previous frame's reduction.  Pixels whose absolute difference
strictly exceeds the threshold form the raw motion mask, which is then
grown by a square dilation so the kept region carries some surrounding
context.  Depending on the mask population and the keyframe cadence, the
frame is dropped, emitted masked (bytes outside the motion region zeroed),
or emitted whole.

A frame that follows a drop is first compared with it pixel by pixel at
full resolution.  When no pixel differs by more than the threshold, no
block mean can either, so the raw mask would be empty: the frame is
dropped without being downscaled, and the outcome is the same as the
grid comparison's.  Where noise puts some pixel past the threshold on
still frames, the check fails on frames the grid drops; it then sits out
1, 3, 7, ... up to 63 drops in a row, so such footage pays for it on few
frames.

Gray frames are 2-D uint8 arrays, rows x cols.  Motion masks are 2-D bool
arrays on the downscaled grid; ragged right/bottom edges round up, so a
mask covers ceil(h/s) x ceil(w/s) cells.

All integer roundings here are half-up, chosen once and used everywhere a
mean must land on a uint8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import DimensionMismatch
from .frame_io import Frame, PixelFormat, check_geometry
from .sidecar import SidecarRecord

# Full-resolution per-pixel kernels walk a frame this many bytes of rows at
# a time (136 rows at 1080p), so that their operands stay in a core's L2
# cache.
_BAND_BYTES = 256 * 1024

# After a still check fails on a frame that the grid comparison then drops,
# the check sits out the next 1, 3, 7, ... drops, at most this many, until
# it passes again; see ``AnalysisState``.
_MAX_CHECK_WAIT = 63


@dataclass(frozen=True)
class MotionConfig:
    """Tunables for the analysis stage.

    threshold: minimum absolute luma difference (strict) for a changed pixel.
    downscale: block edge for the analysis-grid reduction; 1 disables.
    buffer_radius: dilation radius in grid cells; the kept neighborhood
        around each changed cell is a (2r+1) x (2r+1) square.
    keyframe_interval: within a motion run, emit a full frame once every
        this many emitted frames.
    min_motion_pixels: mask population (after dilation) below which the
        frame is dropped.
    """

    threshold: int = 25
    downscale: int = 2
    buffer_radius: int = 5
    keyframe_interval: int = 100
    min_motion_pixels: int = 10

    def __post_init__(self) -> None:
        if not 1 <= self.threshold <= 255:
            raise ValueError("threshold must be in [1, 255]")
        if self.downscale < 1:
            raise ValueError("downscale must be >= 1")
        if self.buffer_radius < 0:
            raise ValueError("buffer_radius must be >= 0")
        if self.keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        if self.min_motion_pixels < 1:
            raise ValueError("min_motion_pixels must be >= 1")


def to_grayscale(frame: Frame) -> np.ndarray:
    """Luma of a frame as a read-only (h, w) uint8 view of its first plane:
    the gray plane of GRAY8 and the Y plane of YUV444 and YUV420.  Nothing
    is computed or copied."""
    h, w = frame.height, frame.width
    return np.frombuffer(frame.data, np.uint8, w * h).reshape(h, w)


def downscale(gray: np.ndarray, factor: int) -> np.ndarray:
    """Block-average ``gray`` over factor x factor tiles, rounding half-up.

    Partial tiles at the right and bottom edges average only their
    in-bounds pixels, so the result is ceil(h/s) x ceil(w/s).
    """
    if factor < 1:
        raise ValueError("downscale factor must be >= 1")
    if factor == 1:
        return gray
    h, w = gray.shape
    # Sum the strided views, rows first and then columns (as the rows of
    # the transpose, which numpy walks in memory order), so the call count
    # is at most min(s, h) + min(s, w) and nothing larger than the frame is
    # allocated whatever the factor.  The accumulator is the narrowest
    # unsigned type that holds 2 * sum + count for the largest tile.
    dtype = np.min_scalar_type(511 * min(factor, h) * min(factor, w))
    rows = _sum_rows(gray, factor, dtype)
    sums = _sum_rows(rows.T, factor, dtype).T
    if h % factor or w % factor:
        counts = np.multiply.outer(
            _tile_lengths(h, factor), _tile_lengths(w, factor)
        ).astype(dtype)
    else:
        counts = factor * factor
    # round(sum / count) half-up without floats: (2 sum + count) // (2 count)
    sums *= 2
    sums += counts
    sums //= 2 * counts
    return sums.astype(np.uint8)


def _sum_rows(a: np.ndarray, factor: int, dtype) -> np.ndarray:
    """Sum each run of ``factor`` rows of a 2-D array into ``dtype``; a
    ragged last run sums its in-bounds rows.

    The accumulator starts as the sum of the first two strided views, so
    no zeroed buffer is made and filled; a view one row shorter than the
    first adds into the accumulator's head.
    """
    first, second = a[::factor], a[1::factor]
    if len(second) == len(first):
        acc = np.add(first, second, dtype=dtype)
        start = 2
    else:
        acc = first.astype(dtype)
        start = 1
    for offset in range(start, min(factor, len(a))):
        view = a[offset::factor]
        acc[: len(view)] += view
    return acc


def _tile_lengths(size: int, factor: int) -> np.ndarray:
    """In-bounds length of each factor-wide tile along an axis of ``size``."""
    return np.minimum(size - np.arange(0, size, factor), factor)


def abs_diff(
    prev: np.ndarray, curr: np.ndarray, out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Elementwise |curr - prev| of two equal-shape uint8 gray frames.

    ``out``, if given, is a uint8 array of that shape that receives the
    difference and is returned; ``scratch``, if given, is another one that
    holds min(prev, curr) on the way.  With both the call allocates
    nothing.  Neither may overlap an operand.
    """
    check_gray_pair(prev, curr)
    return _abs_diff(prev, curr, out, scratch)


def _abs_diff(
    prev: np.ndarray, curr: np.ndarray, out: np.ndarray | None,
    scratch: np.ndarray | None,
) -> np.ndarray:
    """``abs_diff`` on operands already checked."""
    # max - min never wraps, so the difference needs no wider dtype.
    diff = np.maximum(prev, curr, out=out)
    diff -= np.minimum(prev, curr, out=scratch)
    return diff


def _band_diffs(prev: np.ndarray, curr: np.ndarray) -> Iterator[np.ndarray]:
    """``abs_diff`` of two checked gray planes, one row band at a time, top
    to bottom.  Each band is a view into scratch that the next one reuses,
    so nothing frame-sized is allocated."""
    height, width = curr.shape
    rows = max(1, _BAND_BYTES // width)
    diff, low = np.empty((2, min(rows, height), width), np.uint8)
    for top in range(0, height, rows):
        band = slice(top, top + rows)
        used = min(rows, height - top)
        yield _abs_diff(prev[band], curr[band], diff[:used], low[:used])


def _within(prev: np.ndarray, curr: np.ndarray, threshold: int) -> bool:
    """Whether no pixel of ``curr`` differs from ``prev`` by more than
    ``threshold``.  The first band with a larger difference ends the
    comparison."""
    return all(band.max() <= threshold for band in _band_diffs(prev, curr))


def check_gray_pair(a: np.ndarray, b: np.ndarray) -> None:
    """Reject gray operands the uint8 per-pixel kernels cannot take."""
    if a.dtype != np.uint8 or b.dtype != np.uint8:
        raise ValueError(f"gray frames must be uint8, got {a.dtype} and {b.dtype}")
    if a.shape != b.shape:
        raise DimensionMismatch(f"gray shapes differ: {a.shape} vs {b.shape}")


def threshold_mask(diff: np.ndarray, threshold: int) -> np.ndarray:
    """Bool mask of pixels strictly above ``threshold``."""
    return diff > threshold


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Grow a bool mask with a (2r+1) x (2r+1) square kernel.

    Cells outside the frame count as unset, so the region is clipped at
    the edges rather than wrapped.
    """
    if radius < 0:
        raise ValueError("dilation radius must be >= 0")
    if radius == 0 or not mask.any():
        return mask
    # Separable shift-OR in one zero-padded buffer: rows on the 2-D view, then
    # the kept rows flat, where each row's 2r zero pads keep a kept cell's
    # window inside it.  A radius past the grid already covers all of it.
    h, w = mask.shape
    radius = min(radius, max(h, w))
    span, width = 2 * radius + 1, w + 2 * radius
    flat = np.zeros((h + 2 * radius) * width, dtype=bool)
    padded = flat.reshape(-1, width)
    padded[radius : radius + h, radius : radius + w] = mask
    _window_or(padded, span)
    _window_or(flat[: h * width], span)
    return padded[:h, :w]


def _window_or(padded: np.ndarray, span: int) -> None:
    """OR ``padded`` in place so row i holds the OR of rows i .. i+span-1,
    for every i whose window lies inside the array.  Each step ORs in the
    slice ``step`` ahead, doubling to ``span`` in ceil(log2(span)) steps."""
    covered = 1
    while covered < span:
        step = min(covered, span - covered)
        padded[: len(padded) - step] |= padded[step:]
        covered += step


def mask_grid_shape(width: int, height: int, factor: int) -> tuple[int, int]:
    """Shape (rows, cols) of the analysis grid for a frame."""
    return (-(-height // factor), -(-width // factor))


def upscale_mask(
    mask: np.ndarray, factor: int, width: int, height: int
) -> np.ndarray:
    """Nearest-neighbor expansion of a grid mask back to frame resolution.

    Each grid cell paints its factor x factor block; the result is cropped
    to (height, width).  The mask must match the grid shape implied by the
    target dimensions.  Masking a frame does not need this: ``apply_mask``
    takes the grid itself and never builds the frame-sized mask.
    """
    _check_grid(mask, factor, width, height)
    if factor == 1:
        return mask
    full = np.repeat(np.repeat(mask, factor, axis=0), factor, axis=1)
    return full[:height, :width]


def apply_mask(frame: Frame, mask: np.ndarray, factor: int = 1) -> Frame:
    """Zero every byte of ``frame`` outside a grid mask at ``factor``.

    Pixel (y, x) is kept when grid cell (y // factor, x // factor) is set,
    so the mask is ceil(h/s) x ceil(w/s); factor 1 means a full-resolution
    mask.  Every full-resolution plane (GRAY8's one, YUV444's three and
    YUV420's Y) takes the grid as is.  For YUV420 a chroma sample survives
    if any of its four luma sites survives, so kept luma never loses its
    color.  At an even factor each 2x2 chroma site lies inside one grid
    cell, so U and V take the grid at factor s/2; at an odd factor the
    four sites are ORed on the grid.  The masked frame's data is a
    read-only view of the array it was masked into, not a copy of it.
    """
    h, w = frame.height, frame.width
    _check_grid(mask, factor, w, h)
    # Every factor past the frame gives the same 1x1 grid; clamped, a grid
    # row repeated across stays the width of the frame.
    factor = min(factor, max(h, w, 1))
    raw = np.frombuffer(frame.data, dtype=np.uint8)
    kept = np.empty_like(raw)
    planes = 3 if frame.pixel_format is PixelFormat.YUV444 else 1
    full_end = planes * h * w
    _mask_planes(
        raw[:full_end].reshape(planes, h, w),
        mask,
        factor,
        kept[:full_end].reshape(planes, h, w),
    )
    if frame.pixel_format is PixelFormat.YUV420:
        if factor % 2 == 0:
            chroma_mask, chroma_factor = mask, factor // 2
        else:
            sites = 2 * np.arange(h // 2)
            tall = mask[sites // factor] | mask[(sites + 1) // factor]
            sites = 2 * np.arange(w // 2)
            chroma_mask = tall[:, sites // factor] | tall[:, (sites + 1) // factor]
            chroma_factor = 1
        chroma_shape = (2, h // 2, w // 2)
        _mask_planes(
            raw[full_end:].reshape(chroma_shape),
            chroma_mask,
            chroma_factor,
            kept[full_end:].reshape(chroma_shape),
        )
    kept.flags.writeable = False
    return Frame(frame.index, w, h, frame.pixel_format, memoryview(kept))


def _check_grid(mask: np.ndarray, factor: int, width: int, height: int) -> None:
    expected = mask_grid_shape(width, height, factor)
    if mask.shape != expected:
        raise DimensionMismatch(
            f"mask is {mask.shape}, expected {expected} for "
            f"{width}x{height} at factor {factor}"
        )


def _mask_planes(
    src: np.ndarray, grid: np.ndarray, factor: int, out: np.ndarray
) -> None:
    """out = src where the grid at ``factor`` is set, else 0, for a stack
    of (planes, rows, cols) uint8 planes, without a frame-sized mask.

    Rows: each grid row broadcasts over its ``factor`` pixel rows, with a
    ragged last block taking the last grid row.  Columns: when factor and
    cols are both even, two adjacent pixels always share a cell, so the
    planes are masked as uint16 pairs against the grid repeated factor/2
    times across; otherwise as bytes against it repeated factor times.
    """
    planes, rows, cols = src.shape
    unit = 2 if factor % 2 == 0 and cols % 2 == 0 else 1
    if unit == 2:
        src, out = src.view(np.uint16), out.view(np.uint16)
    across = factor // unit
    if across > 1:
        grid = np.repeat(grid, across, axis=1)
    grid = grid[:, : cols // unit]
    blocks = rows // factor
    body = blocks * factor
    shape = (planes, blocks, factor, cols // unit)
    np.multiply(
        src[:, :body].reshape(shape),
        grid[:blocks, None, :],
        out=out[:, :body].reshape(shape),
    )
    if body < rows:
        np.multiply(src[:, body:], grid[-1], out=out[:, body:])


class OutcomeKind(Enum):
    DROP = "drop"
    MASKED = "masked"
    FULL_FRAME = "full_frame"


@dataclass(frozen=True)
class AnalysisOutcome:
    """Verdict for one frame.  ``frame`` and ``record`` are None for drops;
    otherwise ``frame`` is what to emit (already masked unless the record
    marks a full frame) and ``record`` is its sidecar row."""

    frame: Frame | None
    record: SidecarRecord | None

    @property
    def kind(self) -> OutcomeKind:
        if self.record is None:
            return OutcomeKind.DROP
        if self.record.full_frame:
            return OutcomeKind.FULL_FRAME
        return OutcomeKind.MASKED


_DROP = AnalysisOutcome(None, None)


@dataclass(frozen=True, eq=False)
class AnalysisState:
    """Carry-over between frames; a fresh instance means "no frame seen".

    geometry: the first frame's (width, height, pixel_format), which every
        later frame must match; None before the first frame.
    prev_gray: the previous input frame's downscaled luma, dropped or not;
        None before the first frame and after a drop decided on
        ``prev_luma`` alone, which left it uncomputed.
    prev_luma: when the previous input frame was dropped, a read-only
        view of its luma at full resolution, else None.  Frames cannot
        change, so the view is safe to hold.
    out_index: output position the next emitted frame takes.
    since_keyframe: frames emitted since the last full frame of the current
        motion run, or None outside a run.  The first frame starts no run,
        and a drop ends one.
    check_wait: drops the grid comparison still decides before the
        per-pixel check on ``prev_luma`` is tried again.
    check_backoff: the wait the last failed check set; 0 after a pass.
        Each check that fails on a frame the grid then drops sets a wait
        of twice this plus one, at most ``_MAX_CHECK_WAIT``, so footage
        whose noise puts a pixel past the threshold on every frame pays
        for the check on one drop in 64 rather than on each.
    """

    geometry: tuple[int, int, PixelFormat] | None = None
    prev_gray: np.ndarray | None = None
    prev_luma: np.ndarray | None = None
    out_index: int = 0
    since_keyframe: int | None = None
    check_wait: int = 0
    check_backoff: int = 0


def analyse(
    state: AnalysisState, config: MotionConfig, frame: Frame
) -> tuple[AnalysisOutcome, AnalysisState]:
    """Decide drop / masked / full for one frame and advance the state.

    The comparison baseline is always the previous input frame, dropped or
    not, so a creeping change can never hide below threshold forever
    against a stale reference.  A frame is full when it opens the stream
    or a motion run, or when it is the keyframe_interval-th emitted frame
    since the run's last full frame, so reconstruction references stay
    fresh; every other emitted frame is masked.

    After a drop, the frame's luma is first compared with the dropped
    frame's pixel by pixel.  If no pixel differs by more than the
    threshold, then no tile's mean does either: for a tile of c pixels the
    sums differ by at most c * threshold, and half-up rounding moves the
    difference of the means by less than one.  The raw mask would then be
    empty, so the frame is dropped without downscaling it.  Otherwise the
    dropped frame's reduction is computed if that drop skipped it, and the
    frame is analysed on the grid as usual.  Either way the outcome is the
    same.  A check that fails on a frame the grid then drops was wasted,
    and the check sits out a growing number of drops after it (see
    ``AnalysisState``), which changes only which path decides them.
    """
    geometry = state.geometry or (frame.width, frame.height, frame.pixel_format)
    check_geometry(frame, geometry)
    luma = to_grayscale(frame)
    prev_luma = state.prev_luma
    checked = prev_luma is not None and state.check_wait == 0
    if checked and _within(prev_luma, luma, config.threshold):
        return _DROP, replace(
            state, prev_gray=None, prev_luma=luma, check_backoff=0
        )
    gray = downscale(luma, config.downscale)
    prev_gray = state.prev_gray
    if prev_gray is None and prev_luma is not None:
        prev_gray = downscale(prev_luma, config.downscale)

    mask = None
    if prev_gray is not None:
        mask = dilate(
            threshold_mask(abs_diff(prev_gray, gray), config.threshold),
            config.buffer_radius,
        )
        if np.count_nonzero(mask) < config.min_motion_pixels:
            wait, backoff = state.check_wait, state.check_backoff
            if checked:
                backoff = min(2 * backoff + 1, _MAX_CHECK_WAIT)
                wait = backoff
            else:
                wait = max(wait - 1, 0)
            return _DROP, replace(
                state, prev_gray=gray, prev_luma=luma, since_keyframe=None,
                check_wait=wait, check_backoff=backoff,
            )

    since = None if state.since_keyframe is None else state.since_keyframe + 1
    full = since is None or since >= config.keyframe_interval
    record = SidecarRecord(frame.index, state.out_index, full)
    if full:
        # Every full frame but the stream's first opens or renews a run.
        since = None if mask is None else 0
    else:
        frame = apply_mask(frame, mask, config.downscale)
    return AnalysisOutcome(frame, record), AnalysisState(
        geometry, gray, None, state.out_index + 1, since, state.check_wait,
        state.check_backoff,
    )
