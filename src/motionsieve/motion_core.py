"""Per-frame motion analysis: what changed, and is it worth keeping.

A frame is reduced to grayscale, downscaled by block averaging, and
differenced against the previous frame's reduction.  Pixels whose absolute
difference strictly exceeds the threshold form the raw motion mask, which
is then grown by a square dilation so the kept region carries some
surrounding context.  Depending on the mask population and the keyframe
cadence, the frame is dropped, emitted masked (bytes outside the motion
region zeroed), or emitted whole.

Gray frames are 2-D uint8 arrays, rows x cols.  Motion masks are 2-D bool
arrays on the downscaled grid; ragged right/bottom edges round up, so a
mask covers ceil(h/s) x ceil(w/s) cells.

All integer roundings here are half-up, chosen once and used everywhere a
mean or a weighted sum must land on a uint8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DimensionMismatch
from .frame_io import Frame, PixelFormat
from .sidecar import SidecarRecord


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
    """Luma view of a frame as a (h, w) uint8 array.

    GRAY8 is returned as-is, YUV420 contributes its Y plane, and RGB uses
    integer BT.601 weights with half-up rounding:
    (299 R + 587 G + 114 B + 500) // 1000.
    """
    h, w = frame.height, frame.width
    raw = np.frombuffer(frame.data, dtype=np.uint8)
    if frame.pixel_format is PixelFormat.GRAY8:
        return raw.reshape(h, w)
    if frame.pixel_format is PixelFormat.YUV420:
        return raw[: w * h].reshape(h, w)
    planes = raw.reshape(3, h, w).astype(np.uint32)
    weighted = 299 * planes[0] + 587 * planes[1] + 114 * planes[2] + 500
    return (weighted // 1000).astype(np.uint8)


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
    # Sum the strided views, rows first and then columns, so the call count
    # is min(s, h) + min(s, w) and nothing larger than the frame is
    # allocated whatever the factor.  The accumulator is the narrowest
    # unsigned type that holds 2 * sum + count for the largest tile.
    tile_rows, tile_cols = min(factor, h), min(factor, w)
    dtype = np.min_scalar_type(511 * tile_rows * tile_cols)
    rows = np.zeros((-(-h // factor), w), dtype)
    for dy in range(tile_rows):
        view = gray[dy::factor]
        rows[: view.shape[0]] += view
    sums = np.zeros((rows.shape[0], -(-w // factor)), dtype)
    for dx in range(tile_cols):
        view = rows[:, dx::factor]
        sums[:, : view.shape[1]] += view
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


def _tile_lengths(size: int, factor: int) -> np.ndarray:
    """In-bounds length of each factor-wide tile along an axis of ``size``."""
    return np.minimum(size - np.arange(0, size, factor), factor)


def abs_diff(prev: np.ndarray, curr: np.ndarray) -> np.ndarray:
    """Elementwise |curr - prev| of two equal-shape uint8 gray frames."""
    check_gray_pair(prev, curr)
    # max - min never wraps, so the difference needs no wider dtype.
    diff = np.maximum(prev, curr)
    diff -= np.minimum(prev, curr)
    return diff


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
    # Separable shift-OR: OR 2r+1 row-shifted slices of a zero-padded copy,
    # then 2r+1 column-shifted slices of the result.
    h, w = mask.shape
    span = 2 * radius + 1
    padded = np.zeros((h + 2 * radius, w), dtype=bool)
    padded[radius : radius + h] = mask
    tall = padded[:h].copy()
    for shift in range(1, span):
        tall |= padded[shift : shift + h]
    padded = np.zeros((h, w + 2 * radius), dtype=bool)
    padded[:, radius : radius + w] = tall
    grown = padded[:, :w].copy()
    for shift in range(1, span):
        grown |= padded[:, shift : shift + w]
    return grown


def mask_grid_shape(width: int, height: int, factor: int) -> tuple[int, int]:
    """Shape (rows, cols) of the analysis grid for a frame."""
    return (-(-height // factor), -(-width // factor))


def upscale_mask(
    mask: np.ndarray, factor: int, width: int, height: int
) -> np.ndarray:
    """Nearest-neighbor expansion of a grid mask back to frame resolution.

    Each grid cell paints its factor x factor block; the result is cropped
    to (height, width).  The mask must match the grid shape implied by the
    target dimensions.
    """
    if mask.shape != mask_grid_shape(width, height, factor):
        raise DimensionMismatch(
            f"mask is {mask.shape}, expected "
            f"{mask_grid_shape(width, height, factor)} for "
            f"{width}x{height} at factor {factor}"
        )
    if factor == 1:
        return mask
    full = np.repeat(np.repeat(mask, factor, axis=0), factor, axis=1)
    return full[:height, :width]


def apply_mask(frame: Frame, mask: np.ndarray) -> Frame:
    """Zero every byte of ``frame`` outside the full-resolution mask.

    For YUV420 the chroma planes follow a derived half-resolution mask: a
    chroma sample survives if any of its four luma sites survives, so kept
    luma never loses its color.
    """
    h, w = frame.height, frame.width
    if mask.shape != (h, w):
        raise DimensionMismatch(f"mask is {mask.shape}, frame is {(h, w)}")
    raw = np.frombuffer(frame.data, dtype=np.uint8)
    kept = np.empty_like(raw)
    # Every full-resolution plane (gray, Y, or R, G and B) takes the mask as
    # is; 4:2:0 U and V then take the half-resolution chroma mask.
    planes = 3 if frame.pixel_format is PixelFormat.RGB24 else 1
    full_end = planes * h * w
    np.multiply(
        raw[:full_end].reshape(planes, h, w),
        mask,
        out=kept[:full_end].reshape(planes, h, w),
    )
    if frame.pixel_format is PixelFormat.YUV420:
        chroma_mask = (
            mask[0::2, 0::2] | mask[0::2, 1::2] | mask[1::2, 0::2] | mask[1::2, 1::2]
        )
        chroma_shape = (2, h // 2, w // 2)
        np.multiply(
            raw[full_end:].reshape(chroma_shape),
            chroma_mask,
            out=kept[full_end:].reshape(chroma_shape),
        )
    return Frame(frame.index, w, h, frame.pixel_format, kept.tobytes())


class OutcomeKind(Enum):
    DROP = "drop"
    MASKED = "masked"
    FULL_FRAME = "full_frame"


@dataclass(frozen=True)
class AnalysisOutcome:
    """Verdict for one frame.  ``frame`` and ``record`` are None for drops;
    otherwise ``frame`` is what to emit (already masked when kind is
    MASKED) and ``record`` is its sidecar row."""

    kind: OutcomeKind
    frame: Frame | None
    record: SidecarRecord | None


_DROP = AnalysisOutcome(OutcomeKind.DROP, None, None)


@dataclass(frozen=True, eq=False)
class AnalysisState:
    """Carry-over between frames.  A fresh instance means "no frame seen";
    dimensions are locked in by the first frame."""

    width: int | None = None
    height: int | None = None
    pixel_format: PixelFormat | None = None
    prev_gray: np.ndarray | None = None
    out_index: int = 0
    frames_since_keyframe: int = 0
    in_motion_sequence: bool = False


def analyse(
    state: AnalysisState, config: MotionConfig, frame: Frame
) -> tuple[AnalysisOutcome, AnalysisState]:
    """Decide drop / masked / full for one frame and advance the state.

    The comparison baseline is always the previous input frame, dropped or
    not, so a creeping change can never hide below threshold forever
    against a stale reference.  The first frame is always emitted whole but
    does not start a motion run; within a run, every keyframe_interval-th
    emitted frame is promoted to a full frame so reconstruction references
    stay fresh.
    """
    if state.width is None:
        state = replace(
            state,
            width=frame.width,
            height=frame.height,
            pixel_format=frame.pixel_format,
        )
    elif (frame.width, frame.height, frame.pixel_format) != (
        state.width,
        state.height,
        state.pixel_format,
    ):
        raise DimensionMismatch(
            f"frame {frame.index} is {frame.width}x{frame.height} "
            f"{frame.pixel_format.value}, stream started as "
            f"{state.width}x{state.height} {state.pixel_format.value}"
        )

    gray = downscale(to_grayscale(frame), config.downscale)

    if state.prev_gray is None:
        record = SidecarRecord(frame.index, state.out_index, True)
        outcome = AnalysisOutcome(OutcomeKind.FULL_FRAME, frame, record)
        new_state = replace(
            state,
            prev_gray=gray,
            out_index=state.out_index + 1,
            frames_since_keyframe=0,
        )
        return outcome, new_state

    mask = dilate(
        threshold_mask(abs_diff(state.prev_gray, gray), config.threshold),
        config.buffer_radius,
    )
    if int(mask.sum()) < config.min_motion_pixels:
        return _DROP, replace(state, prev_gray=gray, in_motion_sequence=False)

    since_keyframe = state.frames_since_keyframe + 1
    if not state.in_motion_sequence or since_keyframe >= config.keyframe_interval:
        record = SidecarRecord(frame.index, state.out_index, True)
        outcome = AnalysisOutcome(OutcomeKind.FULL_FRAME, frame, record)
        since_keyframe = 0
    else:
        full_mask = upscale_mask(
            mask, config.downscale, frame.width, frame.height
        )
        record = SidecarRecord(frame.index, state.out_index, False)
        outcome = AnalysisOutcome(
            OutcomeKind.MASKED, apply_mask(frame, full_mask), record
        )
    new_state = replace(
        state,
        prev_gray=gray,
        out_index=state.out_index + 1,
        frames_since_keyframe=since_keyframe,
        in_motion_sequence=True,
    )
    return outcome, new_state
