"""Synthetic fixture builders shared across the test modules."""

from __future__ import annotations

import io

import numpy as np

from motionsieve import Frame, PixelFormat, StreamHeader, Y4MWriter
from motionsieve.sidecar import SidecarWriter


def gray_frame(array, index: int = 0) -> Frame:
    array = np.asarray(array, dtype=np.uint8)
    h, w = array.shape
    return Frame(index, w, h, PixelFormat.GRAY8, array.tobytes())


def yuv_frame(y, u, v, index: int = 0) -> Frame:
    """A YUV420 frame, or a YUV444 one when the chroma planes are the size
    of the luma plane."""
    y = np.asarray(y, dtype=np.uint8)
    u = np.asarray(u, dtype=np.uint8)
    v = np.asarray(v, dtype=np.uint8)
    h, w = y.shape
    pixel_format = (
        PixelFormat.YUV444 if u.shape == y.shape else PixelFormat.YUV420
    )
    return Frame(
        index, w, h, pixel_format, y.tobytes() + u.tobytes() + v.tobytes()
    )


def frame_from_luma(luma, pixel_format: PixelFormat, index: int = 0) -> Frame:
    """Wrap a luma pattern in any supported layout.

    YUV444 uses the luma for all three planes; YUV420 gets mid-gray
    chroma.
    """
    luma = np.asarray(luma, dtype=np.uint8)
    if pixel_format is PixelFormat.GRAY8:
        return gray_frame(luma, index)
    if pixel_format is PixelFormat.YUV444:
        return yuv_frame(luma, luma, luma, index)
    h, w = luma.shape
    chroma = np.full((h // 2, w // 2), 128, dtype=np.uint8)
    return yuv_frame(luma, chroma, chroma, index)


def rising_box_yuv444() -> list[Frame]:
    """Three 64x48 YUV444 frames whose 20x20 luma box is 60 levels brighter
    in frame 1 alone.  The chroma planes never change, so the motion is in
    plane 0 only."""
    still = np.full((48, 64), 60, dtype=np.uint8)
    risen = still.copy()
    risen[14:34, 22:42] += 60
    chroma = np.full((48, 64), 128, dtype=np.uint8)
    return [
        yuv_frame(luma, chroma, chroma, i)
        for i, luma in enumerate((still, risen, still))
    ]


def frames_to_y4m(header: StreamHeader, frames) -> bytes:
    sink = io.BytesIO()
    writer = Y4MWriter(sink, header)
    for frame in frames:
        writer.write_frame(frame)
    writer.flush()
    return sink.getvalue()


def records_to_csv(records) -> str:
    sink = io.StringIO()
    writer = SidecarWriter(sink)
    for record in records:
        writer.write_row(record)
    return sink.getvalue()


def moving_square_luma(
    width: int,
    height: int,
    count: int,
    *,
    size: int = 10,
    step: int = 1,
    background: int = 0,
    foreground: int = 200,
    top: int | None = None,
) -> list[np.ndarray]:
    """Luma patterns with a solid square marching right, wrapping around."""
    if top is None:
        top = (height - size) // 2
    patterns = []
    for i in range(count):
        img = np.full((height, width), background, dtype=np.uint8)
        left = (i * step) % max(width - size, 1)
        img[top : top + size, left : left + size] = foreground
        patterns.append(img)
    return patterns


def moving_square_video(
    width: int,
    height: int,
    count: int,
    pixel_format: PixelFormat = PixelFormat.GRAY8,
    **kwargs,
) -> list[Frame]:
    patterns = moving_square_luma(width, height, count, **kwargs)
    return [
        frame_from_luma(pattern, pixel_format, i)
        for i, pattern in enumerate(patterns)
    ]


def random_frame(rng: np.random.Generator, width, height, pixel_format, index=0):
    size = pixel_format.frame_size(width, height)
    data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    return Frame(index, width, height, pixel_format, data)


def band_bytes_for(width: int, rows: int, slack: int) -> int:
    """A ``motion_core._BAND_BYTES`` that makes bands of ``rows`` rows at
    ``width``, plus ``slack`` bytes short of another row.  0 rows gives a
    value below the width (at least 2), which walks one row at a time."""
    if rows == 0:
        return 1 + slack % (width - 1)
    return rows * width + slack % width


def random_video(seed: int, max_side: int = 64, max_frames: int = 40):
    """A small random video with varied content so drops, masked frames,
    and keyframe promotions all occur across the corpus.  Returns
    (header, frames)."""
    rng = np.random.default_rng(seed)
    pixel_format = [PixelFormat.GRAY8, PixelFormat.YUV444, PixelFormat.YUV420][
        int(rng.integers(0, 3))
    ]
    width = int(rng.integers(2, max_side + 1))
    height = int(rng.integers(2, max_side + 1))
    if pixel_format is PixelFormat.YUV420:
        width += width % 2
        height += height % 2
    count = int(rng.integers(1, max_frames + 1))
    style = int(rng.integers(0, 4))

    frames: list[Frame] = []
    if style == 0:
        # independent noise: nearly everything is motion
        frames = [
            random_frame(rng, width, height, pixel_format, i)
            for i in range(count)
        ]
    elif style == 1:
        # static base with one noisy burst in the middle
        base = random_frame(rng, width, height, pixel_format, 0)
        burst_start = int(rng.integers(0, max(count - 1, 1)))
        burst_len = int(rng.integers(1, 6))
        for i in range(count):
            if burst_start <= i < burst_start + burst_len:
                frames.append(random_frame(rng, width, height, pixel_format, i))
            else:
                frames.append(
                    Frame(i, width, height, pixel_format, base.data)
                )
    elif style == 2:
        size = int(rng.integers(1, max(min(width, height) // 2, 2)))
        step = int(rng.integers(1, 4))
        frames = moving_square_video(
            width, height, count, pixel_format, size=size, step=step,
            background=int(rng.integers(0, 60)),
            foreground=int(rng.integers(150, 256)),
            top=int(rng.integers(0, max(height - size, 1))),
        )
    else:
        # slow global drift: every pixel creeps upward a little per frame
        base = rng.integers(0, 200, (height, width), dtype=np.uint8)
        drift = int(rng.integers(1, 30))
        for i in range(count):
            luma = np.clip(base.astype(np.int32) + i * drift, 0, 255).astype(
                np.uint8
            )
            frames.append(frame_from_luma(luma, pixel_format, i))

    header = StreamHeader(width, height, 30, 1, pixel_format)
    return header, frames
