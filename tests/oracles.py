"""Brute-force reference implementations, deliberately written with plain
Python loops and no numpy/scipy, so the fast paths have something
independent to be checked against."""

from __future__ import annotations

from motionsieve import Frame, PixelFormat


def oracle_gray(frame: Frame) -> list[list[int]]:
    """The first w*h bytes as rows: every layout stores its luma first."""
    w, h = frame.width, frame.height
    data = frame.data
    return [[data[y * w + x] for x in range(w)] for y in range(h)]


def oracle_downscale(grid: list[list[int]], factor: int) -> list[list[int]]:
    h, w = len(grid), len(grid[0])
    out_h = -(-h // factor)
    out_w = -(-w // factor)
    out = []
    for by in range(out_h):
        row = []
        for bx in range(out_w):
            total = 0
            count = 0
            for y in range(by * factor, min(by * factor + factor, h)):
                for x in range(bx * factor, min(bx * factor + factor, w)):
                    total += grid[y][x]
                    count += 1
            row.append((2 * total + count) // (2 * count))
        out.append(row)
    return out


def oracle_threshold(
    prev: list[list[int]], curr: list[list[int]], threshold: int
) -> list[list[bool]]:
    return [
        [abs(curr[y][x] - prev[y][x]) > threshold for x in range(len(prev[0]))]
        for y in range(len(prev))
    ]


def oracle_dilate(mask: list[list[bool]], radius: int) -> list[list[bool]]:
    h, w = len(mask), len(mask[0])
    out = []
    for y in range(h):
        row = []
        for x in range(w):
            hit = False
            for yy in range(max(0, y - radius), min(h, y + radius + 1)):
                for xx in range(max(0, x - radius), min(w, x + radius + 1)):
                    if mask[yy][xx]:
                        hit = True
                        break
                if hit:
                    break
            row.append(hit)
        out.append(row)
    return out


def oracle_upscale(
    mask: list[list[bool]], factor: int, width: int, height: int
) -> list[list[bool]]:
    return [
        [mask[y // factor][x // factor] for x in range(width)]
        for y in range(height)
    ]


def oracle_apply_mask(frame: Frame, mask: list[list[bool]]) -> bytes:
    w, h = frame.width, frame.height
    data = frame.data
    if frame.pixel_format is PixelFormat.GRAY8:
        return bytes(
            data[y * w + x] if mask[y][x] else 0
            for y in range(h)
            for x in range(w)
        )
    if frame.pixel_format is PixelFormat.YUV444:
        plane = w * h
        out = bytearray()
        for p in range(3):
            for y in range(h):
                for x in range(w):
                    out.append(data[p * plane + y * w + x] if mask[y][x] else 0)
        return bytes(out)
    plane = w * h
    cw, ch = w // 2, h // 2
    chroma = [
        [
            mask[2 * cy][2 * cx]
            or mask[2 * cy][2 * cx + 1]
            or mask[2 * cy + 1][2 * cx]
            or mask[2 * cy + 1][2 * cx + 1]
            for cx in range(cw)
        ]
        for cy in range(ch)
    ]
    out = bytearray(
        data[y * w + x] if mask[y][x] else 0 for y in range(h) for x in range(w)
    )
    for c in range(2):
        base = plane + c * cw * ch
        for cy in range(ch):
            for cx in range(cw):
                out.append(data[base + cy * cw + cx] if chroma[cy][cx] else 0)
    return bytes(out)


def oracle_changed_count(
    prev: list[list[int]], curr: list[list[int]], threshold: int
) -> int:
    return sum(
        1
        for y in range(len(prev))
        for x in range(len(prev[0]))
        if abs(curr[y][x] - prev[y][x]) > threshold
    )


def simulate_compress(frames, config):
    """Full compression simulated step by step with the oracles above.

    Returns a list of (kind, data, record) per input frame, where kind is
    "drop" / "masked" / "full", data is the emitted payload bytes (None
    for drops), and record is (input_frame, output_frame, full_frame) or
    None.
    """
    prev = None
    out_index = 0
    since_keyframe = 0
    in_motion = False
    results = []
    for position, frame in enumerate(frames):
        gray = oracle_downscale(oracle_gray(frame), config.downscale)
        if prev is None:
            results.append(("full", frame.data, (position, out_index, 1)))
            out_index += 1
            since_keyframe = 0
            prev = gray
            continue
        mask = oracle_dilate(
            oracle_threshold(prev, gray, config.threshold), config.buffer_radius
        )
        population = sum(cell for row in mask for cell in row)
        if population < config.min_motion_pixels:
            results.append(("drop", None, None))
            in_motion = False
            prev = gray
            continue
        since_keyframe += 1
        if not in_motion or since_keyframe >= config.keyframe_interval:
            results.append(("full", frame.data, (position, out_index, 1)))
            since_keyframe = 0
        else:
            full_mask = oracle_upscale(
                mask, config.downscale, frame.width, frame.height
            )
            results.append(
                (
                    "masked",
                    oracle_apply_mask(frame, full_mask),
                    (position, out_index, 0),
                )
            )
        out_index += 1
        in_motion = True
        prev = gray
    return results
