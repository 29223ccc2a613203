"""Acceptance gate: one test per release criterion.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -v -s`` or in captured output) and enforces its runtime budget.
Heavy fixtures are synthesized once per session in a shared temp dir.
"""

import gzip
import io
import json
import os
import shlex
import sys
import time

import numpy as np
import pytest

from motionsieve import (
    Frame,
    MotionConfig,
    PixelFormat,
    SidecarRecord,
    StreamHeader,
    Y4MReader,
    Y4MWriter,
    frame_reduction,
    read_sidecar,
    reconstruct_stream,
    reference_compress,
    run_pipeline,
    size_reduction,
    write_sidecar,
)
from motionsieve import motion_core
from motionsieve.cli import main as cli_main
from motionsieve.frame_io import parse_y4m_header, serialize_y4m_header
from motionsieve.motion_core import to_grayscale
from motionsieve.reconstruct import env_frame, rec_frame
from motionsieve.sidecar import SidecarWriter
from oracles import (
    oracle_dilate,
    oracle_downscale,
    oracle_gray,
    oracle_threshold,
    oracle_upscale,
    simulate_compress,
)
from synth import (
    frame_from_luma,
    frames_to_y4m,
    gray_frame,
    moving_square_luma,
    moving_square_video,
    random_video,
)

GZ_DECODE = f"{shlex.quote(sys.executable)} -m motionsieve.gzcodec decode {{input}}"
GZ_ENCODE = f"{shlex.quote(sys.executable)} -m motionsieve.gzcodec encode {{output}}"


def report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_metrics_exactness():
    """Reference reduction figures reproduce exactly, to the last digit.

    The expected value for 179912 -> 12423 is 93.09, the figure its counts
    give: in exact arithmetic 100 * (179912 - 12423) / 179912 =
    100 * 167489 / 179912 = 93.09496..., which is 93.09 under any rounding
    rule.  The published 93.03 does not follow from 179912/12423; it would
    need a surviving count between 12531 and 12548.  Whether the misprint
    is in the published percentage or in a published count cannot be
    settled from what this repository holds, and it does not matter here:
    the check is that the stats module turns reference counts into the
    right two-decimal figure.
    """
    start = time.monotonic()
    checks = [
        ("frame_reduction(179912, 12423)", frame_reduction(179912, 12423), 93.09),
        ("frame_reduction(790, 775)", frame_reduction(790, 775), 1.90),
        ("frame_reduction(56664, 14331)", frame_reduction(56664, 14331), 74.71),
        ("size_reduction(10895.05, 266.02)", size_reduction(10895.05, 266.02), 97.56),
    ]
    failures = [
        f"{label} = {got:.2f}, expected {want:.2f}"
        for label, got, want in checks
        if got != want
    ]
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1.0
    report(
        "metrics_exactness", ok,
        "; ".join(failures) if failures else f"{elapsed * 1000:.0f} ms",
    )
    assert not failures, failures
    assert elapsed < 1.0


def test_static_scene_compression():
    start = time.monotonic()
    arr = np.full((360, 640), 77, np.uint8)
    frames = (gray_frame(arr, i) for i in range(300))
    header = StreamHeader(640, 360, 30, 1, PixelFormat.GRAY8)
    video = io.BytesIO()
    sidecar = io.StringIO()
    run_pipeline(frames, MotionConfig(), Y4MWriter(video, header),
                 SidecarWriter(sidecar))
    kept = list(Y4MReader(io.BytesIO(video.getvalue())))
    records = read_sidecar(io.StringIO(sidecar.getvalue()))
    reduction = frame_reduction(300, len(kept))
    elapsed = time.monotonic() - start
    ok = (
        len(kept) == 1
        and records == [SidecarRecord(0, 0, True)]
        and reduction >= 99.6
        and elapsed < 5.0
    )
    report("static_scene_compression", ok,
           f"{len(kept)} frame out, reduction {reduction:.2f}%, {elapsed:.2f} s")
    assert len(kept) == 1
    assert records == [SidecarRecord(0, 0, True)]
    assert reduction >= 99.6
    assert elapsed < 5.0


def _render_single_pass(header, frames, config):
    kept, records = reference_compress(frames, config)
    video = io.BytesIO()
    writer = Y4MWriter(video, header)
    for frame in kept:
        writer.write_frame(frame)
    return video.getvalue(), records


def _render_pipeline(header, frames, config, capacity):
    video = io.BytesIO()
    writer = Y4MWriter(video, header)
    sidecar = io.StringIO()
    run_pipeline(iter(frames), config, writer, SidecarWriter(sidecar),
                 queue_capacity=capacity)
    return video.getvalue(), read_sidecar(io.StringIO(sidecar.getvalue()))


def test_oracle_equivalence():
    """Pipeline output is bit-identical to the single-pass fold on 50
    randomized videos for every queue capacity in {1, 2, 64}."""
    start = time.monotonic()
    mismatches = []
    rng = np.random.default_rng(20260823)
    for case in range(50):
        header, frames = random_video(int(rng.integers(0, 2**31)))
        config = MotionConfig(
            threshold=int(rng.integers(1, 61)),
            downscale=int(rng.integers(1, 5)),
            buffer_radius=int(rng.integers(0, 4)),
            keyframe_interval=int(rng.integers(1, 9)),
            min_motion_pixels=int(rng.integers(1, 31)),
        )
        want_video, want_records = _render_single_pass(header, frames, config)
        for capacity in (1, 2, 64):
            got_video, got_records = _render_pipeline(
                header, frames, config, capacity
            )
            if got_video != want_video or got_records != want_records:
                mismatches.append(f"case {case} capacity {capacity}")
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    report("oracle_equivalence", ok,
           f"50 videos x 3 capacities, {elapsed:.1f} s"
           if ok else "; ".join(mismatches))
    assert not mismatches, mismatches
    assert elapsed < 60.0


def test_mask_correctness():
    """Every masked frame matches the brute-force per-pixel oracle: zero
    outside the dilated region, original bytes inside."""
    start = time.monotonic()
    config = MotionConfig(threshold=20, downscale=2, buffer_radius=1,
                          keyframe_interval=100, min_motion_pixels=1)
    checked_frames = 0
    checked_masked = 0
    for pixel_format in (PixelFormat.GRAY8, PixelFormat.YUV420):
        frames = moving_square_video(48, 32, 20, pixel_format=pixel_format)
        kept, records = reference_compress(frames, config)
        expected = simulate_compress(frames, config)
        emitted = {r.input_frame: f for f, r in zip(kept, records)}
        assert len(kept) == sum(1 for kind, _, _ in expected if kind != "drop")
        prev_oracle_gray = None
        for frame, (kind, data, record) in zip(frames, expected):
            checked_frames += 1
            gray = oracle_downscale(oracle_gray(frame), config.downscale)
            if kind == "drop":
                assert frame.index not in emitted
                prev_oracle_gray = gray
                continue
            got = emitted[frame.index]
            assert got.data == data, f"frame {frame.index} bytes differ"
            if kind == "masked":
                checked_masked += 1
                # independent per-pixel check against the mask geometry
                diff_mask = oracle_threshold(
                    prev_oracle_gray, gray, config.threshold
                )
                full_mask = oracle_upscale(
                    oracle_dilate(diff_mask, config.buffer_radius),
                    config.downscale, frame.width, frame.height,
                )
                original = oracle_gray(frame)
                stored = oracle_gray(got)
                for y in range(frame.height):
                    for x in range(frame.width):
                        want = original[y][x] if full_mask[y][x] else 0
                        assert stored[y][x] == want, (frame.index, x, y)
            prev_oracle_gray = gray
    elapsed = time.monotonic() - start
    ok = checked_masked >= 10 and elapsed < 10.0
    report("mask_correctness", ok,
           f"{checked_frames} frames, {checked_masked} masked, {elapsed:.1f} s")
    assert checked_masked >= 10
    assert elapsed < 10.0


def _compress_matches_oracle(frames, config) -> list[str]:
    """Assert that reference_compress stores exactly what the oracle
    simulation stores; returns the oracle's kind of each input frame."""
    kept, records = reference_compress(frames, config)
    simulated = simulate_compress(frames, config)
    expected = [(data, record) for kind, data, record in simulated if kind != "drop"]
    got = [
        (frame.data, (r.input_frame, r.output_frame, int(r.full_frame)))
        for frame, r in zip(kept, records, strict=True)
    ]
    assert got == expected
    return [kind for kind, _, _ in simulated]


@pytest.mark.parametrize("factor", (1, 2, 3, 4, 6))
def test_mask_correctness_at_each_factor(factor):
    """reference_compress equals the oracle simulation at every grid factor
    on all three pixel formats, on frame sizes the factor does not divide
    (4:2:0 sizes stay even)."""
    config = MotionConfig(threshold=20, downscale=factor, buffer_radius=1,
                          keyframe_interval=4, min_motion_pixels=1)
    for pixel_format, width, height in (
        (PixelFormat.GRAY8, 37, 23),
        (PixelFormat.YUV444, 29, 19),
        (PixelFormat.YUV420, 38, 26),
    ):
        frames = moving_square_video(
            width, height, 12, pixel_format, size=7, step=3
        )
        assert "masked" in _compress_matches_oracle(frames, config), pixel_format


# Where a round of _bound_clip starts, and the offsets within it of the
# frames whose grid change only rounding decides.
_ROUND, _ROUNDED = 10, (7, 9)


def _bound_clip(width, height, factor, threshold, pixel_format, rng):
    """Frames whose luma steps by exactly the threshold or by one more.

    After a kept first frame and a drop, each round of _ROUND frames gives:
    - a drop whose pixels all move by -t, 0 or +t, and the step back;
    - one grid tile moving by +-(t+1), which must be kept although it
      follows a drop, then a second tile moving while the first moves
      back, a repeat, and the step back;
    - a repeat, then a tile whose pixels move by t or t+1 with one sign,
      elsewhere by -t, 0 or +t, so that only the half-up rounding of its
      mean decides between a grid change of t and of t+1; a repeat; and
      the step back, which rounding decides again.
    """
    t = threshold
    base = rng.integers(t + 1, 255 - t, (height, width))
    still = np.zeros_like(base)
    rows, cols = -(-height // factor), -(-width // factor)

    def tile():
        y, x = int(rng.integers(rows)) * factor, int(rng.integers(cols)) * factor
        return slice(y, y + factor), slice(x, x + factor)

    def jitter():
        return rng.choice((-t, 0, t), base.shape)

    def step():
        moved = still.copy()
        moved[tile()] = rng.choice((-1, 1)) * (t + 1)
        return moved

    offsets = [still, still]
    for _ in range(4):
        first, second = step(), step()
        rounded = jitter()
        cell = tile()
        pixels = rounded[cell].size
        moved = np.full(pixels, t)
        moved[rng.permutation(pixels)[: max(1, int(rng.integers(pixels)))]] += 1
        rounded[cell] = rng.choice((-1, 1)) * moved.reshape(rounded[cell].shape)
        offsets += [jitter(), still, first, second, second, still, still,
                    rounded, rounded, still]
    return [
        frame_from_luma((base + offset).astype(np.uint8), pixel_format, i)
        for i, offset in enumerate(offsets)
    ]


@pytest.mark.parametrize("factor", range(1, 7))
def test_still_drop_check_matches_oracle_at_the_bound(factor):
    """A frame that follows a drop is dropped on a per-pixel comparison
    exactly when the grid comparison drops it.  reference_compress equals
    the oracle simulation, and run_pipeline at capacities 1 and 64 equals
    reference_compress, where pixels move by exactly +-t, by +-(t+1) over
    a whole tile, and by t or t+1 within a tile whose rounding decides, on
    all three pixel formats and on sizes the factor does not divide."""
    rng = np.random.default_rng(factor)
    decided = []
    for pixel_format, width, height in (
        (PixelFormat.GRAY8, 37, 23),
        (PixelFormat.YUV444, 29, 19),
        (PixelFormat.YUV420, 38, 26),
    ):
        for threshold in (1, 25, 63):
            config = MotionConfig(
                threshold=threshold, downscale=factor,
                buffer_radius=int(rng.integers(0, 3)), keyframe_interval=3,
                min_motion_pixels=1,
            )
            frames = _bound_clip(width, height, factor, threshold, pixel_format, rng)
            kinds = _compress_matches_oracle(frames, config)
            assert "masked" in kinds
            decided += [kinds[i + j] for i in range(2, len(kinds), _ROUND)
                        for j in _ROUNDED]
            header = StreamHeader(width, height, 30, 1, pixel_format)
            want = _render_single_pass(header, frames, config)
            for capacity in (1, 64):
                assert _render_pipeline(header, frames, config, capacity) == want
    # A 1x1 tile has no pixel that moves by t alone, so it is always kept;
    # a larger one is kept or dropped as its rounding falls.
    assert "drop" in decided or factor == 1
    assert set(decided) != {"drop"}


@pytest.mark.parametrize("factor", range(1, 7))
def test_still_check_waits_match_oracle(factor):
    """Outcomes do not depend on which drops the still check sits out.
    Over a long clip whose stills alternate between spells of noise that
    puts single pixels past the threshold (so the check is wasted and
    waits), spells within it (so the check passes), and short bursts of
    motion, reference_compress equals the oracle simulation and
    run_pipeline at capacities 1 and 64 equals reference_compress."""
    rng = np.random.default_rng(100 + factor)
    t = 25
    for pixel_format, width, height in (
        (PixelFormat.GRAY8, 77, 53),
        (PixelFormat.YUV420, 78, 56),
    ):
        # A spiked frame changes at most four cells, 36 once dilated, so it
        # is dropped at every factor; a box covers 5 x 5 whole tiles.
        config = MotionConfig(threshold=t, downscale=factor, buffer_radius=1,
                              keyframe_interval=4, min_motion_pixels=40)
        base = rng.integers(t + 1, 255 - t - factor, (height, width))
        offsets = [np.zeros_like(base)]
        for _ in range(4):
            for _ in range(int(rng.integers(3, 24))):
                # Two pixels t+1 to t+factor above the base, elsewhere at it.
                spiked = np.zeros_like(base)
                spots = rng.integers(0, base.size, 2)
                spiked.flat[spots] = rng.integers(t + 1, t + factor + 1, 2)
                offsets.append(spiked)
            for _ in range(int(rng.integers(3, 24))):
                offsets.append(rng.integers(0, t // 2, base.shape))
            for _ in range(int(rng.integers(0, 4))):
                moved = np.zeros_like(base)
                edge = 6 * factor
                y = rng.integers(0, height - edge)
                x = rng.integers(0, width - edge)
                moved[y : y + edge, x : x + edge] = 2 * t
                offsets.append(moved)
        frames = [
            frame_from_luma((base + offset).astype(np.uint8), pixel_format, i)
            for i, offset in enumerate(offsets)
        ]
        kinds = _compress_matches_oracle(frames, config)
        assert kinds.count("drop") > len(kinds) // 2
        assert "masked" in kinds
        header = StreamHeader(width, height, 30, 1, pixel_format)
        want = _render_single_pass(header, frames, config)
        for capacity in (1, 64):
            assert _render_pipeline(header, frames, config, capacity) == want


@pytest.mark.parametrize("keyframe_interval", range(1, 9))
def test_keyframe_cadence_matches_oracle(keyframe_interval):
    """reference_compress equals the oracle simulation at each keyframe
    interval, on a clip whose motion runs are cut by still frames and on
    random videos and configurations."""
    config = MotionConfig(threshold=20, downscale=2, buffer_radius=1,
                          keyframe_interval=keyframe_interval,
                          min_motion_pixels=1)
    patterns = moving_square_luma(24, 16, 12, size=5, step=2)
    # A repeated pattern is a still frame: it drops and ends the run, and
    # the next moving frame opens a new one.
    order = [0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 9, 9, 10, 11, 11]
    frames = [
        frame_from_luma(patterns[p], PixelFormat.YUV420, i)
        for i, p in enumerate(order)
    ]
    kinds = _compress_matches_oracle(frames, config)
    assert ("masked" in kinds) == (keyframe_interval > 1)

    rng = np.random.default_rng(keyframe_interval)
    for _ in range(3):
        _, frames = random_video(int(rng.integers(0, 2**31)), 24, 24)
        config = MotionConfig(
            threshold=int(rng.integers(1, 61)),
            downscale=int(rng.integers(1, 5)),
            buffer_radius=int(rng.integers(0, 4)),
            keyframe_interval=keyframe_interval,
            min_motion_pixels=int(rng.integers(1, 31)),
        )
        _compress_matches_oracle(frames, config)


def test_masking_builds_no_full_resolution_mask(monkeypatch):
    """At an even factor the stored frames are masked from the analysis
    grid: with upscale_mask made to fail, a 4:2:0 clip still compresses to
    the oracle's bytes."""

    def refuse(*args, **kwargs):
        raise AssertionError("upscale_mask called while compressing")

    monkeypatch.setattr(motion_core, "upscale_mask", refuse)
    config = MotionConfig(threshold=20, downscale=2, buffer_radius=1,
                          keyframe_interval=100, min_motion_pixels=1)
    frames = moving_square_video(48, 32, 20, pixel_format=PixelFormat.YUV420)
    assert _compress_matches_oracle(frames, config).count("masked") >= 10


def test_reconstruction_identities():
    """At zero motion pixels the reference shows through exactly; where
    the motion frame equals the reference the output equals both; the
    rebuild never falls below the motion frame."""
    start = time.monotonic()
    config = MotionConfig(threshold=20, downscale=2, buffer_radius=1,
                          keyframe_interval=100, min_motion_pixels=1)
    zero_pixels = identical_pixels = total_pixels = 0
    masked_count = 0
    for pixel_format in (PixelFormat.GRAY8, PixelFormat.YUV420):
        frames = moving_square_video(48, 32, 20, pixel_format=pixel_format)
        kept, records = reference_compress(frames, config)
        reference = None
        for item, frame, record in zip(
            reconstruct_stream(kept, records), kept, records
        ):
            motion = to_grayscale(frame).astype(int)
            rebuilt = item.restored.astype(int)
            if record.full_frame:
                reference = motion
                continue
            masked_count += 1
            blank = motion == 0
            same = motion == reference
            assert (rebuilt[blank] == reference[blank]).all()
            assert (rebuilt[same] == reference[same]).all()
            assert (rebuilt >= motion).all()
            assert np.array_equal(
                rebuilt,
                rec_frame(
                    env_frame(reference.astype(np.uint8),
                              motion.astype(np.uint8)),
                    motion.astype(np.uint8),
                ),
            )
            zero_pixels += int(blank.sum())
            identical_pixels += int(same.sum())
            total_pixels += motion.size
    elapsed = time.monotonic() - start
    ok = (
        masked_count >= 10
        and zero_pixels > 0
        and identical_pixels > 0
        and elapsed < 10.0
    )
    report(
        "reconstruction_identities", ok,
        f"{masked_count} masked frames, {zero_pixels} zero px, "
        f"{identical_pixels} identical px, {elapsed:.1f} s",
    )
    assert masked_count >= 10
    assert zero_pixels > 0 and identical_pixels > 0
    assert elapsed < 10.0


# 1000 frames at 1280x720 with three 100-frame motion runs; the square
# covers ~5% of the scene and advances two pixels per motion frame, so
# its leading edge always lands on an analysis-grid boundary.  Both the
# background and the square carry static texture: texture is what makes
# full frames expensive and zeroed regions cheap for the encoder, the
# same asymmetry real footage has.  The square's texture rides along
# with it and is coarse (one value per 2x2 cell) with amplitude above
# the detection threshold, so its interior registers as motion instead
# of sliding through undetected.
_RUNS = ((100, 200), (400, 500), (700, 800))


def _motion_steps(index: int) -> int:
    steps = 0
    for lo, hi in _RUNS:
        if index >= hi:
            steps += hi - lo
        elif index > lo:
            steps += index - lo
    return steps


def _analogue_frame(index: int, base: np.ndarray,
                    square: np.ndarray) -> np.ndarray:
    arr = base.copy()
    left = 50 + 2 * _motion_steps(index)
    arr[240:454, left:left + 214] = square
    return arr


def _write_y4m_gz(path, header, frame_arrays):
    with gzip.open(path, "wb", compresslevel=1) as gz:
        writer = Y4MWriter(gz, header)
        for index, arr in enumerate(frame_arrays):
            writer.write_frame(
                Frame(index, header.width, header.height, header.pixel_format,
                      arr.tobytes())
            )


@pytest.fixture(scope="session")
def analogue_fixture(tmp_path_factory):
    path = os.path.join(
        tmp_path_factory.mktemp("analogue"), "field.y4m.gz"
    )
    header = StreamHeader(1280, 720, 30, 1, PixelFormat.GRAY8)
    rng = np.random.default_rng(42)
    rows = (40 + np.arange(720) * 120 // 720).astype(np.uint8)
    base = np.repeat(rows[:, None], 1280, axis=1)
    base += rng.integers(0, 2, base.shape).astype(np.uint8) * 3
    square = np.repeat(
        np.repeat(rng.integers(170, 231, (107, 107)), 2, axis=0), 2, axis=1
    ).astype(np.uint8)
    _write_y4m_gz(
        path, header,
        (_analogue_frame(i, base, square) for i in range(1000)),
    )
    return path


def test_compression_analogue(analogue_fixture, tmp_path):
    """Motion in 30% of frames over ~5% of pixels: the encoded output
    must shed at least 80% of the input file size, and file-size
    reduction must exceed frame-count reduction."""
    start = time.monotonic()
    prefix = os.path.join(tmp_path, "analogue")
    stats_path = os.path.join(tmp_path, "analogue.json")
    code = cli_main(
        ["compress", "--input", analogue_fixture, "--output", prefix,
         "--buffer", "2",
         "--decode-cmd", GZ_DECODE, "--encode-cmd", GZ_ENCODE,
         "--stats-json", stats_path]
    )
    assert code == 0
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    frame_red = stats["frame_reduction_pct"]
    size_red = stats["size_reduction_pct"]
    elapsed = time.monotonic() - start
    ok = (
        stats["frames_in"] == 1000
        and size_red is not None
        and size_red >= 80.0
        and size_red > frame_red
        and elapsed < 180.0
    )
    report(
        "compression_analogue", ok,
        f"frames {stats['frames_in']}->{stats['frames_out']}, "
        f"frame reduction {frame_red:.2f}%, size reduction {size_red:.2f}%, "
        f"{elapsed:.1f} s",
    )
    assert stats["frames_in"] == 1000
    assert stats["frames_out"] == 301
    assert size_red is not None and size_red >= 80.0
    assert size_red > frame_red
    assert elapsed < 180.0


@pytest.fixture(scope="session")
def throughput_fixture(tmp_path_factory):
    path = os.path.join(tmp_path_factory.mktemp("throughput"), "hd.y4m.gz")
    header = StreamHeader(1920, 1080, 30, 1, PixelFormat.YUV420)
    rows = (30 + np.arange(1080) * 90 // 1080).astype(np.uint8)
    luma = np.repeat(rows[:, None], 1920, axis=1)
    chroma = np.full((1080 // 2) * (1920 // 2) * 2, 128, np.uint8)
    still = luma.tobytes() + chroma.tobytes()
    moved = luma.copy()
    moved[100:300, 100:300] = 250
    burst = moved.tobytes() + chroma.tobytes()

    with gzip.open(path, "wb", compresslevel=1) as gz:
        writer = Y4MWriter(gz, header)
        for index in range(900):
            # a short burst keeps the writer stage honest without
            # changing the workload's mostly-static character
            payload = burst if 450 <= index < 460 and index % 2 else still
            writer.write_frame(
                Frame(index, 1920, 1080, PixelFormat.YUV420, payload)
            )
    return path


def test_throughput_smoke(throughput_fixture, tmp_path):
    """Benchmark must sustain at least 20 fps on a 1080p 900-frame
    stream; measured speed is reported either way."""
    stats_path = os.path.join(tmp_path, "bench.json")
    code = cli_main(
        ["bench", "--input", throughput_fixture, "--replicates", "1",
         "--decode-cmd", GZ_DECODE, "--stats-json", stats_path]
    )
    assert code == 0
    with open(stats_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    fps = bench["fps"]
    ok = bench["frames"] == 900 and fps >= 20.0
    report("throughput_smoke", ok,
           f"{fps:.1f} fps over {bench['frames']} frames")
    assert bench["frames"] == 900
    assert fps >= 20.0, f"measured {fps:.1f} fps"


def test_format_round_trips():
    """Parse/serialize identity for stream headers and sidecar rows on
    200 randomized cases each."""
    start = time.monotonic()
    rng = np.random.default_rng(711)
    formats = list(PixelFormat)
    extras_pool = ("Ip", "A1:1", "XCOLORRANGE=FULL", "XNOTE=x")

    for _ in range(200):
        pixel_format = formats[int(rng.integers(0, len(formats)))]
        width = int(rng.integers(1, 65))
        height = int(rng.integers(1, 65))
        if pixel_format is PixelFormat.YUV420:
            width += width % 2
            height += height % 2
        n_extra = int(rng.integers(0, 3))
        extras = tuple(
            extras_pool[int(rng.integers(0, len(extras_pool)))]
            for _ in range(n_extra)
        )
        header = StreamHeader(
            width, height, int(rng.integers(1, 121)), int(rng.integers(1, 4)),
            pixel_format, extras,
        )
        serialized = serialize_y4m_header(header)
        assert parse_y4m_header(io.BytesIO(serialized)) == header

        count = int(rng.integers(0, 4))
        frames = [
            Frame(i, width, height, pixel_format,
                  rng.integers(0, 256, pixel_format.frame_size(width, height),
                               np.uint8).tobytes())
            for i in range(count)
        ]
        blob = frames_to_y4m(header, frames)
        reader = Y4MReader(io.BytesIO(blob))
        assert reader.header == header
        got = list(reader)
        assert [f.data for f in got] == [f.data for f in frames]

    for _ in range(200):
        count = int(rng.integers(0, 30))
        records = []
        position = 0
        for out_index in range(count):
            position += int(rng.integers(1, 9))
            records.append(
                SidecarRecord(position, out_index, bool(rng.integers(0, 2)))
            )
        sink = io.StringIO()
        write_sidecar(records, sink)
        assert read_sidecar(io.StringIO(sink.getvalue())) == records

    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    report("format_round_trips", ok, f"200 + 200 cases, {elapsed:.1f} s")
    assert elapsed < 30.0
