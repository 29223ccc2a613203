import io
import itertools
import os
import signal
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from motionsieve import (
    DimensionMismatch,
    MissingReference,
    MotionConfig,
    PixelFormat,
    SidecarMismatch,
    SidecarRecord,
    StreamHeader,
    Y4MReader,
    Y4MWriter,
    reconstruct_files,
    reconstruct_stream,
    reference_compress,
)
from motionsieve.motion_core import _BAND_BYTES, to_grayscale
from motionsieve.reconstruct import env_frame, rec_frame
from synth import gray_frame, moving_square_video, random_frame

luma_arrays = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)
)


def test_env_frame_values():
    ref = np.array([[100, 7]], np.uint8)
    mot = np.array([[180, 7]], np.uint8)
    assert env_frame(ref, mot).tolist() == [[80, 0]]


def test_env_frame_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        env_frame(np.zeros((2, 2), np.uint8), np.zeros((2, 3), np.uint8))


def test_rec_frame_saturates():
    env = np.array([[80, 200]], np.uint8)
    mot = np.array([[180, 200]], np.uint8)
    assert rec_frame(env, mot).tolist() == [[255, 255]]
    assert rec_frame(env, mot).dtype == np.uint8


def test_rec_frame_matches_widened_formula_on_every_pair():
    """All 256 x 256 uint8 pairs, contiguous and as strided views, against
    the uint16 sum capped at 255; the operands stay untouched."""
    values = np.arange(256, dtype=np.uint8)
    env, mot = np.meshgrid(values, values)
    for e, m in ((env, mot), (env.T, mot.T), (env[::-1, ::-1], mot[::-1, ::-1])):
        got = rec_frame(e, m)
        assert got.dtype == np.uint8
        assert np.array_equal(
            got, np.minimum(e.astype(np.uint16) + m.astype(np.uint16), 255)
        )
    assert np.array_equal(env, np.meshgrid(values, values)[0])
    assert np.array_equal(mot, np.meshgrid(values, values)[1])


@pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.float64])
def test_rec_frame_rejects_wider_dtypes(dtype):
    """The uint8 identity gives wrong values on wider dtypes, so those are
    refused rather than computed."""
    wide = np.array([[200, 300]], dtype)
    narrow = np.array([[100, 100]], np.uint8)
    for env, mot in ((wide, wide), (wide, narrow), (narrow, wide)):
        with pytest.raises(ValueError):
            rec_frame(env, mot)


@given(luma_arrays)
def test_zero_motion_recovers_reference(ref):
    """A blanked region carries no signal, so envelope + nothing must
    return the reference exactly."""
    mot = np.zeros_like(ref)
    assert np.array_equal(rec_frame(env_frame(ref, mot), mot), ref)


@given(luma_arrays)
def test_full_motion_recovers_reference(ref):
    assert np.array_equal(rec_frame(env_frame(ref, ref), ref), ref)


@given(luma_arrays, luma_arrays.map(lambda a: a))
def test_rebuild_never_darker_than_motion(ref, mot):
    if ref.shape != mot.shape:
        mot = np.resize(mot, ref.shape).astype(np.uint8)
    rec = rec_frame(env_frame(ref, mot), mot)
    assert (rec.astype(int) >= mot.astype(int)).all()


@given(luma_arrays, st.integers(0, 2**32 - 1))
def test_kernels_write_into_out_and_leave_operands(ref, seed):
    """Given ``out`` (and env_frame's ``scratch``), each kernel returns
    that very array, holding what it returns without them, and leaves its
    operands untouched."""
    mot = np.random.default_rng(seed).integers(0, 256, ref.shape, np.uint8)
    ref_before, mot_before = ref.copy(), mot.copy()
    env, scratch, rebuilt = np.empty((3,) + ref.shape, np.uint8)
    assert env_frame(ref, mot, env, scratch) is env
    assert np.array_equal(env, env_frame(ref, mot))
    env_before = env.copy()
    assert rec_frame(env, mot, rebuilt) is rebuilt
    assert np.array_equal(rebuilt, rec_frame(env, mot))
    for operand, before in ((ref, ref_before), (mot, mot_before),
                            (env, env_before)):
        assert np.array_equal(operand, before)


@pytest.mark.parametrize("pixel_format", list(PixelFormat))
@settings(max_examples=40, deadline=None)
@given(
    width=st.integers(1, 7),
    height=st.integers(1, 9),
    rows=st.integers(1, 3),
    slack=st.integers(0, 13),
    fulls=st.lists(st.booleans(), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(width=1, height=7, rows=2, slack=0, fulls=[False, True, False], seed=0)
@example(width=7, height=1, rows=3, slack=6, fulls=[False], seed=1)
def test_banded_rebuild_matches_whole_frame(
    pixel_format, width, height, rows, slack, fulls, seed
):
    """Rebuilt in bands of 1, 2 or 3 rows, which need not divide the
    height, every position equals the two kernels run on the whole frame."""
    if pixel_format is PixelFormat.YUV420:
        width, height = 2 * width, 2 * height
    rng = np.random.default_rng(seed)
    fulls = [True] + fulls
    frames = [random_frame(rng, width, height, pixel_format, i)
              for i in range(len(fulls))]
    records = [SidecarRecord(i, i, full) for i, full in enumerate(fulls)]
    band_bytes = rows * width + slack % width
    with mock.patch("motionsieve.motion_core._BAND_BYTES", band_bytes):
        got = [item.restored for item in reconstruct_stream(frames, records)]
    for frame, full, restored in zip(frames, fulls, got):
        gray = to_grayscale(frame)
        if full:
            reference = expected = gray
        else:
            expected = rec_frame(env_frame(reference, gray), gray)
        assert np.array_equal(restored, expected)


def test_masked_frame_of_another_size_is_named():
    """A masked frame whose size is not its reference's is refused before
    any band is rebuilt, with the frame's input index and both sizes."""
    frames = [gray_frame(np.zeros((4, 4), np.uint8), 0),
              gray_frame(np.zeros((6, 4), np.uint8), 1)]
    records = [SidecarRecord(3, 0, True), SidecarRecord(7, 1, False)]
    with pytest.raises(DimensionMismatch,
                       match="^frame 7 is 4x6, reference is 4x4$"):
        list(reconstruct_stream(frames, records))


def test_masked_rebuild_makes_no_frame_sized_temporary():
    """Rebuilding a masked 1080p YUV420 position allocates its output luma
    and, once per masked position, the two band buffers; the kernels run
    on the whole frame would hold two or three frame-sized temporaries."""
    width, height = 1920, 1080
    rng = np.random.default_rng(27)
    frames = [random_frame(rng, width, height, PixelFormat.YUV420, i)
              for i in range(2)]
    records = [SidecarRecord(0, 0, True), SidecarRecord(1, 1, False)]
    stream = reconstruct_stream(frames, records)
    next(stream)
    tracemalloc.start()
    try:
        masked = next(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not masked.is_full
    band = _BAND_BYTES // width * width
    assert peak <= width * height + 2 * band + 16 * 1024


def compressed_fixture(pixel_format=PixelFormat.GRAY8):
    header = StreamHeader(40, 32, 25, 1, pixel_format, extra_tags=("Ip",))
    frames = moving_square_video(40, 32, 12, pixel_format=pixel_format)
    config = MotionConfig(threshold=20, downscale=2, buffer_radius=1,
                          keyframe_interval=100, min_motion_pixels=1)
    kept, records = reference_compress(frames, config)
    assert len(kept) >= 3, "fixture must produce masked frames"
    return header, kept, records


def test_stream_pairs_rows_with_frames():
    header, kept, records = compressed_fixture()
    rebuilt = list(reconstruct_stream(kept, records))
    assert len(rebuilt) == len(records)
    for item, record, frame in zip(rebuilt, records, kept):
        assert item.input_index == record.input_frame
        assert item.is_full == record.full_frame
        assert item.color is frame
        assert item.restored.shape == (header.height, header.width)
        assert item.restored.dtype == np.uint8


def test_full_rows_restore_stored_luma():
    header, kept, records = compressed_fixture(PixelFormat.YUV420)
    for item, frame, record in zip(reconstruct_stream(kept, records), kept,
                                   records):
        if record.full_frame:
            assert np.array_equal(item.restored, to_grayscale(frame))


def test_masked_rows_apply_envelope_sum():
    header, kept, records = compressed_fixture()
    reference = None
    for item, frame, record in zip(reconstruct_stream(kept, records), kept,
                                   records):
        gray = to_grayscale(frame)
        if record.full_frame:
            reference = gray
        else:
            expected = rec_frame(env_frame(reference, gray), gray)
            assert np.array_equal(item.restored, expected)
            # blanked pixels carry zero, so the reference shows through there
            live = gray > 0
            blanked = ~live
            assert live.any() and blanked.any()
            assert np.array_equal(item.restored[blanked], reference[blanked])
            # live pixels can only brighten: |ref-mot|+mot >= mot
            assert (item.restored[live].astype(int) >= gray[live]).all()


def test_rebuilt_gray_frames_are_read_only():
    """A full row's restored frame is also the reference that the masked
    rows after it are rebuilt from, so no row's may be written into."""
    header, kept, records = compressed_fixture()
    seen = set()
    for item in reconstruct_stream(kept, records):
        with pytest.raises(ValueError):
            item.restored[...] = 0
        seen.add(item.is_full)
    assert seen == {True, False}


def test_masked_before_full_rejected():
    arr = np.full((8, 8), 9, np.uint8)
    frames = [gray_frame(arr, 0)]
    records = [SidecarRecord(0, 0, False)]
    with pytest.raises(MissingReference):
        list(reconstruct_stream(frames, records))


def test_more_frames_than_rows_rejected():
    arr = np.full((8, 8), 9, np.uint8)
    frames = [gray_frame(arr, 0), gray_frame(arr, 1)]
    records = [SidecarRecord(0, 0, True)]
    with pytest.raises(SidecarMismatch):
        list(reconstruct_stream(frames, records))


def test_more_rows_than_frames_rejected():
    arr = np.full((8, 8), 9, np.uint8)
    frames = [gray_frame(arr, 0)]
    records = [SidecarRecord(0, 0, True), SidecarRecord(4, 1, False)]
    with pytest.raises(SidecarMismatch):
        list(reconstruct_stream(frames, records))


def test_color_frames_pass_through_untouched():
    header, kept, records = compressed_fixture(PixelFormat.YUV444)
    for item, frame in zip(reconstruct_stream(kept, records), kept):
        assert item.color.data == frame.data
        assert item.color.pixel_format is PixelFormat.YUV444


def test_reconstruct_files_layout(tmp_path):
    header, kept, records = compressed_fixture(PixelFormat.YUV420)
    prefix = os.path.join(tmp_path, "cam3")
    paths = reconstruct_files(iter(kept), header, records, prefix)
    assert paths == (
        prefix + ".dl.y4m", prefix + ".fgbg.y4m", prefix + ".align.csv"
    )
    for path in paths:
        assert os.path.exists(path)

    with open(paths[0], "rb") as fh:
        reader = Y4MReader(fh)
        assert reader.header == header
        stored = list(reader)
    assert len(stored) == len(kept)
    assert all(a.data == b.data for a, b in zip(stored, kept))

    with open(paths[1], "rb") as fh:
        reader = Y4MReader(fh)
        mono = reader.header
        assert mono.pixel_format is PixelFormat.GRAY8
        assert (mono.width, mono.height) == (header.width, header.height)
        assert (mono.fps_num, mono.fps_den) == (header.fps_num, header.fps_den)
        assert mono.extra_tags == ()
        rebuilt = list(reader)
    assert len(rebuilt) == len(kept)
    expected = [item.restored for item in reconstruct_stream(kept, records)]
    for frame, plane in zip(rebuilt, expected):
        assert frame.data == plane.tobytes()

    with open(paths[2], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "position,input_frame"
    assert len(lines) == 1 + len(records)
    for position, (line, record) in enumerate(zip(lines[1:], records)):
        assert line == f"{position},{record.input_frame}"


def test_reconstruct_files_empty_stream(tmp_path):
    header = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
    prefix = os.path.join(tmp_path, "empty")
    paths = reconstruct_files(iter([]), header, [], prefix)
    with open(paths[1], "rb") as fh:
        reader = Y4MReader(fh)
        assert reader.read() is None
    with open(paths[2], encoding="utf-8") as fh:
        assert fh.read() == "position,input_frame\n"


def test_vanished_transient_rebuilds_reference_exactly():
    """When every live pixel is no brighter than the reference, the
    envelope sum lands back on the reference everywhere.

    A bright object appears then vanishes: the frame after the vanish is
    masked, its live pixels are dim background, and the rebuild must
    reproduce the reference frame pixel for pixel."""
    bg = np.full((32, 48), 50, np.uint8)
    with_object = bg.copy()
    with_object[10:20, 12:22] = 200
    frames = [
        gray_frame(bg, 0),
        gray_frame(with_object, 1),
        gray_frame(bg, 2),
        gray_frame(bg, 3),
    ]
    config = MotionConfig(threshold=20, downscale=2, buffer_radius=1,
                          keyframe_interval=100, min_motion_pixels=1)
    kept, records = reference_compress(frames, config)
    assert [(r.input_frame, r.full_frame) for r in records] == [
        (0, True), (1, True), (2, False)
    ]
    rebuilt = list(reconstruct_stream(kept, records))
    assert np.array_equal(rebuilt[2].restored, with_object)


def test_reconstruct_holds_at_most_two_positions(tmp_path, monkeypatch):
    """With a writer slower than the rebuild, the read side pulls a frame
    only once the queue has room for it: frames pulled minus positions
    written never exceeds two, the one being written and the one queued."""
    header, kept, records = compressed_fixture(PixelFormat.YUV420)
    pulled = written = 0
    ahead = []

    def counted():
        nonlocal pulled
        for frame in kept:
            pulled += 1
            ahead.append(pulled - written)
            yield frame

    write_frame = Y4MWriter.write_frame

    def slow_write_frame(self, frame):
        nonlocal written
        time.sleep(0.01)
        write_frame(self, frame)
        # The rebuilt gray frame is a position's second and last frame.
        if frame.pixel_format is PixelFormat.GRAY8:
            written += 1

    monkeypatch.setattr(Y4MWriter, "write_frame", slow_write_frame)
    reconstruct_files(counted(), header, records, str(tmp_path / "r"))
    assert written == len(kept)
    assert max(ahead) == 2


def test_ctrl_c_while_reconstructing_stops_both_threads(tmp_path):
    """A real SIGINT that lands while reconstruct_files rebuilds an endless
    stream propagates as KeyboardInterrupt, leaves only *.partial files
    and leaves no stage thread running."""
    header = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
    frame = gray_frame(np.full((16, 16), 7, np.uint8))
    quit_source = threading.Event()

    def endless():
        # The event only ends the stream once the test is over, so a run
        # that ignored the interrupt cannot outlive the test.
        while not quit_source.is_set():
            yield frame

    rows = itertools.chain(
        [SidecarRecord(0, 0, True)],
        (SidecarRecord(i, i, False) for i in itertools.count(1)),
    )

    def stage_threads():
        return [t.name for t in threading.enumerate()
                if t.name.startswith("motionsieve-") and t.is_alive()]

    timer = threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT))
    # pytest started with SIGINT ignored (a background job of a
    # non-interactive shell) would drop the signal and rebuild forever.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        timer.start()
        with pytest.raises(KeyboardInterrupt):
            reconstruct_files(endless(), header, rows, str(tmp_path / "r"))
        deadline = time.monotonic() + 1.0
        while stage_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert stage_threads() == []
        assert sorted(os.listdir(tmp_path)) == [
            "r.align.csv.partial", "r.dl.y4m.partial", "r.fgbg.y4m.partial"
        ]
    finally:
        timer.cancel()
        quit_source.set()
        signal.signal(signal.SIGINT, previous)
