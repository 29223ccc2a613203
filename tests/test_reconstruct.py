import io
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from motionsieve import (
    MissingReference,
    MotionConfig,
    PixelFormat,
    SidecarMismatch,
    SidecarRecord,
    StreamHeader,
    Y4MReader,
    reconstruct_files,
    reconstruct_stream,
    reference_compress,
)
from motionsieve.motion_core import to_grayscale
from motionsieve.reconstruct import env_frame, rec_frame
from synth import gray_frame, moving_square_video

luma_arrays = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)
)


def test_env_frame_values():
    ref = np.array([[100, 7]], np.uint8)
    mot = np.array([[180, 7]], np.uint8)
    assert env_frame(ref, mot).tolist() == [[80, 0]]


def test_env_frame_shape_mismatch():
    from motionsieve import DimensionMismatch

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
    header, kept, records = compressed_fixture(PixelFormat.RGB24)
    for item, frame in zip(reconstruct_stream(kept, records), kept):
        assert item.color.data == frame.data
        assert item.color.pixel_format is PixelFormat.RGB24


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
