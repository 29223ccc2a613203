import gzip
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from motionsieve import PixelFormat, StreamHeader, Y4MReader, cli, read_sidecar
from synth import frames_to_y4m, gray_frame, moving_square_video

GZ_DECODE = f"{shlex.quote(sys.executable)} -m motionsieve.gzcodec decode {{input}}"
GZ_ENCODE = f"{shlex.quote(sys.executable)} -m motionsieve.gzcodec encode {{output}}"


def run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def write_static_y4m(path, count=30, value=60, width=32, height=24):
    header = StreamHeader(width, height, 30, 1, PixelFormat.GRAY8)
    arr = np.full((height, width), value, np.uint8)
    frames = [gray_frame(arr, i) for i in range(count)]
    with open(path, "wb") as fh:
        fh.write(frames_to_y4m(header, frames))
    return header, frames


def write_square_y4m(path, count=12, width=40, height=32):
    header = StreamHeader(width, height, 30, 1, PixelFormat.GRAY8)
    frames = moving_square_video(width, height, count)
    with open(path, "wb") as fh:
        fh.write(frames_to_y4m(header, frames))
    return header, frames


def test_compress_static_video(tmp_path):
    src = os.path.join(tmp_path, "still.y4m")
    write_static_y4m(src, count=40)
    prefix = os.path.join(tmp_path, "out")
    code, out, err = run_cli(["compress", "--input", src, "--output", prefix])
    assert code == 0, err
    assert err == ""
    assert "frames in:       40" in out
    assert "frames out:      1" in out
    assert "frame reduction: 97.50%" in out
    with open(prefix + ".y4m", "rb") as fh:
        reader = Y4MReader(fh)
        kept = list(reader)
    assert len(kept) == 1
    with open(prefix + ".csv", encoding="utf-8") as fh:
        assert fh.read() == "input_frame,output_frame,full_frame\n0,0,1\n"
    assert not os.path.exists(prefix + ".y4m.partial")
    assert not os.path.exists(prefix + ".csv.partial")


def test_compress_emits_stats_json(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "out")
    dest = os.path.join(tmp_path, "stats.json")
    code, out, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1", "--stats-json", dest]
    )
    assert code == 0, err
    with open(dest, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["frames_in"] == 12
    assert payload["frames_out"] == 12
    assert payload["bytes_in"] == os.path.getsize(src)
    assert payload["bytes_out"] == (
        os.path.getsize(prefix + ".y4m") + os.path.getsize(prefix + ".csv")
    )


def test_compress_config_file_and_flag_precedence(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src, count=10)
    config_path = os.path.join(tmp_path, "motion.conf")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(
            "# analysis settings\n"
            "threshold = 200\n"
            "min_motion_pixels = 1\n"
        )
    prefix_low = os.path.join(tmp_path, "low")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix_low,
         "--config", config_path]
    )
    assert code == 0, err
    # threshold 200 exceeds the square brightness, so everything drops
    # after the first frame
    with open(prefix_low + ".csv", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 2

    prefix_hi = os.path.join(tmp_path, "hi")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix_hi,
         "--config", config_path, "--threshold", "20"]
    )
    assert code == 0, err
    with open(prefix_hi + ".csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    assert len(rows) == 11  # header + every frame kept


def test_compress_rejects_bad_threshold(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    code, out, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o"),
         "--threshold", "0"]
    )
    assert code == 2
    assert err.startswith("error: InvalidArgument:")


def test_compress_rejects_unknown_config_key(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    config_path = os.path.join(tmp_path, "bad.conf")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write("thresold = 25\n")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o"),
         "--config", config_path]
    )
    assert code == 2
    assert "thresold" in err


def test_compress_missing_input(tmp_path):
    code, _, err = run_cli(
        ["compress", "--input", os.path.join(tmp_path, "nope.y4m"),
         "--output", os.path.join(tmp_path, "o")]
    )
    assert code == 2
    assert "error: InvalidArgument:" in err


def test_compress_malformed_header(tmp_path):
    src = os.path.join(tmp_path, "broken.y4m")
    with open(src, "wb") as fh:
        fh.write(b"JUNK stream\n")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o")]
    )
    assert code == 1
    assert err.startswith("error: MalformedHeader:")


def test_compress_truncated_stream_leaves_partials(tmp_path):
    src = os.path.join(tmp_path, "cut.y4m")
    header, frames = write_square_y4m(src)
    with open(src, "rb") as fh:
        blob = fh.read()
    with open(src, "wb") as fh:
        fh.write(blob[: len(blob) - 100])
    prefix = os.path.join(tmp_path, "out")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1"]
    )
    assert code == 1
    assert "StageFailure" in err
    assert "TruncatedFrame" in err
    assert os.path.exists(prefix + ".y4m.partial")
    assert not os.path.exists(prefix + ".y4m")


def test_compress_raw_input_requires_size(tmp_path):
    src = os.path.join(tmp_path, "frames.raw")
    arr = np.full((16, 16), 9, np.uint8)
    with open(src, "wb") as fh:
        for _ in range(4):
            fh.write(arr.tobytes())
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o"),
         "--raw-format", "gray8"]
    )
    assert code == 2

    prefix = os.path.join(tmp_path, "out")
    code, out, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--raw-format", "gray8", "--size", "16x16", "--fps", "12:1"]
    )
    assert code == 0, err
    with open(prefix + ".y4m", "rb") as fh:
        reader = Y4MReader(fh)
        assert reader.header.width == 16
        assert (reader.header.fps_num, reader.header.fps_den) == (12, 1)
        assert len(list(reader)) == 1


def test_compress_decode_and_encode_commands(tmp_path):
    plain = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(plain)
    packed = os.path.join(tmp_path, "sq.y4m.gz")
    with open(plain, "rb") as fh:
        with gzip.open(packed, "wb") as gz:
            gz.write(fh.read())

    direct = os.path.join(tmp_path, "direct")
    code, _, err = run_cli(
        ["compress", "--input", plain, "--output", direct,
         "--min-motion-pixels", "1"]
    )
    assert code == 0, err

    adapted = os.path.join(tmp_path, "adapted")
    code, out, err = run_cli(
        ["compress", "--input", packed, "--output", adapted,
         "--min-motion-pixels", "1",
         "--decode-cmd", GZ_DECODE, "--encode-cmd", GZ_ENCODE]
    )
    assert code == 0, err
    assert os.path.exists(adapted + ".enc")
    assert "video:" in out and ".enc" in out
    with gzip.open(adapted + ".enc", "rb") as gz:
        encoded_bytes = gz.read()
    with open(direct + ".y4m", "rb") as fh:
        assert encoded_bytes == fh.read()
    with open(direct + ".csv", encoding="utf-8") as a:
        with open(adapted + ".csv", encoding="utf-8") as b:
            assert a.read() == b.read()


def test_compress_decode_cmd_spawn_failure(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o"),
         "--decode-cmd", "definitely-not-a-real-binary {input}"]
    )
    assert code == 1
    assert err.startswith("error: SpawnFailure:")


def test_compress_template_without_placeholder(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o"),
         "--decode-cmd", "cat stream.y4m"]
    )
    assert code == 2
    assert "{input}" in err


def test_reconstruct_outputs(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1"]
    )
    assert code == 0, err
    rebuilt = os.path.join(tmp_path, "rebuilt")
    code, out, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m",
         "--sidecar", prefix + ".csv", "--output", rebuilt]
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines == [
        rebuilt + ".dl.y4m", rebuilt + ".fgbg.y4m", rebuilt + ".align.csv"
    ]
    for line in lines:
        assert os.path.exists(line)
    with open(rebuilt + ".align.csv", encoding="utf-8") as fh:
        align = fh.read().splitlines()
    with open(prefix + ".csv", encoding="utf-8") as fh:
        rows = read_sidecar(fh)
    assert align[0] == "position,input_frame"
    assert len(align) == 1 + len(rows)


def test_reconstruct_via_decode_cmd(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1", "--encode-cmd", GZ_ENCODE]
    )
    assert code == 0, err
    rebuilt = os.path.join(tmp_path, "rebuilt")
    code, out, err = run_cli(
        ["reconstruct", "--input", prefix + ".enc",
         "--sidecar", prefix + ".csv", "--output", rebuilt,
         "--decode-cmd", GZ_DECODE]
    )
    assert code == 0, err
    assert os.path.exists(rebuilt + ".fgbg.y4m")


def test_reconstruct_sidecar_mismatch(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    run_cli(["compress", "--input", src, "--output", prefix,
             "--min-motion-pixels", "1"])
    bad = os.path.join(tmp_path, "short.csv")
    with open(prefix + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(bad, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    code, _, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", bad,
         "--output", os.path.join(tmp_path, "r")]
    )
    assert code == 1
    assert err.startswith("error: SidecarMismatch:")


def test_stats_counts_mode(tmp_path):
    code, out, err = run_cli(
        ["stats", "--frames-in", "56664", "--frames-out", "14331"]
    )
    assert code == 0, err
    assert "74.71%" in out
    payload = json.loads(out.split("\n\n", 1)[1])
    assert payload["frame_reduction_pct"] == 74.71
    assert payload["bytes_in"] is None


def test_stats_counts_with_bytes(tmp_path):
    dest = os.path.join(tmp_path, "s.json")
    code, out, err = run_cli(
        ["stats", "--frames-in", "56664", "--frames-out", "14331",
         "--bytes-in", "10895.05", "--bytes-out", "266.02",
         "--stats-json", dest]
    )
    assert code == 0, err
    assert "97.56%" in out
    with open(dest, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["size_reduction_pct"] == 97.56


def test_stats_json_only_to_stdout():
    code, out, err = run_cli(
        ["stats", "--frames-in", "100", "--frames-out", "25",
         "--stats-json", "-"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["frame_reduction_pct"] == 75.0


def test_stats_counts_validation():
    code, _, err = run_cli(["stats", "--frames-in", "10"])
    assert code == 2
    code, _, err = run_cli(
        ["stats", "--frames-in", "10", "--frames-out", "11"]
    )
    assert code == 2
    code, _, err = run_cli(
        ["stats", "--frames-in", "10", "--frames-out", "2",
         "--bytes-in", "5.0"]
    )
    assert code == 2
    code, _, err = run_cli(["stats"])
    assert code == 2


def test_stats_zero_frames_in():
    code, _, err = run_cli(["stats", "--frames-in", "0", "--frames-out", "0"])
    assert code == 1
    assert err.startswith("error: ZeroInput:")


def test_stats_file_mode(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    run_cli(["compress", "--input", src, "--output", prefix])
    code, out, err = run_cli(
        ["stats", "--raw", src, "--processed", prefix + ".y4m",
         "--sidecar", prefix + ".csv", "--stats-json", "-"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["frames_in"] == 12
    assert payload["bytes_in"] == os.path.getsize(src)
    assert payload["bytes_out"] == (
        os.path.getsize(prefix + ".y4m") + os.path.getsize(prefix + ".csv")
    )


def test_stats_file_mode_sidecar_mismatch(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    run_cli(["compress", "--input", src, "--output", prefix,
             "--min-motion-pixels", "1"])
    other = os.path.join(tmp_path, "other.csv")
    with open(other, "w", encoding="utf-8") as fh:
        fh.write("input_frame,output_frame,full_frame\n0,0,1\n")
    code, _, err = run_cli(
        ["stats", "--raw", src, "--processed", prefix + ".y4m",
         "--sidecar", other]
    )
    assert code == 1
    assert err.startswith("error: SidecarMismatch:")


def test_stats_pixel_change(tmp_path):
    src = os.path.join(tmp_path, "blink.y4m")
    header = StreamHeader(16, 16, 30, 1, PixelFormat.GRAY8)
    frames = [
        gray_frame(np.full((16, 16), 255 if i % 2 else 0, np.uint8), i)
        for i in range(5)
    ]
    with open(src, "wb") as fh:
        fh.write(frames_to_y4m(header, frames))
    code, out, err = run_cli(
        ["stats", "--pixel-change", "--input", src, "--stats-json", "-"]
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["pixel_change_pct"]["mean"] == 100.0
    assert payload["pixel_change_pct"]["per_frame"] == [100.0] * 4


def test_stats_pixel_change_threshold_zero(tmp_path):
    src = os.path.join(tmp_path, "drift.y4m")
    header = StreamHeader(8, 8, 30, 1, PixelFormat.GRAY8)
    frames = [
        gray_frame(np.full((8, 8), 100 + i, np.uint8), i) for i in range(3)
    ]
    with open(src, "wb") as fh:
        fh.write(frames_to_y4m(header, frames))
    code, out, err = run_cli(
        ["stats", "--pixel-change", "--input", src, "--threshold", "0",
         "--stats-json", "-"]
    )
    assert code == 0, err
    assert json.loads(out)["pixel_change_pct"]["mean"] == 100.0
    code, _, err = run_cli(
        ["stats", "--pixel-change", "--input", src, "--threshold", "256"]
    )
    assert code == 2


def test_stats_pixel_change_requires_input():
    code, _, err = run_cli(["stats", "--pixel-change"])
    assert code == 2


def test_stats_pixel_change_single_frame(tmp_path):
    src = os.path.join(tmp_path, "one.y4m")
    write_static_y4m(src, count=1)
    code, _, err = run_cli(["stats", "--pixel-change", "--input", src])
    assert code == 1
    assert err.startswith("error: TooFewFrames:")


def test_bench_replicates(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src, count=20)
    dest = os.path.join(tmp_path, "bench.json")
    code, out, err = run_cli(
        ["bench", "--input", src, "--replicates", "3",
         "--min-motion-pixels", "1", "--stats-json", dest]
    )
    assert code == 0, err
    lines = out.splitlines()
    assert lines[0].startswith("replicate 1: ")
    assert lines[2].startswith("replicate 3: ")
    assert "over 3 replicates" in lines[3]
    assert lines[4].startswith("speed: ")
    with open(dest, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["replicates"] == 3
    assert len(payload["times_sec"]) == 3
    assert payload["frames"] == 20
    assert payload["fps"] == pytest.approx(20 / payload["mean_sec"])


def test_bench_rejects_bad_replicates(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    code, _, err = run_cli(["bench", "--input", src, "--replicates", "0"])
    assert code == 2
    code, _, err = run_cli(["bench", "--input", "-"])
    assert code == 2


def test_console_script_stdin_roundtrip(tmp_path):
    """The installed entry point reads Y4M on stdin with --input -."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "out")
    with open(src, "rb") as fh:
        blob = fh.read()
    proc = subprocess.run(
        [sys.executable, "-m", "motionsieve.cli", "compress", "--input", "-",
         "--output", prefix, "--min-motion-pixels", "1"],
        input=blob, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"frames in:       12" in proc.stdout
    assert os.path.exists(prefix + ".y4m")
    assert os.path.exists(prefix + ".csv")


def _replicate_labels(out):
    return [line.split(":")[0] for line in out.splitlines()
            if line.startswith("replicate ")]


def test_bench_through_codec_matches_plain(tmp_path):
    """bench over the gz decode/encode commands runs the same replicates
    over the same frames as over plain Y4M."""
    plain = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(plain, count=16)
    packed = os.path.join(tmp_path, "sq.y4m.gz")
    with open(plain, "rb") as fh:
        with gzip.open(packed, "wb") as gz:
            gz.write(fh.read())
    runs = {}
    for name, extra in (
        ("plain", ["--input", plain]),
        ("codec", ["--input", packed,
                   "--decode-cmd", GZ_DECODE, "--encode-cmd", GZ_ENCODE]),
    ):
        dest = os.path.join(tmp_path, f"{name}.json")
        code, out, err = run_cli(
            ["bench", "--replicates", "2", "--min-motion-pixels", "1",
             "--stats-json", dest, *extra]
        )
        assert code == 0, err
        with open(dest, encoding="utf-8") as fh:
            runs[name] = (_replicate_labels(out), json.load(fh)["frames"])
    assert runs["codec"] == runs["plain"]
    assert runs["plain"] == (["replicate 1", "replicate 2"], 16)


def test_compress_encode_template_without_placeholder(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "o")
    code, out, err = run_cli(
        ["compress", "--input", src, "--output", prefix, "--encode-cmd", "cat"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidArgument:")
    assert "{output}" in err
    assert sorted(os.listdir(tmp_path)) == ["sq.y4m"]


def test_reconstruct_template_without_placeholder(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1"]
    )
    assert code == 0, err
    rebuilt = os.path.join(tmp_path, "r")
    code, out, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m",
         "--sidecar", prefix + ".csv", "--output", rebuilt,
         "--decode-cmd", "cat x"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: InvalidArgument:")
    assert "{input}" in err
    assert not [name for name in os.listdir(tmp_path) if name.startswith("r.")]


def test_reconstruct_failure_leaves_partials(tmp_path):
    """A failed reconstruct leaves only *.partial files, like compress."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1"]
    )
    assert code == 0, err
    short = os.path.join(tmp_path, "short.csv")
    with open(prefix + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(short, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    rebuilt = os.path.join(tmp_path, "r")
    code, _, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", short,
         "--output", rebuilt]
    )
    assert code == 1
    assert err.startswith("error: SidecarMismatch:")
    for suffix in (".dl.y4m", ".fgbg.y4m", ".align.csv"):
        assert os.path.exists(rebuilt + suffix + ".partial")
        assert not os.path.exists(rebuilt + suffix)


def test_reconstruct_decoder_failure_after_stream_leaves_partials(tmp_path):
    """A decoder that emits the whole stream and then exits nonzero fails
    reconstruct before any output is renamed into place."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1"]
    )
    assert code == 0, err
    rebuilt = os.path.join(tmp_path, "r")
    code, out, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", prefix + ".csv",
         "--output", rebuilt,
         "--decode-cmd", "sh -c 'cat {input}; exit 3'"]
    )
    assert code == 1
    assert err.startswith("error: NonZeroExit:")
    assert out == ""
    for suffix in (".dl.y4m", ".fgbg.y4m", ".align.csv"):
        assert os.path.exists(rebuilt + suffix + ".partial")
        assert not os.path.exists(rebuilt + suffix)


def test_rejected_header_closes_input(tmp_path):
    """compress, bench and reconstruct close the input file when its Y4M
    header is rejected."""
    import gc
    import warnings

    src = os.path.join(tmp_path, "junk.y4m")
    with open(src, "wb") as fh:
        fh.write(b"JUNK stream\n")
    sidecar = os.path.join(tmp_path, "s.csv")
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write("input_frame,output_frame,full_frame\n0,0,1\n")
    out = os.path.join(tmp_path, "o")
    for args in (
        ["compress", "--input", src, "--output", out],
        ["bench", "--input", src, "--replicates", "1"],
        ["reconstruct", "--input", src, "--sidecar", sidecar, "--output", out],
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(args)
            gc.collect()
        assert code == 1
        assert err.startswith("error: MalformedHeader:")
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, (args[0], [str(w.message) for w in leaks])
