import argparse
import functools
import gzip
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from motionsieve import (
    CompressionStats,
    MotionConfig,
    PixelFormat,
    SidecarRecord,
    StreamHeader,
    Y4MReader,
    cli,
    count_y4m_frames,
    read_sidecar,
    stats_json,
    write_sidecar,
)
from motionsieve.frame_io import _CodecChild, serialize_y4m_header
from synth import frames_to_y4m, gray_frame, moving_square_video, rising_box_yuv444

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


def test_compress_fsyncs_each_output_before_its_rename_then_the_folder(
    tmp_path, monkeypatch
):
    """A power cut soon after compress returns cannot leave a final name
    over data that never reached the disk: each *.partial is fsynced
    before its rename, and the folder after the last rename.  reconstruct,
    whose outputs can be rebuilt, fsyncs nothing."""
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        stat = os.fstat(fd)
        calls.append(("fsync", (stat.st_dev, stat.st_ino)))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", src, dst))
        real_replace(src, dst)

    def file_id(path):
        stat = os.stat(path)
        return stat.st_dev, stat.st_ino

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "out")
    code, _, err = run_cli(["compress", "--input", src, "--output", prefix])
    assert code == 0, err
    expected = []
    for final in (prefix + ".y4m", prefix + ".csv"):
        expected += [("fsync", file_id(final)), ("replace", final + ".partial", final)]
    assert calls == [*expected, ("fsync", file_id(tmp_path))]

    calls.clear()
    code, _, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", prefix + ".csv",
         "--output", os.path.join(tmp_path, "rec")]
    )
    assert code == 0, err
    assert [call[0] for call in calls] == ["replace"] * 3


def test_bench_fsyncs_nothing_and_compress_fsyncs_its_outputs(tmp_path, monkeypatch):
    """bench deletes each replicate's outputs, so it flushes none of them
    to the disk; compress flushes its two outputs and their folder."""
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    code, _, err = run_cli(["bench", "--input", src, "--replicates", "3"])
    assert code == 0, err
    assert calls == []
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "out")]
    )
    assert code == 0, err
    assert len(calls) == 3


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


# (config key, non-default value): every knob a config file can set to a
# number.  Each motion value changes the output of the clip below.
_KNOB_VALUES = (
    ("threshold", 100),
    ("downscale", 4),
    ("buffer", 1),
    ("keyframe_interval", 3),
    ("min_motion_pixels", 200),
)


@pytest.mark.parametrize(
    "spelling, value",
    sorted(
        {(spelling, value)
         for key, value in _KNOB_VALUES
         for spelling in (key, key.replace("_", "-"))}
    ),
)
def test_config_key_matches_flag(tmp_path, spelling, value):
    """A config-file key gives the same bytes as its flag, in either
    spelling."""
    src = os.path.join(tmp_path, "sq.y4m")
    header = StreamHeader(128, 96, 30, 1, PixelFormat.GRAY8)
    frames = moving_square_video(128, 96, 12, background=60, step=2)
    with open(src, "wb") as fh:
        fh.write(frames_to_y4m(header, frames))
    config_path = os.path.join(tmp_path, "knob.conf")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(f"{spelling} = {value}\n")
    flag = "--" + spelling.replace("_", "-")

    def outputs(name, extra):
        return _compressed_bytes(src, os.path.join(tmp_path, name), extra)

    from_file = outputs("file", ["--config", config_path])
    assert from_file == outputs("flag", [flag, str(value)])
    assert from_file != outputs("default", [])


def test_compress_with_a_buffer_past_the_grid_matches_one_that_covers_it(
    tmp_path,
):
    """A --buffer far past the analysis grid (32x24 here) grows a mask no
    further than one that already covers the grid, and must not pad the
    grid by the radius itself, which would take gigabytes."""
    src = os.path.join(tmp_path, "sq.y4m")
    header = StreamHeader(64, 48, 30, 1, PixelFormat.GRAY8)
    frames = moving_square_video(64, 48, 12, background=60, step=2)
    with open(src, "wb") as fh:
        fh.write(frames_to_y4m(header, frames))
    huge = _compressed_bytes(
        src, os.path.join(tmp_path, "huge"), ["--buffer", "1000000000"]
    )
    assert huge == _compressed_bytes(
        src, os.path.join(tmp_path, "covers"), ["--buffer", "32"]
    )


def _compressed_bytes(src, prefix, extra):
    """The bytes of the video and the sidecar that compress writes from
    ``src`` to ``prefix`` with the flags ``extra``."""
    code, _, err = run_cli(["compress", "--input", src, "--output", prefix] + extra)
    assert code == 0, err
    blobs = []
    for suffix in (".y4m", ".csv"):
        with open(prefix + suffix, "rb") as fh:
            blobs.append(fh.read())
    return blobs


@pytest.mark.parametrize("command", ["compress", "bench"])
def test_help_shows_motion_config_defaults(command):
    buffer = io.StringIO()
    with redirect_stdout(buffer), pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(buffer.getvalue().split())
    flags = {
        "buffer_radius": "buffer",
        "threshold": "threshold",
        "downscale": "downscale",
        "keyframe_interval": "keyframe-interval",
        "min_motion_pixels": "min-motion-pixels",
    }
    for field in fields(MotionConfig):
        flag = flags[field.name]
        entry = rf"--{flag} {flag.replace('-', '_').upper()} (?:(?!--).)*?"
        assert re.search(rf"{entry}\(default {field.default}\)", text), flag


# Every flag of each subcommand, and the required ones among them.
_SUBCOMMAND_OPTIONS = {
    "compress": (
        "--buffer --config --decode-cmd --downscale --encode-cmd --fps -h "
        "--help --input --keyframe-interval --min-motion-pixels --output "
        "--raw-format --size --stats-json --threshold",
        "--input --output",
    ),
    "reconstruct": (
        "--decode-cmd -h --help --input --output --sidecar",
        "--input --output --sidecar",
    ),
    "stats": (
        "--bytes-in --bytes-out --frames-in --frames-out -h --help --input "
        "--pixel-change --processed --raw --sidecar --stats-json --threshold",
        "",
    ),
    "bench": (
        "--buffer --config --decode-cmd --downscale --encode-cmd --fps -h "
        "--help --input --keyframe-interval --min-motion-pixels --raw-format "
        "--replicates --size --stats-json --threshold",
        "--input",
    ),
}


def test_subcommand_options_are_pinned():
    """Flags shared between subcommands reach exactly the subcommands that
    take them, and each subcommand keeps every flag it had."""
    parser = cli.build_parser()
    (commands,) = (action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == list(_SUBCOMMAND_OPTIONS)
    for name, sub in commands.items():
        options = sorted(o for a in sub._actions for o in a.option_strings)
        required = sorted(o for a in sub._actions if a.required
                          for o in a.option_strings)
        expected, expected_required = _SUBCOMMAND_OPTIONS[name]
        assert options == sorted(expected.split()), name
        assert required == sorted(expected_required.split()), name
    for name in ("compress", "bench"):
        settable = [a for a in commands[name]._actions
                    if a.option_strings and a.dest != "help"]
        assert len(settable) == 14, name


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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["compress", "--input", "x"],
        ["compress", "--input", "x", "--output", "o", "--threshold", "abc"],
        ["compress", "--input", "x", "--output", "o", "--no-such-flag"],
        ["stats", "--frames-in", "many", "--frames-out", "1"],
        ["compress", "--input", "x", "--output", "o", "--raw-format", "rgb24",
         "--size", "4x4"],
    ],
    ids=["no-command", "unknown-command", "missing-flag", "not-an-int",
         "unknown-flag", "stats-not-an-int", "removed-rgb24"],
)
def test_argument_errors_keep_the_error_contract(argv):
    """An argument error found while parsing the command line is one
    ``error: InvalidArgument:`` line and exit 2, not a usage block."""
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith("error: InvalidArgument: "), err


@pytest.mark.parametrize(
    "argv, config, detail",
    [
        (["compress", "--config", "{tmp}/none.conf"], None,
         "cannot read config file"),
        (["compress", "--config", "{tmp}"], None, "cannot read config file"),
        (["compress", "--config", "{tmp}/bad.conf"], "threshold 30\n",
         "expected key=value"),
        (["compress", "--raw-format", "gray8", "--size", "32-24"], None,
         "size must look like WxH"),
        (["compress", "--raw-format", "gray8", "--size", "32x24",
          "--decode-cmd", GZ_DECODE], None, "cannot be combined"),
        (["compress", "--input", "-", "--decode-cmd", GZ_DECODE], None,
         "needs a real input file"),
        (["stats", "--raw", "{src}"], None, "needs both --raw and --processed"),
        (["compress", "--config", "{tmp}/bad.conf"], "threshold = abc\n",
         "threshold must be an integer"),
        (["compress", "--raw-format", "gray8", "--size", "ax24"], None,
         "size must be an integer"),
        (["compress", "--raw-format", "yuv420", "--size", "31x24"], None,
         "yuv420 requires even width and height"),
        (["compress", "--raw-format", "gray8", "--size", "16x16", "--fps", "0"],
         None, "frame rate must be positive"),
        (["stats", "--frames-in", "10", "--frames-out", "5",
          "--bytes-in", "inf", "--bytes-out", "5"], None,
         "--bytes-in must be finite and >= 0"),
        (["stats", "--frames-in", "10", "--frames-out", "5",
          "--bytes-in", "nan", "--bytes-out", "5"], None,
         "--bytes-in must be finite and >= 0"),
        (["stats", "--frames-in", "10", "--frames-out", "5",
          "--bytes-in", "-3", "--bytes-out", "-5"], None,
         "--bytes-in must be finite and >= 0"),
        (["compress", "--decode-cmd", "cat '{input}"], None,
         "decode command template cannot be split: No closing quotation"),
        (["compress", "--encode-cmd", 'cat "{output}'], None,
         "encode command template cannot be split: No closing quotation"),
        (["compress", "--config", "{tmp}/bad.conf"], "decode_cmd = cat '{input}\n",
         "decode command template cannot be split: No closing quotation"),
        (["compress", "--config", "{tmp}/bad.conf"], 'encode_cmd = cat "{output}\n',
         "encode command template cannot be split: No closing quotation"),
        (["reconstruct", "--input", "{src}", "--sidecar", "{src}",
          "--output", "{tmp}/r", "--decode-cmd", "cat '{input}"], None,
         "decode command template cannot be split: No closing quotation"),
    ],
    ids=["config-missing", "config-directory", "config-without-equals",
         "bad-size", "raw-with-decode-cmd", "stdin-with-decode-cmd",
         "raw-without-processed", "config-not-an-int", "size-not-an-int",
         "odd-yuv420-size", "zero-fps", "bytes-in-inf", "bytes-in-nan",
         "bytes-negative", "unbalanced-decode-flag", "unbalanced-encode-flag",
         "unbalanced-decode-config", "unbalanced-encode-config",
         "reconstruct-unbalanced-decode-flag"],
)
def test_argument_errors_found_after_parsing(tmp_path, argv, config, detail):
    """Argument errors caught past argparse, in the config file, the input
    flags, the codec templates or the stats modes, keep the one-line
    contract and exit 2 before any output is made."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    if config is not None:
        with open(os.path.join(tmp_path, "bad.conf"), "w", encoding="utf-8") as fh:
            fh.write(config)
    before = sorted(os.listdir(tmp_path))
    argv = [arg.replace("{tmp}", str(tmp_path)).replace("{src}", src)
            for arg in argv]
    if argv[0] == "compress":
        if "--input" not in argv:
            argv += ["--input", src]
        argv += ["--output", os.path.join(tmp_path, "o")]
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith("error: InvalidArgument: "), err
    assert detail in err
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize(
    "input_name, extra",
    [
        ("still.y4m", []),
        ("still.csv", []),
        ("still.enc", ["--encode-cmd", GZ_ENCODE]),
        ("still.y4m.partial", []),
    ],
    ids=["video", "sidecar", "encoded-video", "video-partial"],
)
def test_compress_refuses_an_output_that_would_replace_its_input(
    tmp_path, input_name, extra
):
    """An output prefix whose video or sidecar path is the input file is an
    argument error found before any stream opens: the input keeps its
    bytes and no sidecar or *.partial file is left."""
    src = tmp_path / input_name
    write_static_y4m(src)
    before = src.read_bytes()
    argv = ["compress", "--input", str(src), "--output", str(tmp_path / "still")]
    code, out, err = run_cli(argv + extra)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith("error: InvalidArgument: "), err
    assert "would replace --input" in err
    assert src.read_bytes() == before
    assert os.listdir(tmp_path) == [input_name]


def test_compress_refuses_an_output_that_would_replace_its_stdin(tmp_path):
    """With --input -, an output path that is the file redirected to stdin
    is an argument error found before any stream opens: the footage keeps
    its bytes and nothing is written."""
    src = tmp_path / "clip.y4m"
    write_static_y4m(src)
    before = src.read_bytes()
    with open(src, "rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "motionsieve.cli", "compress", "--input", "-",
             "--output", str(tmp_path / "clip")],
            stdin=stdin, capture_output=True,
        )
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert proc.stdout == b""
    assert err.count("\n") == 1 and err.startswith("error: InvalidArgument: "), err
    assert "would replace --input -" in err
    assert src.read_bytes() == before
    assert os.listdir(tmp_path) == ["clip.y4m"]


def test_compress_refuses_an_output_that_would_replace_its_config(tmp_path):
    """An output path that is the --config file is an argument error found
    before any stream opens: the config keeps its bytes."""
    src = tmp_path / "clip.y4m"
    write_static_y4m(src)
    config = tmp_path / "cfg.csv"
    config.write_text("threshold = 20\n", encoding="utf-8")
    code, out, err = run_cli(
        ["compress", "--input", str(src), "--output", str(tmp_path / "cfg"),
         "--config", str(config)]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: InvalidArgument: "), err
    assert "would replace --config" in err
    assert config.read_text(encoding="utf-8") == "threshold = 20\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.csv", "clip.y4m"]


@pytest.mark.parametrize(
    "argv, replaced",
    [
        (["compress", "--input", "clip.y4m", "--output", "{tmp}/out",
          "--stats-json", "clip.y4m"], "--input"),
        (["compress", "--input", "clip.y4m", "--output", "{tmp}/out",
          "--stats-json", "out.y4m"], "output"),
        (["compress", "--input", "clip.y4m", "--output", "{tmp}/out",
          "--stats-json", "./out.csv"], "output"),
        (["compress", "--input", "clip.y4m", "--output", "out",
          "--stats-json", "{tmp}/out.y4m.partial"], "output"),
        (["compress", "--input", "clip.y4m", "--output", "out",
          "--config", "cfg.conf", "--stats-json", "cfg.conf"], "--config"),
        (["bench", "--input", "clip.y4m", "--replicates", "1",
          "--stats-json", "{tmp}/clip.y4m"], "--input"),
        (["bench", "--input", "clip.y4m", "--replicates", "1",
          "--config", "cfg.conf", "--stats-json", "cfg.conf"], "--config"),
        (["stats", "--raw", "clip.y4m", "--processed", "comp.y4m",
          "--stats-json", "clip.y4m"], "--raw"),
        (["stats", "--raw", "clip.y4m", "--processed", "comp.y4m",
          "--stats-json", "comp.y4m"], "--processed"),
        (["stats", "--raw", "clip.y4m", "--processed", "comp.y4m",
          "--sidecar", "comp.csv", "--stats-json", "comp.csv"], "--sidecar"),
        (["stats", "--pixel-change", "--input", "clip.y4m",
          "--stats-json", "clip.y4m"], "--input"),
    ],
    ids=["compress-input", "compress-video", "compress-sidecar",
         "compress-video-partial", "compress-config", "bench-input",
         "bench-config", "stats-raw", "stats-processed", "stats-sidecar",
         "pixel-change-input"],
)
def test_stats_json_refuses_to_replace_an_input_or_an_output(
    tmp_path, monkeypatch, argv, replaced
):
    """A --stats-json path that is one of the run's inputs, or one of its
    outputs or their *.partial files, named by any spelling of its path, is
    an argument error found before any stream opens: every file keeps its
    bytes and nothing is written."""
    monkeypatch.chdir(tmp_path)
    write_square_y4m(tmp_path / "clip.y4m")
    (tmp_path / "cfg.conf").write_text("threshold = 20\n", encoding="utf-8")
    code, _, err = run_cli(["compress", "--input", "clip.y4m", "--output", "comp"])
    assert code == 0, err
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    code, out, err = run_cli([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: InvalidArgument: "), err
    assert "--stats-json " in err and f" would replace {replaced} " in err, err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "input_name, sidecar_name, flag",
    [
        ("x.dl.y4m", "comp.csv", "--input"),
        ("x.fgbg.y4m", "comp.csv", "--input"),
        ("comp.y4m", "x.align.csv", "--sidecar"),
        ("x.dl.y4m.partial", "comp.csv", "--input"),
        ("comp.y4m", "x.align.csv.partial", "--sidecar"),
    ],
    ids=["color", "gray", "align", "color-partial", "align-partial"],
)
def test_reconstruct_refuses_an_output_that_would_replace_its_input(
    tmp_path, input_name, sidecar_name, flag
):
    """An output prefix whose .dl.y4m, .fgbg.y4m or .align.csv (or its
    *.partial) is the input video or the sidecar is an argument error found
    before any stream opens: both inputs keep their bytes and nothing is
    written."""
    _, prefix = _compressed_pair(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    os.replace(prefix + ".y4m", work / input_name)
    os.replace(prefix + ".csv", work / sidecar_name)
    before = {name: (work / name).read_bytes() for name in os.listdir(work)}
    code, out, err = run_cli(
        ["reconstruct", "--input", str(work / input_name),
         "--sidecar", str(work / sidecar_name), "--output", str(work / "x")]
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith("error: InvalidArgument: "), err
    assert f"would replace {flag}" in err
    assert {name: (work / name).read_bytes() for name in os.listdir(work)} == before


@pytest.mark.parametrize("quote", ["'", '"'])
def test_quoted_config_value_matches_flag(tmp_path, quote):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    config_path = os.path.join(tmp_path, "quoted.conf")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(f"threshold = {quote}30{quote}\n")

    def outputs(name, extra):
        prefix = os.path.join(tmp_path, name)
        code, _, err = run_cli(
            ["compress", "--input", src, "--output", prefix] + extra
        )
        assert code == 0, err
        blobs = []
        for suffix in (".y4m", ".csv"):
            with open(prefix + suffix, "rb") as fh:
                blobs.append(fh.read())
        return blobs

    assert outputs("file", ["--config", config_path]) == outputs(
        "flag", ["--threshold", "30"]
    )


@pytest.mark.parametrize("fps, tag", [(None, b"F30:1"), ("25", b"F25:1")])
def test_raw_input_frame_rate(tmp_path, fps, tag):
    """Raw input is 30 fps unless --fps says otherwise."""
    src = os.path.join(tmp_path, "frames.raw")
    with open(src, "wb") as fh:
        fh.write(bytes(16 * 16) * 3)
    prefix = os.path.join(tmp_path, "out")
    extra = [] if fps is None else ["--fps", fps]
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--raw-format", "gray8", "--size", "16x16"] + extra
    )
    assert code == 0, err
    with open(prefix + ".y4m", "rb") as fh:
        assert fh.readline() == b"YUV4MPEG2 W16 H16 " + tag + b" Cmono\n"


def test_raw_yuv444_compresses_like_its_c444_clip(tmp_path):
    """Raw --raw-format yuv444 payloads are read as the C444 clip that holds
    them, so both compress to the same bytes, motion frames included."""
    frames = rising_box_yuv444()
    c444 = os.path.join(tmp_path, "clip.y4m")
    raw = os.path.join(tmp_path, "clip.raw")
    with open(c444, "wb") as fh:
        fh.write(
            frames_to_y4m(StreamHeader(64, 48, 30, 1, PixelFormat.YUV444), frames)
        )
    with open(raw, "wb") as fh:
        fh.write(b"".join(frame.data for frame in frames))
    from_c444 = _compressed_bytes(c444, os.path.join(tmp_path, "y4m"), [])
    assert from_c444[1].count(b"\n") == 4
    assert from_c444 == _compressed_bytes(
        raw, os.path.join(tmp_path, "raw"),
        ["--raw-format", "yuv444", "--size", "64x48"],
    )


@pytest.mark.parametrize(
    "spelling", ["--queue-capacity", "queue_capacity", "queue-capacity"]
)
def test_removed_queue_capacity_is_rejected(tmp_path, spelling):
    """Queue depth is not a setting: the flag and both config spellings
    are refused as unknown, with one error line and exit 2."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    extra = [spelling, "2"]
    if not spelling.startswith("--"):
        config_path = os.path.join(tmp_path, "old.conf")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(f"{spelling} = 2\n")
        extra = ["--config", config_path]
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o")]
        + extra
    )
    assert code == 2
    assert err.count("\n") == 1, err
    assert err.startswith("error: InvalidArgument: "), err
    assert "queue" in err


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


@pytest.mark.parametrize("command", ["compress", "reconstruct", "stats"])
def test_a_non_ascii_header_tag_prints_one_malformed_header_line(
    tmp_path, command
):
    """A header tag holding a byte outside ASCII, which no Y4M header could
    carry on, fails where the header is read: one MalformedHeader line that
    names the tag, and every input keeps its bytes."""
    folder, out_dir = tmp_path / "in", tmp_path / "out"
    folder.mkdir()
    out_dir.mkdir()
    clip, sidecar = str(folder / "clip.y4m"), str(folder / "clip.csv")
    with open(clip, "wb") as fh:
        fh.write(b"YUV4MPEG2 W8 H6 F25:1 Cmono X\xe9\n" + b"FRAME\n" + bytes(48))
        fh.write((b"FRAME\n" + bytes([200]) * 48) * 3)
    with open(sidecar, "w", newline="") as fh:
        write_sidecar((SidecarRecord(i, i, i == 0) for i in range(4)), fh)
    inputs = {path: Path(path).read_bytes() for path in (clip, sidecar)}
    out = str(out_dir / "o")
    argv = {
        "compress": ["compress", "--input", clip, "--output", out],
        "reconstruct": ["reconstruct", "--input", clip, "--sidecar", sidecar,
                        "--output", out],
        "stats": ["stats", "--pixel-change", "--input", clip,
                  "--stats-json", out + ".json"],
    }[command]
    code, stdout, err = run_cli(argv)
    assert code == 1
    assert stdout == ""
    assert err == "error: MalformedHeader: tag b'X\\xe9' holds a non-ASCII byte\n"
    assert {path: Path(path).read_bytes() for path in inputs} == inputs
    assert all(name.endswith(".partial") for name in os.listdir(out_dir))


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
    assert err.startswith("error: TruncatedFrame:"), err
    assert os.path.exists(prefix + ".y4m.partial")
    assert not os.path.exists(prefix + ".y4m")


@pytest.mark.parametrize("command", ["compress", "reconstruct"])
def test_a_cut_short_payload_prints_one_line_from_either_command(
    tmp_path, command
):
    """A last frame payload cut 100 bytes short prints the same single
    line whichever command reads it, and leaves only *.partial outputs."""
    src = os.path.join(tmp_path, "clip.y4m")
    write_square_y4m(src, count=50, width=64, height=48)
    args = ["--min-motion-pixels", "1"]
    outputs = [".y4m", ".csv"]
    if command == "reconstruct":
        stored = os.path.join(tmp_path, "stored")
        code, _, err = run_cli(
            ["compress", "--input", src, "--output", stored, *args]
        )
        assert code == 0, err
        src, args = stored + ".y4m", ["--sidecar", stored + ".csv"]
        outputs = [".dl.y4m", ".fgbg.y4m", ".align.csv"]
    with open(src, "r+b") as fh:
        fh.truncate(os.path.getsize(src) - 100)
    folder = os.path.join(tmp_path, "out")
    os.mkdir(folder)
    code, out, err = run_cli(
        [command, "--input", src, "--output", os.path.join(folder, "o"), *args]
    )
    assert code == 1
    assert out == ""
    assert err == "error: TruncatedFrame: frame payload is 2972 of 3072 bytes\n"
    assert sorted(os.listdir(folder)) == sorted(
        "o" + suffix + ".partial" for suffix in outputs
    )


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


def test_stats_counts_mode_prints_file_mode_json(tmp_path):
    """Counts mode given the totals that file mode counted prints the same
    JSON, whole byte totals as integers included."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    code, _, err = run_cli(["compress", "--input", src, "--output", prefix])
    assert code == 0, err
    code, from_files, err = run_cli(
        ["stats", "--raw", src, "--processed", prefix + ".y4m",
         "--sidecar", prefix + ".csv", "--stats-json", "-"]
    )
    assert code == 0, err
    counted = json.loads(from_files)
    code, from_counts, err = run_cli(
        ["stats", "--stats-json", "-"]
        + [arg for key in ("frames_in", "frames_out", "bytes_in", "bytes_out")
           for arg in ("--" + key.replace("_", "-"), str(counted[key]))]
    )
    assert code == 0, err
    assert from_counts == from_files
    given = json.loads(from_counts)
    assert type(given["bytes_in"]) is type(given["bytes_out"]) is int


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


def _compressed_pair(tmp_path):
    """The square clip and the prefix of its compressed .y4m and .csv."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    prefix = os.path.join(tmp_path, "comp")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--min-motion-pixels", "1"]
    )
    assert code == 0, err
    return src, prefix


def _append_undecodable_row(path):
    with open(path, "ab") as fh:
        fh.write(b"\xff,0,1\n")


def test_reconstruct_undecodable_sidecar(tmp_path):
    _, prefix = _compressed_pair(tmp_path)
    _append_undecodable_row(prefix + ".csv")
    code, _, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", prefix + ".csv",
         "--output", os.path.join(tmp_path, "r")]
    )
    assert code == 1
    assert err == "error: MalformedRow: sidecar is not UTF-8 text\n"


def test_stats_undecodable_sidecar(tmp_path):
    src, prefix = _compressed_pair(tmp_path)
    _append_undecodable_row(prefix + ".csv")
    code, _, err = run_cli(
        ["stats", "--raw", src, "--processed", prefix + ".y4m",
         "--sidecar", prefix + ".csv"]
    )
    assert code == 1
    assert err == "error: MalformedRow: sidecar is not UTF-8 text\n"


def test_a_sidecar_with_a_byte_order_mark_reads_as_one_without(tmp_path):
    """A sidecar that a spreadsheet re-saved with a UTF-8 byte-order mark
    rebuilds the same three outputs and gives the same stats; only the
    sidecar's size, which stats counts into bytes out, grows by the mark."""
    src, prefix = _compressed_pair(tmp_path)
    marked = os.path.join(tmp_path, "marked.csv")
    with open(prefix + ".csv", "rb") as fh, open(marked, "wb") as out:
        out.write(b"\xef\xbb\xbf" + fh.read())
    rebuilt, reports = [], []
    for name, sidecar in [("plain", prefix + ".csv"), ("marked", marked)]:
        out = os.path.join(tmp_path, name)
        code, _, err = run_cli(
            ["reconstruct", "--input", prefix + ".y4m", "--sidecar", sidecar,
             "--output", out]
        )
        assert code == 0, err
        outputs = []
        for suffix in (".dl.y4m", ".fgbg.y4m", ".align.csv"):
            with open(out + suffix, "rb") as fh:
                outputs.append(fh.read())
        rebuilt.append(outputs)
        code, stdout, err = run_cli(
            ["stats", "--raw", src, "--processed", prefix + ".y4m",
             "--sidecar", sidecar, "--stats-json", "-"]
        )
        assert code == 0, err
        reports.append(json.loads(stdout))
    assert rebuilt[0] == rebuilt[1]
    plain, with_mark = reports
    counts = CompressionStats(
        plain["frames_in"], plain["frames_out"], plain["bytes_in"],
        plain["bytes_out"] + 3,
    )
    assert with_mark == json.loads(stats_json(counts))


def test_compress_config_with_a_byte_order_mark(tmp_path):
    """A UTF-8 byte-order mark before the first key, as some editors
    write one, gives the bytes its flag gives."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    config_path = os.path.join(tmp_path, "bom.conf")
    with open(config_path, "wb") as fh:
        fh.write(b"\xef\xbb\xbfthreshold=30\n")
    from_file = _compressed_bytes(
        src, os.path.join(tmp_path, "file"), ["--config", config_path]
    )
    assert from_file == _compressed_bytes(
        src, os.path.join(tmp_path, "flag"), ["--threshold", "30"]
    )


def test_compress_undecodable_config(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    config_path = os.path.join(tmp_path, "bad.conf")
    with open(config_path, "wb") as fh:
        fh.write(b"threshold = 2\xff5\n")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "o"),
         "--config", config_path]
    )
    assert code == 2
    assert err == (
        f"error: InvalidArgument: config file is not UTF-8 text: {config_path}\n"
    )


@functools.lru_cache(maxsize=None)
def _valid_inputs():
    """A clip, a config file, and the clip's compressed video and sidecar,
    as bytes keyed by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        src, prefix = _compressed_pair(tmp)
        paths = {
            "clip.y4m": src, "comp.y4m": prefix + ".y4m", "comp.csv": prefix + ".csv"
        }
        inputs = {}
        for name, path in paths.items():
            with open(path, "rb") as fh:
                inputs[name] = fh.read()
    inputs["motion.cfg"] = (
        b"# motion\nthreshold = 20\ndownscale = 2\nbuffer = 1\n"
        b"min_motion_pixels = 1\n"
    )
    return inputs


# A command and the one input file that gets mutated.
_MUTATION_TARGETS = (
    ("compress", "clip.y4m"),
    ("compress", "motion.cfg"),
    ("reconstruct", "comp.y4m"),
    ("reconstruct", "comp.csv"),
    ("stats", "comp.y4m"),
    ("stats", "comp.csv"),
)


def _mutate(blob, kind, position, value):
    if kind == "truncate":
        return blob[: position % (len(blob) + 1)]
    if kind == "insert":
        at = position % (len(blob) + 1)
        return blob[:at] + bytes([value]) + blob[at:]
    if kind == "flip":
        at = position % len(blob)
        return blob[:at] + bytes([blob[at] ^ value]) + blob[at + 1:]
    lines = blob.splitlines(keepends=True)
    at = position % len(lines)
    return b"".join(lines[: at + 1] + lines[at:])


def _mutation_argv(command, folder, out):
    def path(name):
        return os.path.join(folder, name)

    if command == "compress":
        return ["compress", "--input", path("clip.y4m"),
                "--config", path("motion.cfg"), "--output", out]
    if command == "reconstruct":
        return ["reconstruct", "--input", path("comp.y4m"),
                "--sidecar", path("comp.csv"), "--output", out]
    return ["stats", "--raw", path("clip.y4m"), "--processed", path("comp.y4m"),
            "--sidecar", path("comp.csv")]


@settings(max_examples=40)
@given(
    target=st.sampled_from(_MUTATION_TARGETS),
    kind=st.sampled_from(["truncate", "flip", "insert", "repeat-line"]),
    position=st.integers(0, 1 << 16),
    value=st.integers(1, 255),
)
@example(target=("reconstruct", "comp.csv"), kind="insert", position=0, value=0xFF)
@example(target=("stats", "comp.csv"), kind="insert", position=0, value=0xFF)
@example(target=("compress", "motion.cfg"), kind="insert", position=0, value=0xFF)
def test_mutated_input_keeps_the_error_contract(target, kind, position, value):
    """One mutation of one valid input file never escapes main(): a failure
    is one ``error: `` line on stderr and leaves only *.partial outputs."""
    command, mutated = target
    with tempfile.TemporaryDirectory() as folder:
        for name, blob in _valid_inputs().items():
            if name == mutated:
                blob = _mutate(blob, kind, position, value)
            with open(os.path.join(folder, name), "wb") as fh:
                fh.write(blob)
        out_dir = os.path.join(folder, "out")
        os.mkdir(out_dir)
        code, _, err = run_cli(
            _mutation_argv(command, folder, os.path.join(out_dir, "o"))
        )
        left = os.listdir(out_dir)
    if code == 0:
        assert err == ""
        assert not [name for name in left if name.endswith(".partial")]
    else:
        assert code in (1, 2)
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith("error: "), err
        assert all(name.endswith(".partial") for name in left), left


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


def _reporting_args(command, tmp_path):
    """A successful run of a subcommand that takes --stats-json."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    return {
        "compress": ["compress", "--input", src, "--min-motion-pixels", "1",
                     "--output", os.path.join(tmp_path, "out")],
        "stats": ["stats", "--frames-in", "100", "--frames-out", "25"],
        "bench": ["bench", "--input", src, "--min-motion-pixels", "1",
                  "--replicates", "2"],
    }[command]


@pytest.mark.parametrize("command", ["compress", "bench"])
def test_stats_json_dash_prints_the_json_alone(tmp_path, command):
    """With --stats-json - stdout is the JSON report a file dest gets."""
    args = _reporting_args(command, tmp_path)
    dest = os.path.join(tmp_path, "stats.json")
    code, _, err = run_cli([*args, "--stats-json", dest])
    assert code == 0, err
    with open(dest, encoding="utf-8") as fh:
        from_file = json.load(fh)
    code, out, err = run_cli([*args, "--stats-json", "-"])
    assert code == 0, err
    from_stdout = json.loads(out)
    if command == "compress":
        assert from_stdout == from_file
    else:
        keys = ("frames", "replicates")
        assert [from_stdout[k] for k in keys] == [from_file[k] for k in keys]
        assert from_file["frames"] == 12


@pytest.mark.parametrize("dest", ["file", "-"])
def test_compress_empty_input_reports_null_frame_reduction(tmp_path, dest):
    """A header-only input is a successful run with no frame reduction:
    exit 0, outputs committed, and the JSON report says null."""
    src = os.path.join(tmp_path, "empty.y4m")
    with open(src, "wb") as fh:
        fh.write(b"YUV4MPEG2 W4 H4 F30:1 Cmono\n")
    prefix = os.path.join(tmp_path, "out")
    json_path = os.path.join(tmp_path, "stats.json")
    code, out, err = run_cli(
        ["compress", "--input", src, "--output", prefix,
         "--stats-json", json_path if dest == "file" else "-"]
    )
    assert (code, err) == (0, "")
    if dest == "file":
        assert "frame reduction: n/a\n" in out
        with open(json_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = json.loads(out)
    assert payload["frames_in"] == payload["frames_out"] == 0
    assert payload["frame_reduction_pct"] is None
    for suffix in (".y4m", ".csv"):
        assert os.path.exists(prefix + suffix)
        assert not os.path.exists(prefix + suffix + ".partial")


@pytest.mark.parametrize("command", ["compress", "stats", "bench"])
def test_unwritable_stats_json_prints_no_report(tmp_path, command):
    """A JSON report that cannot be written fails the command before stdout
    reports success."""
    dest = os.path.join(tmp_path, "missing", "stats.json")
    code, out, err = run_cli(
        [*_reporting_args(command, tmp_path), "--stats-json", dest]
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: IO:") and err.count("\n") == 1


def test_bench_rejects_bad_replicates(tmp_path):
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src)
    code, _, err = run_cli(["bench", "--input", src, "--replicates", "0"])
    assert code == 2
    code, _, err = run_cli(["bench", "--input", "-"])
    assert code == 2


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
    assert err.count("\n") == 1 and err.startswith("error: NonZeroExit:"), err
    assert out == ""
    for suffix in (".dl.y4m", ".fgbg.y4m", ".align.csv"):
        assert os.path.exists(rebuilt + suffix + ".partial")
        assert not os.path.exists(rebuilt + suffix)


def test_reconstruct_malformed_last_row_fails_mid_run(tmp_path):
    """The sidecar is read one row at a time as frames are rebuilt, so a
    malformed last row fails the run after the rows before it were
    written: only *.partial files are left, and the color one holds
    whole frames."""
    _, prefix = _compressed_pair(tmp_path)
    with open(prefix + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    with open(prefix + ".csv", "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1] + ["7,x,0\n"])
    rows = len(lines) - 1
    # Each rebuilt position is pulled only once the one before the last
    # was written, so every row but the last two reached the files.
    assert rows >= 4
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rebuilt = str(out_dir / "r")
    code, out, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", prefix + ".csv",
         "--output", rebuilt]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: MalformedRow:"), err
    assert sorted(os.listdir(out_dir)) == [
        "r.align.csv.partial", "r.dl.y4m.partial", "r.fgbg.y4m.partial"
    ]
    assert count_y4m_frames(rebuilt + ".dl.y4m.partial") >= rows - 2


def test_reconstruct_extra_sidecar_row_through_decoder_leaves_partials(tmp_path):
    """A sidecar with one row more than the decoded video is found only
    after the decoder's stream ended; the sidecar, still being read, stays
    open, and the run fails with one SidecarMismatch line."""
    _, prefix = _compressed_pair(tmp_path)
    with open(prefix + ".csv", encoding="utf-8") as fh:
        last = read_sidecar(fh)[-1]
    with open(prefix + ".csv", "a", encoding="utf-8") as fh:
        fh.write(f"{last.input_frame + 1},{last.output_frame + 1},0\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", prefix + ".csv",
         "--output", str(out_dir / "r"), "--decode-cmd", "cat {input}"]
    )
    assert code == 1
    assert out == ""
    assert err == "error: SidecarMismatch: sidecar has more rows than video frames\n"
    left = os.listdir(out_dir)
    assert left and all(name.endswith(".partial") for name in left), left


@pytest.mark.parametrize(
    "decode_cmd, extra_row, category",
    [
        ("cat {input}", False, None),
        ("sh -c 'cat {input}; exit 3'", False, "NonZeroExit"),
        ("cat {input}", True, "SidecarMismatch"),
    ],
    ids=["exit-0", "exit-3", "extra-row"],
)
def test_reconstruct_closes_its_decoder_on_the_calling_thread(
    tmp_path, monkeypatch, decode_cmd, extra_row, category
):
    """Only the thread that called main() closes or aborts reconstruct's
    decoder, and an abort never meets a child that was already reaped:
    when the run succeeds, when the decoder exits nonzero after a whole
    stream, and when the sidecar has one row more than the video."""
    _, prefix = _compressed_pair(tmp_path)
    if extra_row:
        with open(prefix + ".csv", encoding="utf-8") as fh:
            last = read_sidecar(fh)[-1]
        with open(prefix + ".csv", "a", encoding="utf-8") as fh:
            fh.write(f"{last.input_frame + 1},{last.output_frame + 1},0\n")
    calls = []

    def record(name):
        method = getattr(_CodecChild, name)

        def recorded(self):
            thread = threading.current_thread().name
            calls.append((name, thread, self._proc.returncode))
            return method(self)

        monkeypatch.setattr(_CodecChild, name, recorded)

    record("close")
    record("abort")
    code, _, err = run_cli(
        ["reconstruct", "--input", prefix + ".y4m", "--sidecar", prefix + ".csv",
         "--output", str(tmp_path / "r"), "--decode-cmd", decode_cmd]
    )
    if category is None:
        assert code == 0, err
    else:
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {category}:"), err
    assert calls
    assert {thread for _, thread, _ in calls} == {threading.main_thread().name}, calls
    assert all(rc is None for name, _, rc in calls if name == "abort"), calls


def test_compress_never_signals_an_encoder_that_was_already_reaped(
    tmp_path, monkeypatch
):
    """An encoder that stops reading and exits 3 is reaped by the write
    stage, which reports NonZeroExit; the abort that follows on the main
    thread finds the status known and sends no signal to the child's
    process group, whose id may name another process by then."""
    src = os.path.join(tmp_path, "big.y4m")
    write_square_y4m(src, count=60, width=640, height=480)
    events = []
    abort, killpg = _CodecChild.abort, os.killpg

    def recorded_abort(self):
        events.append(("abort", self._proc.pid, self._proc.returncode))
        return abort(self)

    def recorded_killpg(pgid, sig):
        events.append(("killpg", pgid, None))
        return killpg(pgid, sig)

    monkeypatch.setattr(_CodecChild, "abort", recorded_abort)
    monkeypatch.setattr(os, "killpg", recorded_killpg)
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", os.path.join(tmp_path, "c"),
         "--min-motion-pixels", "1",
         "--encode-cmd", "sh -c 'head -c 100 >/dev/null; exit 3' {output}"]
    )
    assert code == 1
    assert err.count("\n") == 1, err
    assert err.startswith("error: NonZeroExit:"), err
    reaped = [i for i, (name, _, rc) in enumerate(events)
              if name == "abort" and rc is not None]
    assert reaped, events
    for i in reaped:
        pid = events[i][1]
        assert ("killpg", pid, None) not in events[i:], events


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="/dev/full is absent"
)


def _full_disk(prefix, suffixes):
    """Point each ``prefix + suffix`` at /dev/full, where every write
    fails with ENOSPC; not being a regular file, none is refused as an
    output that would replace an input."""
    for suffix in suffixes:
        os.symlink("/dev/full", prefix + suffix)


@needs_dev_full
def test_compress_on_a_full_disk_reports_the_first_error(tmp_path):
    """The video write that fails first is the error reported; closing
    the sidecar, which fails too, does not replace it."""
    src = os.path.join(tmp_path, "big.y4m")
    write_square_y4m(src, count=12, width=640, height=480)
    prefix = os.path.join(tmp_path, "full")
    _full_disk(prefix, [".y4m.partial", ".csv.partial"])
    code, out, err = run_cli(
        ["compress", "--input", src, "--output", prefix, "--min-motion-pixels", "1"]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1, err
    assert err.startswith("error: SinkUnavailable:"), err


@needs_dev_full
def test_reconstruct_on_a_full_disk_reports_the_first_error(tmp_path):
    """The .dl.y4m write that fails first is the error reported; closing
    .align.csv, which fails too, does not replace it."""
    src = os.path.join(tmp_path, "big.y4m")
    write_square_y4m(src, count=12, width=640, height=480)
    stored = os.path.join(tmp_path, "c")
    code, _, err = run_cli(
        ["compress", "--input", src, "--output", stored, "--min-motion-pixels", "1"]
    )
    assert code == 0, err
    prefix = os.path.join(tmp_path, "r")
    _full_disk(prefix, [".dl.y4m.partial", ".align.csv.partial"])
    code, out, err = run_cli(
        ["reconstruct", "--input", stored + ".y4m", "--sidecar", stored + ".csv",
         "--output", prefix]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1, err
    assert err.startswith("error: SinkUnavailable:"), err


@needs_dev_full
@pytest.mark.parametrize("count", [3000, 20], ids=["mid-run", "at-close"])
def test_reconstruct_on_a_full_align_disk_reports_sink_unavailable(
    tmp_path, count
):
    """An .align.csv on a full disk fails as a video there does.  3000
    rows outgrow the text buffer, so a row write fails while the stages
    run, before the whole .dl.y4m is written; 20 rows stay buffered until
    the flush in close(), after it."""
    video, sidecar = _tiny_run(tmp_path, count)
    prefix = os.path.join(tmp_path, "r")
    _full_disk(prefix, [".align.csv.partial"])
    code, out, err = run_cli(
        ["reconstruct", "--input", video, "--sidecar", sidecar, "--output", prefix]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1, err
    assert err.startswith("error: SinkUnavailable: "), err
    written = os.path.getsize(prefix + ".dl.y4m.partial")
    assert (written < os.path.getsize(video)) == (count == 3000)


@needs_dev_full
@pytest.mark.parametrize("count", [2000, 20], ids=["mid-run", "at-close"])
def test_compress_on_a_full_sidecar_disk_reports_sink_unavailable(
    tmp_path, count
):
    """A sidecar on a full disk fails as a video there does.  2000 rows
    outgrow the text buffer, so a row write fails while the stages run;
    20 rows stay buffered until the flush in close()."""
    src = os.path.join(tmp_path, "sq.y4m")
    write_square_y4m(src, count=count)
    prefix = os.path.join(tmp_path, "full")
    _full_disk(prefix, [".csv.partial"])
    code, out, err = run_cli(
        ["compress", "--input", src, "--output", prefix, "--min-motion-pixels", "1"]
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1, err
    assert err.startswith("error: SinkUnavailable: "), err


def _tiny_run(folder, count):
    """A 4x4 GRAY8 video of ``count`` frames and its sidecar, one full row
    then masked ones, as the paths (video, sidecar)."""
    header = StreamHeader(4, 4, 30, 1, PixelFormat.GRAY8)
    video, sidecar = os.path.join(folder, "tiny.y4m"), os.path.join(folder, "tiny.csv")
    with open(video, "wb") as fh:
        fh.write(serialize_y4m_header(header))
        for index in range(count):
            fh.write(b"FRAME\n" + bytes([index % 251]) * 16)
    with open(sidecar, "w", encoding="utf-8", newline="") as fh:
        write_sidecar(
            (SidecarRecord(index, index, index == 0) for index in range(count)), fh
        )
    return video, sidecar


def _peak_bytes(argv) -> int:
    """The tracemalloc peak over ``main(argv)``, which must succeed."""
    tracemalloc.start()
    try:
        code, _, err = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, err
    return peak


# Rows in the short and in the long run of the streaming tests, and the
# growth in peak bytes the tenfold longer run may show.  A list of the rows
# costs about 160 bytes a row, some 1.4 MB more for the long run.
_SHORT_RUN, _LONG_RUN = 1_000, 10_000
_FLAT_BYTES = 256 * 1024


def _peaks(tmp_path, argv_for):
    peaks = []
    for count in _SHORT_RUN, _LONG_RUN:
        folder = tmp_path / str(count)
        folder.mkdir()
        peaks.append(_peak_bytes(argv_for(folder, *_tiny_run(folder, count))))
    return peaks


def test_reconstruct_holds_one_sidecar_row_at_a_time(tmp_path):
    """reconstruct pulls sidecar rows as it rebuilds frames: its peak
    memory stays flat when the run grows tenfold."""
    short, long = _peaks(tmp_path, lambda folder, video, sidecar: [
        "reconstruct", "--input", video, "--sidecar", sidecar,
        "--output", str(folder / "r"),
    ])
    assert long - short < _FLAT_BYTES, (short, long)


def test_stats_file_mode_holds_one_sidecar_row_at_a_time(tmp_path):
    """stats file mode counts sidecar rows without keeping them: its peak
    memory stays flat when the run grows tenfold."""
    short, long = _peaks(tmp_path, lambda folder, video, sidecar: [
        "stats", "--raw", video, "--processed", video, "--sidecar", sidecar,
    ])
    assert long - short < _FLAT_BYTES, (short, long)


@pytest.mark.parametrize("command", ["reconstruct", "stats"])
def test_a_sidecar_line_with_no_end_is_refused_in_bounded_memory(tmp_path, command):
    """A sidecar row of 64 MB with no line end fails the run with one
    MalformedRow line naming the row, without the line being read whole."""
    video, sidecar = _tiny_run(tmp_path, 1)
    with open(sidecar, "a", encoding="utf-8") as fh:
        for _ in range(64):
            fh.write("1" * (1 << 20))
    argv = {
        "reconstruct": ["reconstruct", "--input", video, "--sidecar", sidecar,
                        "--output", str(tmp_path / "r")],
        "stats": ["stats", "--raw", video, "--processed", video,
                  "--sidecar", sidecar],
    }[command]
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err == "error: MalformedRow: row 2: line is longer than 4096 characters\n"
    assert peak < 1 << 20, peak


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


def _sigint_default():
    # A shell starts background jobs with SIGINT ignored, and Python keeps
    # an inherited SIG_IGN; restore the default so the run sees Ctrl-C.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize(
    "sig, status", [(signal.SIGINT, 130), (signal.SIGTERM, 143)]
)
@pytest.mark.parametrize("stalled", ["header", "decoder", "encoder"])
def test_signal_stops_run_on_stalled_codec(tmp_path, stalled, sig, status):
    """Ctrl-C and SIGTERM end a run stuck on a stalled codec child within
    3 s, with one error line, only *.partial outputs and no child left."""
    src = os.path.join(tmp_path, "sq.y4m")
    header, _ = write_square_y4m(src, count=20, width=320, height=240)
    prefix = os.path.join(tmp_path, "out")
    args = [
        sys.executable, "-m", "motionsieve.cli", "compress", "--input", src,
        "--output", prefix, "--min-motion-pixels", "1",
    ]
    # The sidecar partial is opened after the SIGTERM handler is set.
    ready = prefix + ".csv.partial"
    if stalled == "header":
        # Silence before the stream header, while the input is opened.
        ready = src + ".started"
        args += ["--decode-cmd", "sh -c 'touch {input}.started; exec sleep 30'"]
    elif stalled == "decoder":
        # The header and two frames, then silence with stdout held open.
        size = len(serialize_y4m_header(header)) + 2 * (6 + header.frame_size())
        args += ["--decode-cmd", f"sh -c 'head -c {size} {{input}}; exec sleep 30'"]
    else:
        # Never reads stdin, so the writer blocks once the pipe is full.
        args += ["--encode-cmd", "sh -c 'exec sleep 30' {output}"]
    # The run leads its own session, so its process group holds the run
    # and every codec child it starts.
    proc = subprocess.Popen(
        args,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
        preexec_fn=_sigint_default,
    )
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(ready):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.2)
        sent = time.monotonic()
        os.kill(proc.pid, sig)
        _, err = proc.communicate(timeout=10)
        elapsed = time.monotonic() - sent
        assert proc.returncode == status
        assert err == b"error: Interrupted\n"
        assert elapsed < 3.0
        left = [name for name in os.listdir(tmp_path) if name.startswith("out.")]
        assert all(name.endswith(".partial") for name in left), left
        deadline = time.monotonic() + 1.0
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _group_alive(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stderr.close()



def _terminate_when(ready, proc, tmp_path):
    """SIGTERM ``proc`` once ``ready()`` holds and check that it exits 143
    within 3 s, with one error line and only *.partial outputs.  Returns
    the seconds from the signal to the exit."""
    deadline = time.monotonic() + 30
    while not ready():
        assert proc.poll() is None, proc.stderr.read()
        assert time.monotonic() < deadline
        time.sleep(0.01)
    time.sleep(0.2)
    sent = time.monotonic()
    os.kill(proc.pid, signal.SIGTERM)
    # Not communicate(): it closes stdin, which would end a stalled read.
    proc.wait(timeout=10)
    elapsed = time.monotonic() - sent
    assert proc.returncode == 143
    assert proc.stderr.read() == b"error: Interrupted\n"
    assert elapsed < 3.0
    left = [name for name in os.listdir(tmp_path) if name.startswith("out.")]
    assert left and all(name.endswith(".partial") for name in left), left
    return elapsed


def _kill_groups(*groups):
    for group in groups:
        try:
            if group is not None:
                os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass


def test_sigterm_ends_run_on_stalled_stdin(tmp_path):
    """SIGTERM ends `compress --input -` whose stdin stalls mid-stream,
    although the read stage stays blocked on stdin."""
    header = StreamHeader(320, 240, 30, 1, PixelFormat.GRAY8)
    prefix = os.path.join(tmp_path, "out")
    proc = subprocess.Popen(
        [sys.executable, "-m", "motionsieve.cli", "compress", "--input", "-",
         "--output", prefix],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        # The header and two frames, then silence with stdin held open.
        proc.stdin.write(frames_to_y4m(header, moving_square_video(320, 240, 2)))
        proc.stdin.flush()
        _terminate_when(lambda: os.path.exists(prefix + ".csv.partial"), proc, tmp_path)
    finally:
        _kill_groups(proc.pid)
        proc.wait()
        proc.stdin.close()
        proc.stderr.close()


def test_sigterm_on_stalled_decoder_exits_at_once(tmp_path):
    """SIGTERM on a run whose read stage waits on a stalled decoder exits
    well within a second: nothing waits for a stage that only the
    decoder's abort can free."""
    src = os.path.join(tmp_path, "sq.y4m")
    header, _ = write_square_y4m(src, count=20, width=320, height=240)
    prefix = os.path.join(tmp_path, "out")
    size = len(serialize_y4m_header(header)) + 2 * (6 + header.frame_size())
    proc = subprocess.Popen(
        [sys.executable, "-m", "motionsieve.cli", "compress", "--input", src,
         "--output", prefix,
         "--decode-cmd", f"sh -c 'head -c {size} {{input}}; exec sleep 30'"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        elapsed = _terminate_when(
            lambda: os.path.exists(prefix + ".csv.partial"), proc, tmp_path
        )
        assert elapsed < 0.5
    finally:
        _kill_groups(proc.pid)
        proc.wait()
        proc.stderr.close()


def test_sigterm_kills_codec_process_group(tmp_path):
    """A decode command whose shell forks instead of exec'ing is killed
    with everything it started: SIGTERM ends the run within 3 s and
    leaves no process in the codec's group."""
    src = os.path.join(tmp_path, "sq.y4m")
    header, _ = write_square_y4m(src, count=20, width=320, height=240)
    prefix = os.path.join(tmp_path, "out")
    pid_file = src + ".pid"
    size = len(serialize_y4m_header(header)) + 2 * (6 + header.frame_size())
    # No exec: the shell stays the codec child and `sleep`, its child,
    # holds the decoder's stdout open.
    decode = f"sh -c 'echo $$ > {{input}}.pid; head -c {size} {{input}}; sleep 30'"
    proc = subprocess.Popen(
        [sys.executable, "-m", "motionsieve.cli", "compress", "--input", src,
         "--output", prefix, "--decode-cmd", decode],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )

    def codec_group():
        if os.path.exists(pid_file):
            with open(pid_file, encoding="ascii") as fh:
                text = fh.read().strip()
            return int(text) if text else None

    try:
        _terminate_when(
            lambda: codec_group() and os.path.exists(prefix + ".csv.partial"),
            proc, tmp_path,
        )
        # The killed `sleep` is an orphan: init reaps it, not the run, and
        # a container's init may take a second or two to get to it.
        deadline = time.monotonic() + 5.0
        while _group_alive(codec_group()) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _group_alive(codec_group())
    finally:
        _kill_groups(proc.pid, codec_group())
        proc.wait()
        proc.stderr.close()
