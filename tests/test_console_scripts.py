"""What only an entry point shows: exit codes, one stderr line, stdin and
README's gzip round trip.  Each test runs through ``python -m`` on
``motionsieve.cli`` and ``motionsieve.gzcodec``, which reach ``run()`` as
the scripts do, and, with the id ``installed``, through the ``motionsieve``
and ``y4mgz`` scripts when both sit beside this interpreter; where they do
not, ``pytest -k installed`` selects nothing.
"""

import gzip
import json
import os
import shlex
import subprocess
import sys
import sysconfig
from typing import NamedTuple

import pytest

from motionsieve import PixelFormat, StreamHeader
from synth import frames_to_y4m, moving_square_video


class Launcher(NamedTuple):
    motionsieve: list
    y4mgz: list


_SCRIPTS = [os.path.join(sysconfig.get_path("scripts"), name)
            for name in ("motionsieve", "y4mgz")]
_LAUNCHERS = {
    "module": Launcher([sys.executable, "-m", "motionsieve.cli"],
                       [sys.executable, "-m", "motionsieve.gzcodec"]),
}
if all(os.path.isfile(script) for script in _SCRIPTS):
    _LAUNCHERS["installed"] = Launcher(*([script] for script in _SCRIPTS))


@pytest.fixture(params=list(_LAUNCHERS))
def launcher(request):
    return _LAUNCHERS[request.param]


def _run(argv, stdin=None):
    return subprocess.run(argv, input=stdin, capture_output=True)


def _clip():
    """A 40x32 GRAY8 clip of 12 frames with a moving square."""
    header = StreamHeader(40, 32, 30, 1, PixelFormat.GRAY8)
    return frames_to_y4m(header, moving_square_video(40, 32, 12))


def _assert_one_error_line(proc, status, category):
    err = proc.stderr.decode()
    assert proc.returncode == status, err
    assert proc.stdout == b""
    assert err.count("\n") == 1 and err.startswith(f"error: {category}: "), err


def test_help_exits_0(launcher):
    for argv in (launcher.motionsieve + ["compress", "--help"],
                 launcher.y4mgz + ["--help"]):
        proc = _run(argv)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.startswith(b"usage: ")


def test_an_argument_error_exits_2_with_one_line(launcher, tmp_path):
    missing = str(tmp_path / "missing.y4m")
    proc = _run(launcher.motionsieve + ["compress", "--input", missing])
    _assert_one_error_line(proc, 2, "InvalidArgument")


def test_a_runtime_error_exits_1_with_one_line(launcher, tmp_path):
    cut = tmp_path / "cut.y4m"
    cut.write_bytes(_clip()[:-100])
    proc = _run(
        launcher.motionsieve
        + ["compress", "--input", str(cut), "--output", str(tmp_path / "short")]
    )
    _assert_one_error_line(proc, 1, "TruncatedFrame")


def test_readme_gzip_round_trip(launcher, tmp_path):
    """README's gzip codec in --decode-cmd and --encode-cmd: one clip
    encodes to the same bytes twice, both playback streams are rebuilt
    through it, and --stats-json - leaves the JSON alone on stdout."""
    clip = tmp_path / "clip.y4m.gz"
    clip.write_bytes(gzip.compress(_clip()))
    y4mgz = shlex.join(launcher.y4mgz)
    decode = ["--decode-cmd", f"{y4mgz} decode {{input}}"]
    encode = ["--encode-cmd", f"{y4mgz} encode {{output}}"]
    compress = launcher.motionsieve + ["compress", "--input", str(clip)]
    for prefix in ("cam0", "cam0again"):
        proc = _run(compress + ["--output", str(tmp_path / prefix), *decode, *encode])
        assert proc.returncode == 0, proc.stderr.decode()
    encoded = (tmp_path / "cam0.enc").read_bytes()
    assert encoded == (tmp_path / "cam0again.enc").read_bytes()
    assert encoded[4:8] == bytes(4), "gzip header carries an mtime"
    sidecar = (tmp_path / "cam0.csv").read_bytes()
    assert sidecar.startswith(b"input_frame,output_frame,full_frame\n0,0,1\n")
    assert sidecar == (tmp_path / "cam0again.csv").read_bytes()

    proc = _run(
        launcher.motionsieve
        + ["reconstruct", "--input", str(tmp_path / "cam0.enc"),
           "--sidecar", str(tmp_path / "cam0.csv"),
           "--output", str(tmp_path / "rec"), *decode]
    )
    assert proc.returncode == 0, proc.stderr.decode()
    for suffix in (".dl.y4m", ".fgbg.y4m", ".align.csv"):
        assert (tmp_path / f"rec{suffix}").stat().st_size > 0

    proc = _run(
        compress + ["--output", str(tmp_path / "cam1"), *decode, "--stats-json", "-"]
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["frames_in"] == 12


def test_console_script_stdin_roundtrip(launcher, tmp_path):
    """The entry point reads Y4M on stdin with --input -."""
    proc = _run(
        launcher.motionsieve
        + ["compress", "--input", "-", "--output", str(tmp_path / "out"),
           "--min-motion-pixels", "1"],
        stdin=_clip(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"frames in:       12" in proc.stdout
    assert (tmp_path / "out.y4m").exists()
    assert (tmp_path / "out.csv").exists()
