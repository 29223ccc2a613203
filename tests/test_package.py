import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import motionsieve
from motionsieve import PixelFormat, StreamHeader, frame_reduction, read_sidecar
from synth import frames_to_y4m, moving_square_video

# Counting threads through /proc is Linux-only.
needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task on this platform"
)

TASKS = "len(os.listdir('/proc/self/task'))"


def _fresh(code: str, **env: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports from this
    checkout, with ``env`` set and OPENBLAS_NUM_THREADS unset unless given."""
    src = str(Path(motionsieve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**base, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return result.stdout.strip()


def test_import_loads_no_scipy():
    """``import motionsieve`` pulls in numpy only, which keeps start-up short."""
    code = (
        "import sys, motionsieve; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    assert _fresh(code) == "[]"


@needs_proc_tasks
def test_import_starts_no_blas_threads():
    """``import motionsieve`` leaves the process with its main thread only,
    where a plain ``import numpy`` may start a BLAS worker per extra core."""
    numpy_tasks = int(_fresh(f"import os, numpy; print({TASKS})"))
    if numpy_tasks == 1:
        pytest.skip("import numpy starts no extra thread here "
                    "(one CPU, or a numpy without OpenBLAS)")
    assert _fresh(f"import os, motionsieve; print({TASKS})") == "1"


def test_import_leaves_environment_unchanged():
    """The guard sets OPENBLAS_NUM_THREADS only while numpy loads, so codec
    children and other subprocesses see the caller's environment."""
    code = (
        "import os; before = dict(os.environ); import motionsieve; "
        "print(before == dict(os.environ), 'OPENBLAS_NUM_THREADS' in os.environ)"
    )
    assert _fresh(code) == "True False"


@needs_proc_tasks
def test_import_honours_a_set_thread_count():
    """An OPENBLAS_NUM_THREADS the user set is left to OpenBLAS as is."""
    numpy_tasks = _fresh(f"import os, numpy; print({TASKS})", OPENBLAS_NUM_THREADS="2")
    code = f"import os, motionsieve; print({TASKS}, os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == f"{numpy_tasks} 2"


@needs_proc_tasks
def test_import_after_numpy_changes_nothing():
    """A host that imported numpy first keeps its threads and environment."""
    code = (
        f"import os, numpy; before = ({TASKS}, dict(os.environ)); "
        f"import motionsieve; print(before == ({TASKS}, dict(os.environ)))"
    )
    assert _fresh(code) == "True"


# The library API, pinned so that an export or a removal is deliberate.
# Per-frame kernels and the Y4M header codec stay in their modules.
LIBRARY_API = {
    # errors
    "BrokenPipe", "DimensionMismatch", "MalformedFrameMarker",
    "MalformedHeader", "MalformedRow", "MissingReference", "MotionSieveError",
    "NonMonotonicIndex", "NonZeroExit", "SidecarMismatch", "SinkUnavailable",
    "SpawnFailure", "TooFewFrames", "TruncatedFrame",
    "UnsupportedColorspace", "ZeroInput",
    # frames, readers, writers and codec adapters
    "CodecDecoder", "CodecEncoder", "Frame", "PixelFormat", "RawReader",
    "StreamHeader", "Y4MReader", "Y4MWriter", "count_y4m_frames",
    # compression, reconstruction and the sidecar
    "MotionConfig", "PipelineReport", "reference_compress", "run_pipeline",
    "RebuiltFrame", "reconstruct_files", "reconstruct_stream",
    "SidecarRecord", "SidecarWriter", "read_sidecar", "write_sidecar",
    # stats
    "CompressionStats", "PixelChangeSeries", "frame_reduction",
    "pixel_change_series", "size_reduction", "stats_json", "stats_table",
}


def test_all_matches_public_namespace():
    """``__all__`` lists exactly the public names the package exports."""
    for name in motionsieve.__all__:
        assert hasattr(motionsieve, name), name
    public = {
        name
        for name, value in vars(motionsieve).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(motionsieve.__all__)
    assert len(motionsieve.__all__) == len(public)
    assert "RawWriter" not in public
    assert "stats_from_json" not in public
    assert set(motionsieve.__all__) == LIBRARY_API


def test_run_pipeline_takes_no_queue_depth():
    """Queue depth is not a setting: run_pipeline takes its source, config
    and two sinks, and nothing else."""
    parameters = inspect.signature(motionsieve.run_pipeline).parameters
    assert list(parameters) == ["source", "config", "video_sink", "sidecar_sink"]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """README's "Library use" block runs as written next to a night.y4m
    and prints the run's frame reduction."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    library = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    header = StreamHeader(40, 32, 30, 1, PixelFormat.GRAY8)
    frames = moving_square_video(40, 32, 12)
    # The square stops for the last 8 frames, so they are dropped.
    (tmp_path / "night.y4m").write_bytes(frames_to_y4m(header, frames + frames[-1:] * 8))
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(readme), "exec"), {})
    with open("cam0.csv", encoding="utf-8", newline="") as handle:
        kept = len(read_sidecar(handle))
    assert 0 < kept < 20
    assert capsys.readouterr().out == f"{frame_reduction(20, kept)}\n"
