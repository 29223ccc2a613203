import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import motionsieve

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
