import os
import subprocess
import sys
import types
from pathlib import Path

import motionsieve


def test_import_loads_no_scipy():
    """``import motionsieve`` pulls in numpy only, which keeps start-up short."""
    src = str(Path(motionsieve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, motionsieve; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"


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
