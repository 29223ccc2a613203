import os
import subprocess
import sys
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
