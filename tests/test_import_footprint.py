"""The serve caller's import set stays free of scipy's heavy subpackages.

A client that only submits jobs imports ``repro.serve``,
``repro.placers.api`` and ``repro.accelgen``. Solver subpackages are
imported where they are used (inside the function, or by the flow modules a
worker loads), so they stay off the caller's set-up path.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph", "scipy.optimize")


def test_serve_caller_imports_no_heavy_scipy():
    code = (
        "import sys\n"
        "import repro.serve, repro.placers.api, repro.accelgen\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""
