"""Import boundaries of the ``repro`` package.

A client that only submits jobs imports ``repro.serve``,
``repro.placers.api`` and ``repro.accelgen``. Solver subpackages are
imported where they are used (inside the function, or by the flow modules a
worker loads), so they stay off the caller's set-up path.

The loop-reference oracles live in ``tests/oracles``; no product module may
import them (or anything else under ``tests``).
"""

import ast
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


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_product_never_imports_tests():
    root = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(root.parent)}: {name}"
        for path in sorted(root.rglob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name == "tests" or name.startswith("tests.")
    ]
    assert offenders == []
