"""Import boundaries of the ``repro`` package.

A client that only submits jobs imports ``repro.serve``,
``repro.placers.api`` and ``repro.accelgen``. Solver subpackages are
imported where they are used (inside the function, or by the flow modules a
worker loads), so they stay off the caller's set-up path. networkx is a
test dependency, and the profilers belong to ``python -m cProfile``: no
product path imports either. A serve worker imports nothing after the
fork: ``repro.serve.worker`` brings its sign-off modules along.

The loop-reference oracles live in ``tests/oracles``; no product module may
import them (or anything else under ``tests``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = (
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
    "scipy.optimize",
    "networkx",
)

PROFILERS = ("cProfile", "pstats", "tracemalloc")


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this ``repro``; its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_serve_caller_imports_no_heavy_scipy():
    code = (
        "import sys\n"
        "import repro.serve, repro.placers.api, repro.accelgen\n"
        f"print(','.join(m for m in {HEAVY + PROFILERS!r} if m in sys.modules))\n"
    )
    assert _run(code) == ""


def test_cold_place_and_sign_off_never_import_networkx():
    code = (
        "import sys\n"
        "from repro.accelgen import generate_suite\n"
        "from repro.core import DSPlacer, DSPlacerConfig\n"
        "from repro.fpga import fabric_device\n"
        "from repro.router import GlobalRouter\n"
        "from repro.timing import StaticTimingAnalyzer, max_frequency\n"
        "dev = fabric_device('zcu104', 0.05)\n"
        "nl = generate_suite('skynet', scale=0.05, device=dev, seed=0)\n"
        "placement = DSPlacer(dev, DSPlacerConfig()).place(nl).placement\n"
        "route = GlobalRouter().route(placement)\n"
        "sta = StaticTimingAnalyzer(nl)\n"
        "max_frequency(sta, placement, route)\n"
        "sta.analyze(placement, route)\n"
        f"print(','.join(m for m in {('networkx', *PROFILERS)!r} if m in sys.modules))\n"
    )
    assert _run(code) == ""


def test_serve_worker_imports_nothing_after_fork():
    """What a forked attempt finds in ``sys.modules``: the caller's imports
    once it has built a payload. Running the attempt must add none."""
    code = (
        "import sys\n"
        "import repro.serve\n"
        "from repro.accelgen import generate_suite\n"
        "from repro.fpga import fabric_device\n"
        "from repro.placers.api import PlacementRequest\n"
        "from repro.serve import worker\n"
        "request = PlacementRequest(suite='skynet', scale=0.05, with_timing=True)\n"
        "config = request.resolved_config(0)\n"
        "dev = fabric_device('zcu104', 0.05)\n"
        "nl = generate_suite('skynet', scale=0.05, device=dev, seed=0)\n"
        "before = set(sys.modules)\n"
        "body = worker._execute(dict(netlist=nl, device=dev, tool='dsplacer', seed=0,\n"
        "                            config=config.to_dict(), with_timing=True))\n"
        "assert body['quality']['fmax_mhz'] > 0\n"
        "print(','.join(sorted(set(sys.modules) - before)))\n"
    )
    assert _run(code) == ""


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
