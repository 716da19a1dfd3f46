"""Benchmark harness configuration.

Every bench regenerates one table or figure of the paper's Section V (see
DESIGN.md's experiment index) at ``REPRO_SCALE`` (default 0.25, see the
scale protocol in ``repro.eval.experiments``). Rendered tables are printed
and also written to ``benchmarks/results/`` so `pytest benchmarks/
--benchmark-only` leaves artifacts behind.

Every bench also runs under a :func:`repro.obs.observe` block and appends
its per-stage wall/CPU breakdown and metric snapshot to
``benchmarks/results/stage_breakdown.json`` (one entry per bench node) —
the artifact CI uploads.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import obs
from repro.eval import ExperimentSettings
from repro.obs import SCHEMA_VERSION, aggregate_spans

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
STAGE_BREAKDOWN = RESULTS_DIR / "stage_breakdown.json"


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return ExperimentSettings()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a rendered experiment artifact and persist it."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit


@pytest.fixture(autouse=True)
def observed_run(request, results_dir):
    """Trace each bench and persist its stage breakdown."""
    with obs.observe() as ob:
        yield ob
    spans = ob.tracer.to_dicts()
    if not spans and not ob.metrics.names():
        return  # nothing instrumented ran; keep the artifact focused
    doc: dict = {}
    if STAGE_BREAKDOWN.exists():
        try:
            doc = json.loads(STAGE_BREAKDOWN.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[request.node.name] = {
        "schema_version": SCHEMA_VERSION,
        "stages": aggregate_spans(spans),
        "metrics": ob.metrics.to_dict(),
    }
    STAGE_BREAKDOWN.write_text(json.dumps(doc, indent=2, sort_keys=True))
