"""Flow-wide observability: tracing spans, metrics, run reports.

Three cooperating pieces (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.trace` — hierarchical spans with wall/CPU time, nesting,
  per-span attributes and counters;
- :mod:`repro.obs.metrics` — a process-local registry of counters, gauges
  and histograms, mergeable across stages;
- :mod:`repro.obs.report` — the versioned :class:`RunReport` JSON schema the
  CLI (``--json``) and benchmark harness emit.

Everything is **disabled by default**: instrumentation across the flow
(``trace.span(...)``, ``metrics.inc(...)``) costs one list check per call
until an :func:`observe` block activates collection::

    from repro import obs

    with obs.observe() as ob:
        result = DSPlacer(device).place(netlist)
    report = ob.report(meta={"tool": "dsplacer"})
    print(report.to_json())
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.obs import _runtime, metrics, trace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.report import (
    REPORT_KIND,
    SCHEMA_VERSION,
    RunReport,
    aggregate_spans,
    render_trace,
    validate_report,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Observation",
    "observe",
    "active",
    "trace",
    "metrics",
    "Span",
    "Tracer",
    "Histogram",
    "MetricsRegistry",
    "RunReport",
    "REPORT_KIND",
    "SCHEMA_VERSION",
    "aggregate_spans",
    "render_trace",
    "validate_report",
]


class Observation:
    """One run's collected telemetry: a span tracer + a metrics registry.

    Args:
        clock / cpu_clock: Injectable time sources (tests pin these for
            deterministic span timings).
    """

    def __init__(
        self,
        *,
        clock=time.perf_counter,
        cpu_clock=time.process_time,
    ) -> None:
        self.tracer = Tracer(clock=clock, cpu_clock=cpu_clock)
        self.metrics = MetricsRegistry()

    def report(
        self,
        meta: dict | None = None,
        health: dict | None = None,
        quality: dict | None = None,
    ) -> RunReport:
        """Snapshot this observation into a :class:`RunReport`."""
        return RunReport.from_observation(self, meta=meta, health=health, quality=quality)


@contextmanager
def observe(**kwargs) -> Iterator[Observation]:
    """Activate observability for the dynamic extent of this block.

    Spans and metrics recorded anywhere in the flow land on the yielded
    :class:`Observation`. Blocks nest; the innermost wins.
    """
    ob = Observation(**kwargs)
    _runtime.push(ob)
    try:
        yield ob
    finally:
        _runtime.pop(ob)


def active() -> Observation | None:
    """The innermost active observation, or ``None`` when disabled."""
    return _runtime.active()
