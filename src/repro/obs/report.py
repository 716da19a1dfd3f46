"""The versioned RunReport schema: one machine-readable run artifact.

A :class:`RunReport` is the stable, serializable surface every flow run can
emit (``python -m repro place ... --json``) and every consumer (benchmark
harness, CI, dashboards) can parse without knowing pipeline internals:

```
{
  "kind": "repro.run_report",
  "schema_version": 2,
  "meta":    {"tool": "dsplacer", "suite": "skynet", ...},
  "spans":   [{"name": "place", "wall_s": ..., "cpu_s": ..., "children": [...]}],
  "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
  "health":  {"degraded": false, "events": [{"stage","kind","detail"}]},
  "quality": {"legal": true, "hpwl_um": ..., ...},
  "job":     {"id": "...", "submitted_unix": ..., "started_unix": ...,
              "finished_unix": ..., "cache": "hit|miss|bypass",
              "race": {"k": 3, "policy": "best", "winner_seed": 1,
                       "attempts": [...], "cancelled": 0}},
  "clock":   {"model": "htree", "htree": {...}, "n_sinks": 1234,
              "worst_skew_ns": ..., "mean_abs_skew_ns": ...}
}
```

Schema v2 added the optional ``job`` section the serve layer
(:mod:`repro.serve`) stamps on every response: job identity, queue
timestamps, the cache verdict, and the portfolio-race outcome. v1 documents
(no ``job``) remain valid; a ``job`` section requires ``schema_version >= 2``.

Schema v3 (this release) adds the optional ``clock`` section
(:func:`repro.clock.clock_report_section`): the skew-model configuration
plus worst/mean skew over the run's sequential sinks. Runs with the default
region-skew model omit it; a ``clock`` section requires
``schema_version >= 3``.

:func:`validate_report` is the schema checker (no external jsonschema
dependency); ``python -m repro.obs FILE...`` validates saved reports
and exits 1 when any of them is invalid — CI uses exactly that.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ReportSchemaError

__all__ = [
    "SCHEMA_VERSION",
    "REPORT_KIND",
    "JOB_CACHE_STATES",
    "RunReport",
    "validate_report",
    "aggregate_spans",
    "render_trace",
]

SCHEMA_VERSION = 3
REPORT_KIND = "repro.run_report"

#: cache verdicts a ``job`` section may carry
JOB_CACHE_STATES = ("hit", "miss", "bypass")

_EMPTY_METRICS = lambda: {"counters": {}, "gauges": {}, "histograms": {}}  # noqa: E731
_EMPTY_HEALTH = lambda: {"degraded": False, "events": []}  # noqa: E731


@dataclass
class RunReport:
    """One run's observability artifact (spans + metrics + health + quality)."""

    meta: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=_EMPTY_METRICS)
    health: dict[str, Any] = field(default_factory=_EMPTY_HEALTH)
    quality: dict[str, Any] = field(default_factory=dict)
    #: serve-layer job identity/timestamps/cache/race (schema v2; optional)
    job: dict[str, Any] | None = None
    #: clock-model config + worst/mean skew (schema v3; optional)
    clock: dict[str, Any] | None = None
    schema_version: int = SCHEMA_VERSION

    # -- construction ---------------------------------------------------
    @classmethod
    def from_observation(
        cls,
        ob,
        meta: dict[str, Any] | None = None,
        health: dict[str, Any] | None = None,
        quality: dict[str, Any] | None = None,
    ) -> "RunReport":
        """Snapshot an :class:`~repro.obs.Observation` into a report."""
        return cls(
            meta=dict(meta or {}),
            spans=ob.tracer.to_dicts(),
            metrics=ob.metrics.to_dict(),
            health=dict(health) if health is not None else _EMPTY_HEALTH(),
            quality=dict(quality or {}),
        )

    @classmethod
    def from_dict(cls, doc: dict[str, Any], strict: bool = True) -> "RunReport":
        """Parse a report document; ``strict`` validates the schema first."""
        if strict:
            problems = validate_report(doc)
            if problems:
                raise ReportSchemaError(
                    f"invalid RunReport ({len(problems)} problem(s)):\n"
                    + "\n".join(f"  - {p}" for p in problems)
                )
        job = doc.get("job")
        clock = doc.get("clock")
        return cls(
            meta=dict(doc.get("meta", {})),
            spans=list(doc.get("spans", [])),
            metrics=dict(doc.get("metrics", _EMPTY_METRICS())),
            health=dict(doc.get("health", _EMPTY_HEALTH())),
            quality=dict(doc.get("quality", {})),
            job=dict(job) if job is not None else None,
            clock=dict(clock) if clock is not None else None,
            schema_version=int(doc.get("schema_version", SCHEMA_VERSION)),
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        doc = {
            "kind": REPORT_KIND,
            "schema_version": self.schema_version,
            "meta": self.meta,
            "spans": self.spans,
            "metrics": self.metrics,
            "health": self.health,
            "quality": self.quality,
        }
        if self.job is not None:
            doc["job"] = self.job
        if self.clock is not None:
            doc["clock"] = self.clock
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    # -- queries --------------------------------------------------------
    def iter_spans(self) -> Iterator[dict[str, Any]]:
        """Depth-first over every span document in the report."""
        stack = list(self.spans)
        while stack:
            sp = stack.pop()
            yield sp
            stack.extend(sp.get("children", ()))

    def span_names(self) -> set[str]:
        return {sp["name"] for sp in self.iter_spans()}

    def metric_names(self) -> set[str]:
        m = self.metrics
        return (
            set(m.get("counters", ()))
            | set(m.get("gauges", ()))
            | set(m.get("histograms", ()))
        )

    def stage_seconds(self) -> dict[str, float]:
        """Total wall seconds per span name, over the whole trace forest."""
        return {name: agg["wall_s"] for name, agg in aggregate_spans(self.spans).items()}


# ----------------------------------------------------------------------
# schema validation (hand-rolled; no jsonschema dependency)
# ----------------------------------------------------------------------
def _is_num(v: Any) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_span(sp: Any, path: str, problems: list[str], depth: int = 0) -> None:
    if depth > 64:
        problems.append(f"{path}: span nesting deeper than 64 levels")
        return
    if not isinstance(sp, dict):
        problems.append(f"{path}: span must be an object, got {type(sp).__name__}")
        return
    name = sp.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"{path}: span needs a non-empty string 'name'")
    for key in ("wall_s", "cpu_s"):
        v = sp.get(key)
        if not _is_num(v) or v < 0:
            problems.append(f"{path}: span {name!r} needs a non-negative number {key!r}")
    attrs = sp.get("attrs", {})
    if not isinstance(attrs, dict):
        problems.append(f"{path}: span {name!r} attrs must be an object")
    counters = sp.get("counters", {})
    if not isinstance(counters, dict) or any(
        not _is_num(v) for v in counters.values()
    ):
        problems.append(f"{path}: span {name!r} counters must map names to numbers")
    children = sp.get("children", [])
    if not isinstance(children, list):
        problems.append(f"{path}: span {name!r} children must be a list")
        return
    for i, child in enumerate(children):
        _check_span(child, f"{path}.children[{i}]", problems, depth + 1)


def _check_job(job: Any, version: Any, problems: list[str]) -> None:
    """Validate the schema-v2 ``job`` section (optional; serve-layer runs)."""
    if not isinstance(job, dict):
        problems.append(f"job must be an object, got {type(job).__name__}")
        return
    if isinstance(version, int) and version < 2:
        problems.append("job section requires schema_version >= 2")
    if not isinstance(job.get("id"), str) or not job.get("id"):
        problems.append("job.id must be a non-empty string")
    cache = job.get("cache")
    if cache not in JOB_CACHE_STATES:
        problems.append(f"job.cache must be one of {JOB_CACHE_STATES}, got {cache!r}")
    for key in ("submitted_unix", "started_unix", "finished_unix"):
        v = job.get(key)
        if v is not None and not _is_num(v):
            problems.append(f"job.{key} must be a number or null")
    race = job.get("race")
    if race is None:
        return
    if not isinstance(race, dict):
        problems.append("job.race must be an object")
        return
    k = race.get("k")
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        problems.append("job.race.k must be a positive integer")
    if not isinstance(race.get("policy"), str):
        problems.append("job.race.policy must be a string")
    attempts = race.get("attempts", [])
    if not isinstance(attempts, list):
        problems.append("job.race.attempts must be a list")
    else:
        for i, a in enumerate(attempts):
            if not isinstance(a, dict) or not isinstance(a.get("status"), str):
                problems.append(f"job.race.attempts[{i}] needs a string 'status'")
    cancelled = race.get("cancelled", 0)
    if not isinstance(cancelled, int) or isinstance(cancelled, bool) or cancelled < 0:
        problems.append("job.race.cancelled must be a non-negative integer")


def _check_clock(clock: Any, version: Any, problems: list[str]) -> None:
    """Validate the schema-v3 ``clock`` section (optional)."""
    if not isinstance(clock, dict):
        problems.append(f"clock must be an object, got {type(clock).__name__}")
        return
    if isinstance(version, int) and version < 3:
        problems.append("clock section requires schema_version >= 3")
    model = clock.get("model")
    if not isinstance(model, str) or not model:
        problems.append("clock.model must be a non-empty string")
    for key in ("n_sinks",):
        v = clock.get(key)
        if v is not None and (not isinstance(v, int) or isinstance(v, bool) or v < 0):
            problems.append(f"clock.{key} must be a non-negative integer or absent")
    for key in ("worst_skew_ns", "mean_abs_skew_ns", "skew_per_region_ns"):
        v = clock.get(key)
        if v is not None and not _is_num(v):
            problems.append(f"clock.{key} must be a number or absent")
    htree = clock.get("htree")
    if htree is not None and not isinstance(htree, dict):
        problems.append("clock.htree must be an object or absent")


def validate_report(doc: Any) -> list[str]:
    """Check a report document against the schema; returns problems found."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"report must be a JSON object, got {type(doc).__name__}"]
    if doc.get("kind") != REPORT_KIND:
        problems.append(f"kind must be {REPORT_KIND!r}, got {doc.get('kind')!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append("schema_version must be an integer")
    elif not 1 <= version <= SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} outside supported range 1..{SCHEMA_VERSION}"
        )
    for key in ("meta", "quality"):
        if not isinstance(doc.get(key, {}), dict):
            problems.append(f"{key} must be an object")

    spans = doc.get("spans", [])
    if not isinstance(spans, list):
        problems.append("spans must be a list")
    else:
        for i, sp in enumerate(spans):
            _check_span(sp, f"spans[{i}]", problems)

    metrics = doc.get("metrics", {})
    if not isinstance(metrics, dict):
        problems.append("metrics must be an object")
    else:
        for family in ("counters", "gauges"):
            fam = metrics.get(family, {})
            if not isinstance(fam, dict) or any(not _is_num(v) for v in fam.values()):
                problems.append(f"metrics.{family} must map names to numbers")
        hists = metrics.get("histograms", {})
        if not isinstance(hists, dict):
            problems.append("metrics.histograms must be an object")
        else:
            for name, h in hists.items():
                if not isinstance(h, dict) or not all(
                    _is_num(h.get(k)) for k in ("count", "sum", "min", "max", "mean")
                ):
                    problems.append(
                        f"metrics.histograms[{name!r}] needs numeric "
                        "count/sum/min/max/mean"
                    )

    health = doc.get("health", {})
    if not isinstance(health, dict):
        problems.append("health must be an object")
    else:
        if not isinstance(health.get("degraded", False), bool):
            problems.append("health.degraded must be a boolean")
        events = health.get("events", [])
        if not isinstance(events, list):
            problems.append("health.events must be a list")
        else:
            for i, e in enumerate(events):
                if not isinstance(e, dict) or not all(
                    isinstance(e.get(k), str) for k in ("stage", "kind", "detail")
                ):
                    problems.append(
                        f"health.events[{i}] needs string stage/kind/detail"
                    )

    if "job" in doc:
        _check_job(doc["job"], version, problems)
    if "clock" in doc:
        _check_clock(doc["clock"], version, problems)
    return problems


# ----------------------------------------------------------------------
# aggregation + rendering helpers
# ----------------------------------------------------------------------
def aggregate_spans(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Fold a span forest into per-name totals.

    Returns ``{name: {"wall_s", "cpu_s", "count"}}`` over every span at any
    depth — the stage-breakdown view the benchmark harness persists.
    """
    agg: dict[str, dict[str, float]] = {}
    stack = list(spans)
    while stack:
        sp = stack.pop()
        row = agg.setdefault(sp["name"], {"wall_s": 0.0, "cpu_s": 0.0, "count": 0})
        row["wall_s"] += float(sp.get("wall_s", 0.0))
        row["cpu_s"] += float(sp.get("cpu_s", 0.0))
        row["count"] += 1
        stack.extend(sp.get("children", ()))
    return agg


def render_trace(spans: list[dict[str, Any]], indent: int = 0) -> str:
    """Human-readable span tree (the CLI's ``--trace`` output)."""
    lines: list[str] = []
    for sp in spans:
        pad = "  " * indent
        extras = ""
        attrs = sp.get("attrs")
        if attrs:
            extras = "  " + " ".join(f"{k}={v}" for k, v in attrs.items())
        lines.append(
            f"{pad}{sp['name']:<{max(36 - 2 * indent, 8)}} "
            f"wall {sp['wall_s']:8.4f}s  cpu {sp['cpu_s']:8.4f}s{extras}"
        )
        children = sp.get("children")
        if children:
            lines.append(render_trace(children, indent + 1))
    return "\n".join(lines)


def _main(argv: list[str] | None = None) -> int:
    """Validate saved RunReport files (CI entry point)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="validate RunReport JSON files against the schema",
    )
    parser.add_argument("paths", nargs="+", help="RunReport JSON file(s)")
    args = parser.parse_args(argv)
    rc = 0
    for path in args.paths:
        try:
            doc = json.loads(open(path).read())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}")
            rc = 1
            continue
        problems = validate_report(doc)
        if problems:
            print(f"{path}: INVALID")
            for p in problems:
                print(f"  - {p}")
            rc = 1
        else:
            print(f"{path}: ok (schema v{doc['schema_version']})")
    return rc
