"""Process-local metrics registry: counters, gauges and histograms.

Instrumented code records through the ambient module-level helpers::

    from repro.obs import metrics

    metrics.inc("isotonic.blocks", len(blocks))  # monotonic counter
    metrics.gauge("router.wirelength_um", wl)    # last-value-wins
    metrics.observe("assignment.objective", o)   # streaming histogram

All three are single-list-check no-ops when no
:class:`~repro.obs.Observation` is active. Registries merge across stages
(counters add, gauges last-write-wins, histograms combine), which is how a
multi-run harness folds per-run registries into one report.
"""

from __future__ import annotations

import math
import numbers
from typing import Any

from repro.obs import _runtime

__all__ = ["Histogram", "MetricsRegistry", "inc", "gauge", "observe"]


def _num(value: Any) -> int | float:
    if isinstance(value, numbers.Integral):
        return int(value)
    return float(value)


class Histogram:
    """Streaming summary (count / sum / min / max) of observed samples."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def to_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, float]) -> "Histogram":
        h = cls()
        h.count = int(doc["count"])
        h.total = float(doc["sum"])
        if h.count:
            h.min = float(doc["min"])
            h.max = float(doc["max"])
        return h


class MetricsRegistry:
    """One run's counters, gauges and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- aggregation ----------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters add, gauges win-last,
        histograms combine); returns ``self``."""
        for name, value in other.counters.items():
            self.inc(name, value)
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                merged = Histogram()
                merged.merge(hist)
                self.histograms[name] = merged
            else:
                mine.merge(hist)
        return self

    def names(self) -> set[str]:
        """Every distinct metric name across all three families."""
        return set(self.counters) | set(self.gauges) | set(self.histograms)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": {k: _num(v) for k, v in self.counters.items()},
            "gauges": {k: _num(v) for k, v in self.gauges.items()},
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "MetricsRegistry":
        reg = cls()
        reg.counters.update(doc.get("counters", {}))
        reg.gauges.update({k: float(v) for k, v in doc.get("gauges", {}).items()})
        for name, hdoc in doc.get("histograms", {}).items():
            reg.histograms[name] = Histogram.from_dict(hdoc)
        return reg


# ----------------------------------------------------------------------
# ambient helpers — no-ops unless an observation is active
# ----------------------------------------------------------------------
def inc(name: str, value: float = 1) -> None:
    ob = _runtime.active()
    if ob is not None:
        ob.metrics.inc(name, value)


def gauge(name: str, value: float) -> None:
    ob = _runtime.active()
    if ob is not None:
        ob.metrics.gauge(name, value)


def observe(name: str, value: float) -> None:
    ob = _runtime.active()
    if ob is not None:
        ob.metrics.observe(name, value)
