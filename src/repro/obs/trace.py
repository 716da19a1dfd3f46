"""Hierarchical tracing spans with wall/CPU time, nesting and attributes.

Instrumented code opens spans through the ambient module-level helper::

    from repro.obs import trace

    with trace.span("assignment.iterate", i=3) as sp:
        ...
        sp.add("arcs", len(arcs))        # per-span counter
        sp.set(objective=obj)            # per-span attribute

With no active :class:`~repro.obs.Observation` (the default), ``span``
returns a shared no-op singleton, so the disabled overhead is one list
check per call. Clocks are injectable on :class:`Tracer` so tests can pin
span timings deterministically.
"""

from __future__ import annotations

import numbers
import time
from typing import Any, Callable, Iterator

from repro.obs import _runtime

__all__ = ["Span", "Tracer", "NULL_SPAN", "span", "current", "enabled"]


def _jsonable(value: Any) -> Any:
    """Coerce an attribute/counter value to a JSON-serializable scalar."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


class Span:
    """One timed, named region of the flow; nests to form the trace tree."""

    __slots__ = ("name", "attrs", "counters", "wall_s", "cpu_s", "children")

    def __init__(self, name: str, attrs: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attrs: dict[str, Any] = dict(attrs) if attrs else {}
        self.counters: dict[str, float] = {}
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children: list[Span] = []

    def add(self, counter: str, value: float = 1) -> None:
        """Bump a per-span counter."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span."""
        self.attrs.update(attrs)

    def iter(self) -> Iterator["Span"]:
        """Depth-first over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.iter()

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "wall_s": float(self.wall_s),
            "cpu_s": float(self.cpu_s),
        }
        if self.attrs:
            doc["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if self.counters:
            doc["counters"] = {k: _jsonable(v) for k, v in self.counters.items()}
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall={self.wall_s:.4g}s, children={len(self.children)})"


class _NullSpan:
    """No-op stand-in returned when observability is disabled."""

    __slots__ = ()
    name = ""
    attrs: dict[str, Any] = {}
    counters: dict[str, float] = {}
    wall_s = 0.0
    cpu_s = 0.0
    children: list[Span] = []

    def add(self, counter: str, value: float = 1) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager for one live span on one tracer."""

    __slots__ = ("_tracer", "_span", "_t0", "_c0")

    def __init__(self, tracer: "Tracer", sp: Span) -> None:
        self._tracer = tracer
        self._span = sp

    def __enter__(self) -> Span:
        tr = self._tracer
        parent = tr._stack[-1] if tr._stack else None
        (parent.children if parent is not None else tr.roots).append(self._span)
        tr._stack.append(self._span)
        self._t0 = tr._clock()
        self._c0 = tr._cpu_clock()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        tr = self._tracer
        sp = self._span
        sp.wall_s = tr._clock() - self._t0
        sp.cpu_s = tr._cpu_clock() - self._c0
        if exc_type is not None:
            sp.attrs.setdefault("error", exc_type.__name__)
        tr._stack.pop()
        return False


class Tracer:
    """Collects a forest of spans; clocks injectable for determinism."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
    ) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a child span of the current span (or a new root)."""
        return _SpanContext(self, Span(name, attrs))

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def iter_spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.iter()

    def find(self, name: str) -> list[Span]:
        """Every (completed or live) span with this exact name."""
        return [sp for sp in self.iter_spans() if sp.name == name]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [root.to_dict() for root in self.roots]


# ----------------------------------------------------------------------
# ambient helpers — the instrumentation surface used across the flow
# ----------------------------------------------------------------------
def span(name: str, **attrs: Any):
    """Open a span on the active observation; no-op when disabled."""
    ob = _runtime.active()
    if ob is None:
        return NULL_SPAN
    return ob.tracer.span(name, **attrs)


def current() -> Span | None:
    """The innermost live span, or ``None``."""
    ob = _runtime.active()
    return ob.tracer.current if ob is not None else None


def enabled() -> bool:
    """True when an observation is active (spans/metrics are recorded)."""
    return _runtime.active() is not None
