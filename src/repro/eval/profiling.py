"""Runtime profiling (paper Fig. 8): per-stage breakdown of a DSPlacer run.

Spans are the flow's only clock: :meth:`RuntimeBreakdown.from_spans` folds
one run's ``place`` span and its ``route`` span into Fig. 8's rows, and
:func:`traced` collects those spans without hiding them from an enclosing
observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro import obs
from repro.obs import Span

#: the ``place.<stage>`` spans that make Fig. 8's rows, in flow order
FIG8_STAGES = (
    "validation",
    "prototype",
    "extraction",
    "assignment",
    "legalization",
    "incremental",
    "selection",
)


def traced(name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, Span]:
    """Call ``fn`` observed; return its result and the last ``name`` span opened.

    Observation blocks are innermost-wins, so a nested ``observe()`` would
    hide this call's spans from an enclosing one (the bench harness's
    stage-breakdown artifact): the call records into the active
    observation and opens its own only when none is active.
    """
    ob = obs.active()
    if ob is None:
        with obs.observe() as ob:
            out = fn(*args, **kwargs)
    else:
        out = fn(*args, **kwargs)
    # depth-first order is the order the spans were opened in
    return out, ob.tracer.find(name)[-1]


def stage_seconds(place: Span) -> dict[str, float]:
    """Wall seconds of each :data:`FIG8_STAGES` span under ``place``.

    A stage that repeats per outer iteration (assignment, legalization,
    incremental) sums over its spans; one that did not run reads 0.
    """
    names = {f"place.{stage}": stage for stage in FIG8_STAGES}
    seconds = dict.fromkeys(FIG8_STAGES, 0.0)
    for sp in place.iter():
        stage = names.get(sp.name)
        if stage is not None:
            seconds[stage] += sp.wall_s
    return seconds


@dataclass(frozen=True)
class RuntimeBreakdown:
    """Seconds and percentages per flow phase."""

    benchmark: str
    seconds: dict[str, float]

    @classmethod
    def from_spans(cls, benchmark: str, place: Span, route: Span) -> "RuntimeBreakdown":
        """Fig. 8's rows: the :data:`FIG8_STAGES` of ``place``, the rest of
        its wall as ``unattributed``, and ``route``'s wall as ``routing``."""
        seconds = stage_seconds(place)
        seconds["unattributed"] = place.wall_s - sum(seconds.values())
        seconds["routing"] = route.wall_s
        return cls(benchmark=benchmark, seconds=seconds)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    @property
    def percentages(self) -> dict[str, float]:
        total = max(self.total, 1e-12)
        return {k: 100.0 * v / total for k, v in self.seconds.items()}

    def rows(self) -> list[tuple[str, float, float]]:
        """(phase, seconds, pct) rows sorted by share, for table rendering."""
        pct = self.percentages
        return sorted(
            ((k, v, pct[k]) for k, v in self.seconds.items()),
            key=lambda r: -r[1],
        )
