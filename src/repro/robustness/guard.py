"""SolverGuard: wall-clock budgets + deterministic fallback chains.

One guard is created per pipeline stage invocation (e.g. "legalization"
for one outer iteration). :meth:`SolverGuard.run` tries a chain of named
solver attempts in order (the cascade legalizer's ILP, then greedy),
absorbing :class:`~repro.errors.SolverError` /
:class:`~repro.errors.LegalizationError` and recording every fallback into
the shared :class:`~repro.robustness.health.RunHealth`. The budget is
cooperative: it is checked between attempts and wherever the stage itself
calls :meth:`check_budget` / :meth:`over_budget` — Python cannot preempt a
running solve, so a stalled attempt finishes and the overrun is recorded
(and further work in that stage is refused).
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

from repro.errors import LegalizationError, SolverError, StageBudgetExceeded
from repro.robustness.health import RunHealth

T = TypeVar("T")

#: exception types a fallback chain may absorb — deliberately *not*
#: ReproError: validation/config/budget trouble must propagate.
RECOVERABLE = (SolverError, LegalizationError)


class SolverGuard:
    """Guards one stage's solver calls with a budget and fallback chain."""

    def __init__(
        self,
        stage: str,
        health: RunHealth,
        budget_s: float | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.stage = stage
        self.health = health
        self.budget_s = budget_s
        self._clock = clock
        self._t0 = clock()
        self._budget_recorded = False

    # -- budget ---------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    @property
    def over_budget(self) -> bool:
        return self.budget_s is not None and self.elapsed_s > self.budget_s

    def note_budget(self, detail: str) -> None:
        """Record the budget overrun once (stages may check repeatedly)."""
        if not self._budget_recorded:
            self._budget_recorded = True
            self.health.record(self.stage, "budget", detail)

    def check_budget(self) -> None:
        """Raise :class:`StageBudgetExceeded` if the budget is exhausted."""
        if self.over_budget:
            self.note_budget(
                f"{self.budget_s:.3g}s budget exhausted after {self.elapsed_s:.3g}s"
            )
            raise StageBudgetExceeded(self.stage, float(self.budget_s), self.elapsed_s)

    # -- fallback chain -------------------------------------------------
    def run(self, attempts: Sequence[tuple[str, Callable[[], T]]]) -> tuple[str, T]:
        """Try ``(name, thunk)`` attempts in order; return the first success.

        Returns ``(engine_name, result)``. Recoverable failures are logged
        and the next attempt runs; between attempts the budget is enforced
        (a chain never *starts* a fallback it has no time for). If every
        attempt fails, the last error propagates.
        """
        if not attempts:
            raise ValueError(f"stage {self.stage!r}: empty fallback chain")
        last: Exception | None = None
        for k, (name, thunk) in enumerate(attempts):
            if k > 0 and self.over_budget:
                self.note_budget(
                    f"{self.budget_s:.3g}s budget exhausted after {self.elapsed_s:.3g}s; "
                    f"skipping fallback {name!r}"
                )
                raise StageBudgetExceeded(
                    self.stage, float(self.budget_s), self.elapsed_s
                ) from last
            try:
                result = thunk()
            except RECOVERABLE as exc:
                self.health.record(self.stage, "failure", f"{name}: {exc}")
                last = exc
                continue
            if k > 0:
                self.health.record(
                    self.stage, "fallback", f"{attempts[0][0]} → {name}"
                )
            if self.over_budget:
                self.note_budget(
                    f"{name} finished {self.elapsed_s - float(self.budget_s):.3g}s "
                    f"over the {self.budget_s:.3g}s budget"
                )
            return name, result
        assert last is not None
        raise last
