"""Chaos suite: deterministic fault injection proves every fallback engages.

Covers the acceptance paths: (b) ILP blowup → greedy inter-column
fallback, (c) stage failure (an assignment solve, the re-place) → rollback
to the last completed legal iterate, (d) budget exhaustion → degraded-but-legal
result — plus strict-mode re-raises and unit coverage of the
guard/injector/health primitives themselves.
"""

import re
from pathlib import Path

import pytest

from repro import obs
from repro.core import DSPlacer, DSPlacerConfig
from repro.errors import (
    ReproError,
    SolverConvergenceError,
    SolverError,
    StageBudgetExceeded,
)
from repro.robustness import (
    EVERY_CALL,
    FaultInjector,
    RunHealth,
    SolverGuard,
    inject,
    maybe_fault,
)

CFG = dict(identification="oracle", mcf_iterations=4, seed=0)


def _place(small_dev, mini_accel, **over):
    placer = DSPlacer(small_dev, DSPlacerConfig(**{**CFG, **over}))
    return placer.place(mini_accel)


class TestLegalizationFallback:
    """(b) inter-column ILP blowup degrades to the greedy packer."""

    def test_ilp_fault_falls_back_to_greedy(self, small_dev, mini_accel):
        fi = FaultInjector().fail_on("legalization.ilp", call=EVERY_CALL)
        with inject(fi):
            res = _place(small_dev, mini_accel)
        assert res.placement.is_legal()
        assert fi.calls("legalization.greedy") >= 1
        assert any(
            e.stage == "legalization" and e.kind == "fallback"
            for e in res.health.events
        )


class TestRollback:
    """(c) a failing stage rolls the run back to the last completed legal
    iterate."""

    def test_incremental_failure_rolls_back(self, small_dev, mini_accel):
        fi = FaultInjector().fail_on("incremental", call=1)
        with inject(fi):
            res = _place(small_dev, mini_accel)
        assert res.placement.is_legal()
        assert res.health.degraded
        assert res.health.n_rollbacks >= 1

    def test_all_assignment_engines_down_still_returns_legal(
        self, small_dev, mini_accel
    ):
        fi = FaultInjector().fail_on("assignment", call=EVERY_CALL)
        with inject(fi):
            res = _place(small_dev, mini_accel)
        assert fi.fired  # the solve was reached, and it failed
        assert res.placement.is_legal()  # the prototype checkpoint survives
        assert res.health.degraded
        assert res.health.n_rollbacks >= 1

    def test_strict_mode_raises_instead(self, small_dev, mini_accel):
        fi = FaultInjector().fail_on("assignment", call=EVERY_CALL)
        with inject(fi):
            with pytest.raises(SolverError):
                _place(small_dev, mini_accel, strict=True)

    def test_strict_mode_raises_on_incremental_fault(self, small_dev, mini_accel):
        fi = FaultInjector().fail_on("incremental", call=1)
        with inject(fi):
            with pytest.raises(ReproError):
                _place(small_dev, mini_accel, strict=True)


class TestBudget:
    """(d) stage budget exhaustion truncates work but stays legal."""

    def test_stalled_assignment_degrades_legally(self, small_dev, mini_accel):
        fi = FaultInjector().stall_on("assignment", call=1, seconds=0.25)
        with inject(fi), obs.observe():
            res = _place(small_dev, mini_accel, stage_budget_s=0.05)
        assert res.placement.is_legal()
        assert res.health.degraded
        assert res.health.n_budget_hits >= 1
        assert res.report.metrics["counters"]["assignment.iterates"] == 1  # the iterates that ran

    def test_overrun_by_the_last_iterate_is_recorded(self, small_dev, mini_accel):
        """A solve is never pre-empted: when the stalled iterate is also the
        last one, the loop still records the overrun it could not stop."""
        fi = FaultInjector().stall_on("assignment", call=1, seconds=0.25)
        with inject(fi):
            res = _place(small_dev, mini_accel, stage_budget_s=0.05, mcf_iterations=1)
        assert res.placement.is_legal()
        assert res.health.degraded
        assert [e.stage for e in res.health.events if e.kind == "budget"] == ["assignment"]

    def test_strict_budget_raises(self, small_dev, mini_accel):
        fi = FaultInjector().stall_on("assignment", call=1, seconds=0.25)
        with inject(fi):
            with pytest.raises(StageBudgetExceeded):
                _place(small_dev, mini_accel, stage_budget_s=0.05, strict=True)


class TestNoFaults:
    def test_clean_run_reports_healthy_events_only(self, small_dev, mini_accel):
        res = _place(small_dev, mini_accel)
        assert res.placement.is_legal()
        assert res.health.n_fallbacks == 0
        assert res.health.n_budget_hits == 0
        assert res.health.n_warnings == 0
        # the flow returns its last iterate: a fault-free run logs nothing
        assert res.health.events == []
        assert res.health.degraded is False


class TestGuardUnit:
    def test_fallback_chain_records_and_returns_first_success(self):
        health = RunHealth()
        guard = SolverGuard("stage", health)

        def boom():
            raise SolverConvergenceError("nope")

        name, value = guard.run([("a", boom), ("b", lambda: 42)])
        assert (name, value) == ("b", 42)
        assert [e.kind for e in health.events] == ["failure", "fallback"]
        assert not health.degraded  # a successful fallback is not degradation

    def test_all_attempts_fail_raises_last(self):
        guard = SolverGuard("stage", RunHealth())
        with pytest.raises(SolverConvergenceError, match="second"):
            guard.run(
                [
                    ("a", lambda: (_ for _ in ()).throw(SolverConvergenceError("first"))),
                    ("b", lambda: (_ for _ in ()).throw(SolverConvergenceError("second"))),
                ]
            )

    @staticmethod
    def _clock_after(t0, later):
        """First call returns t0 (guard construction), then always `later`."""
        ticks = [t0]
        return lambda: ticks.pop(0) if ticks else later

    def test_budget_blocks_fallbacks(self):
        health = RunHealth()
        guard = SolverGuard(
            "stage", health, budget_s=1.0, clock=self._clock_after(0.0, 10.0)
        )

        def boom():
            raise SolverConvergenceError("nope")

        with pytest.raises(StageBudgetExceeded):
            guard.run([("a", boom), ("b", lambda: 42)])
        assert health.n_budget_hits == 1

    def test_check_budget_raises_when_exhausted(self):
        guard = SolverGuard(
            "stage", RunHealth(), budget_s=1.0, clock=self._clock_after(0.0, 5.0)
        )
        with pytest.raises(StageBudgetExceeded):
            guard.check_budget()


class TestInjectorUnit:
    def test_counts_and_nth_call(self):
        fi = FaultInjector().fail_on("s", call=2)
        with inject(fi):
            maybe_fault("s")  # call 1: fine
            with pytest.raises(SolverConvergenceError):
                maybe_fault("s")  # call 2: boom
            maybe_fault("s")  # call 3: fine again
        assert fi.calls("s") == 3
        assert fi.fired == [("s", 2)]

    def test_inactive_injector_is_noop(self):
        maybe_fault("whatever")  # must not raise outside inject()

    def test_injector_restores_previous(self):
        from repro.robustness import active_injector

        fi = FaultInjector()
        with inject(fi):
            assert active_injector() is fi
        assert active_injector() is None


class TestNoBareRaises:
    """Acceptance: zero bare ValueError/RuntimeError raises in solvers/,
    core/placement/ and the prototype's legalizer — everything goes through
    the typed taxonomy."""

    def test_sources_are_fully_typed(self):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        paths = [
            *sorted((src / "solvers").rglob("*.py")),
            *sorted((src / "core/placement").rglob("*.py")),
            src / "placers/legalizer.py",
        ]
        for path in paths:
            text = path.read_text()
            for m in re.finditer(r"raise (ValueError|RuntimeError)\b", text):
                offenders.append(f"{path.name}: {m.group(0)}")
        assert not offenders, offenders
