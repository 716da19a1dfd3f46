"""Deterministic fault injection for chaos-testing the pipeline.

Every guarded stage calls :func:`maybe_fault` with its stage name before
doing real work. With no injector installed that is a no-op costing one
global read; under :func:`inject` the active :class:`FaultInjector` counts
the call and — if a scripted fault matches this stage and call number —
stalls (``time.sleep``) and/or raises a typed error. Faults are scripted
up-front and keyed on (stage, Nth call), so a chaos test replays bit-for-bit.

Instrumented stage names:

- ``assignment`` — one per-iterate assignment solve;
- ``legalization.ilp`` / ``legalization.greedy`` — one inter-column attempt;
- ``incremental`` — one other-component re-place (outer iteration);
- ``prototype`` — the initial base-placer run.

Scripted faults also serialize (:meth:`FaultInjector.to_specs` /
:meth:`FaultInjector.from_specs`) so the serve layer can ship a fault
script across a process boundary and replay it *inside* a placement worker
— that is how the chaos suite proves worker-side fallbacks and crash
handling. The ``crash`` kind hard-kills the process via ``os._exit`` (no
exception, no cleanup), modelling an OOM kill or segfault.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SolverConvergenceError

__all__ = ["FaultInjector", "inject", "maybe_fault", "active_injector", "CRASH_EXIT_CODE"]

#: matches every call of a stage when used as the ``call`` argument
EVERY_CALL = 0


#: default exit code of a ``crash`` fault (chosen to be distinctive)
CRASH_EXIT_CODE = 66


@dataclass(frozen=True)
class _Fault:
    stage: str
    call: int  # 1-based Nth call; EVERY_CALL matches all
    exc: Exception | None
    stall_s: float
    crash_code: int | None = None  # os._exit code; None = no crash


@dataclass
class FaultInjector:
    """Scripted, counted faults. Install with :func:`inject`."""

    _faults: list[_Fault] = field(default_factory=list)
    _counts: dict[str, int] = field(default_factory=dict)
    _fired: list[tuple[str, int]] = field(default_factory=list)

    # -- scripting ------------------------------------------------------
    def fail_on(
        self, stage: str, call: int = 1, exc: Exception | None = None
    ) -> "FaultInjector":
        """Make ``stage`` raise on its ``call``-th invocation.

        ``exc`` defaults to a :class:`SolverConvergenceError`; pass
        ``call=EVERY_CALL`` (0) to fail every invocation.
        """
        exc = exc if exc is not None else SolverConvergenceError(
            f"injected fault in {stage!r}"
        )
        self._faults.append(_Fault(stage=stage, call=call, exc=exc, stall_s=0.0))
        return self

    def stall_on(self, stage: str, call: int = 1, seconds: float = 0.05) -> "FaultInjector":
        """Make ``stage`` sleep ``seconds`` on its ``call``-th invocation."""
        self._faults.append(_Fault(stage=stage, call=call, exc=None, stall_s=seconds))
        return self

    def crash_on(
        self, stage: str, call: int = 1, exitcode: int = CRASH_EXIT_CODE
    ) -> "FaultInjector":
        """Hard-kill the process (``os._exit``) on ``stage``'s Nth call.

        Models a worker dying without a traceback — the serve layer must
        turn this into a failed job, not a hang. Never use outside a
        sacrificial subprocess.
        """
        self._faults.append(
            _Fault(stage=stage, call=call, exc=None, stall_s=0.0, crash_code=exitcode)
        )
        return self

    # -- serialization (for shipping scripts into worker processes) -----
    def to_specs(self) -> list[dict]:
        """Plain-dict view of the scripted faults (JSON/pickle friendly).

        A ``fail`` spec always reconstructs as the default
        :class:`~repro.errors.SolverConvergenceError` — custom exception
        objects do not survive the round trip.
        """
        specs: list[dict] = []
        for f in self._faults:
            if f.crash_code is not None:
                specs.append(
                    {"stage": f.stage, "call": f.call, "kind": "crash", "exitcode": f.crash_code}
                )
            elif f.exc is not None:
                specs.append({"stage": f.stage, "call": f.call, "kind": "fail"})
            else:
                specs.append(
                    {"stage": f.stage, "call": f.call, "kind": "stall", "seconds": f.stall_s}
                )
        return specs

    @classmethod
    def from_specs(cls, specs: "list[dict] | tuple[dict, ...]") -> "FaultInjector":
        """Rebuild an injector from :meth:`to_specs` output."""
        inj = cls()
        for spec in specs:
            kind = spec.get("kind", "fail")
            stage = spec["stage"]
            call = int(spec.get("call", 1))
            if kind == "fail":
                inj.fail_on(stage, call=call)
            elif kind == "stall":
                inj.stall_on(stage, call=call, seconds=float(spec.get("seconds", 0.05)))
            elif kind == "crash":
                inj.crash_on(stage, call=call, exitcode=int(spec.get("exitcode", CRASH_EXIT_CODE)))
            else:
                raise ValueError(f"unknown fault spec kind {kind!r}")
        return inj

    # -- runtime --------------------------------------------------------
    def fire(self, stage: str) -> None:
        """Count one call of ``stage`` and apply any matching fault."""
        n = self._counts.get(stage, 0) + 1
        self._counts[stage] = n
        for fault in self._faults:
            if fault.stage != stage or fault.call not in (EVERY_CALL, n):
                continue
            self._fired.append((stage, n))
            if fault.crash_code is not None:
                import os

                os._exit(fault.crash_code)
            if fault.stall_s > 0:
                import time

                time.sleep(fault.stall_s)
            if fault.exc is not None:
                raise fault.exc

    # -- inspection -----------------------------------------------------
    def calls(self, stage: str) -> int:
        """How many times ``stage`` has run under this injector."""
        return self._counts.get(stage, 0)

    @property
    def fired(self) -> list[tuple[str, int]]:
        """(stage, call_number) of every fault that actually triggered."""
        return list(self._fired)


_active: FaultInjector | None = None


def active_injector() -> FaultInjector | None:
    return _active


def maybe_fault(stage: str) -> None:
    """Hook called by instrumented stages; no-op unless an injector is live."""
    if _active is not None:
        _active.fire(stage)


@contextmanager
def inject(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` process-wide for the duration of the block."""
    global _active
    prev = _active
    _active = injector
    try:
        yield injector
    finally:
        _active = prev
