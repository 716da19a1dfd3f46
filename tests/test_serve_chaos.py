"""Chaos-testing the serve layer: crashes, injected faults, stalls.

Fault scripts are built with :class:`~repro.robustness.FaultInjector`,
serialized via ``to_specs`` and replayed *inside* the worker processes —
the same machinery the in-process chaos suite uses, shipped across the
process boundary. Every attempt of a job replays the same script.
"""

import pytest

from repro.errors import WorkerCrashError
from repro.placers.api import PlacementRequest
from repro.robustness import CRASH_EXIT_CODE, EVERY_CALL, FaultInjector
from repro.serve import PlacementServer

FAST = {"outer_iterations": 1}


def chaos_request(injector: FaultInjector, **overrides) -> PlacementRequest:
    doc = {
        "suite": "ismartdnn",
        "scale": 0.02,
        "seed": 0,
        "config": FAST,
        "faults": tuple(injector.to_specs()),
    }
    doc.update(overrides)
    return PlacementRequest(**doc)


@pytest.fixture()
def server():
    with PlacementServer(workers=2) as srv:
        yield srv


class TestWorkerCrash:
    def test_crash_becomes_failed_job_not_a_hang(self, server, small_dev, mini_accel):
        req = chaos_request(FaultInjector().crash_on("prototype"))
        resp = server.submit(req, netlist=mini_accel, device=small_dev).result(timeout=60)
        assert resp.status == "failed"
        assert resp.error["type"] == "WorkerCrashError"
        assert f"exit code {CRASH_EXIT_CODE}" in resp.error["message"]
        with pytest.raises(WorkerCrashError, match="without a result"):
            resp.raise_for_status()

    def test_crashed_jobs_never_poison_the_cache(self, server, small_dev, mini_accel):
        req = chaos_request(FaultInjector().crash_on("prototype"))
        resp = server.submit(req, netlist=mini_accel, device=small_dev).result(timeout=60)
        assert resp.cache == "bypass"  # chaos requests skip the cache entirely
        assert server.cache.stats()["entries"] == 0

    def test_server_survives_a_crash(self, server, small_dev, mini_accel):
        crash = chaos_request(FaultInjector().crash_on("prototype"))
        server.submit(crash, netlist=mini_accel, device=small_dev)
        healthy = server.submit(
            PlacementRequest(suite="ismartdnn", scale=0.02, seed=1, config=FAST),
            netlist=mini_accel,
            device=small_dev,
        )
        assert server.drain(timeout=240)
        assert healthy.result().ok

    def test_crash_in_race_fails_every_attempt(self, server, small_dev, mini_accel):
        # fault scripts replay in every attempt, so all k workers die; the
        # job must still resolve (failed), not hang on a half-dead race
        req = chaos_request(FaultInjector().crash_on("prototype"), race_k=2)
        resp = server.submit(req, netlist=mini_accel, device=small_dev).result(timeout=120)
        assert resp.status == "failed"
        assert resp.error["type"] == "WorkerCrashError"


class TestInjectedFaults:
    def test_solver_fault_degrades_but_serves(self, server, small_dev, mini_accel):
        """A solver fault inside the worker engages the in-flow fallback
        (inter-column ILP → greedy): the job still succeeds and the health
        section shows the damage."""
        req = chaos_request(FaultInjector().fail_on("legalization.ilp", call=EVERY_CALL))
        resp = server.submit(req, netlist=mini_accel, device=small_dev).result(timeout=120)
        resp.raise_for_status()
        assert resp.quality["legal"]
        events = resp.report["health"]["events"]
        assert any(e["kind"] == "fallback" for e in events)
        assert any(e["kind"] == "failure" for e in events)

    def test_all_engines_down_rolls_back_but_serves(self, server, small_dev, mini_accel):
        fi = FaultInjector().fail_on("assignment", call=EVERY_CALL)
        resp = server.submit(
            chaos_request(fi), netlist=mini_accel, device=small_dev
        ).result(timeout=120)
        resp.raise_for_status()
        assert resp.quality["legal"]  # the prototype checkpoint survives
        health = resp.report["health"]
        assert health["degraded"]
        assert any(e["kind"] == "rollback" for e in health["events"])

    def test_strict_worker_fault_is_a_typed_failure(self, server, small_dev, mini_accel):
        from repro.errors import SolverError

        fi = FaultInjector().fail_on("assignment", call=EVERY_CALL)
        req = chaos_request(fi, config={"outer_iterations": 1, "strict": True})
        resp = server.submit(req, netlist=mini_accel, device=small_dev).result(timeout=120)
        assert resp.status == "failed"
        with pytest.raises(SolverError):
            resp.raise_for_status()


class TestAttemptTimeout:
    def test_stalled_worker_is_terminated(self, small_dev, mini_accel):
        with PlacementServer(workers=1, attempt_timeout_s=1.0) as srv:
            req = chaos_request(FaultInjector().stall_on("prototype", seconds=60.0))
            resp = srv.submit(req, netlist=mini_accel, device=small_dev).result(timeout=30)
            assert resp.status == "failed"
            assert resp.error["type"] == "WorkerCrashError"
            assert "exceeded" in resp.error["message"]
