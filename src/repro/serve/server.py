"""Placement-as-a-service: job queue + multi-process worker pool + racing.

:class:`PlacementServer` turns placement runs into *jobs*: a
:class:`~repro.placers.api.PlacementRequest` goes in, a
:class:`~repro.placers.api.PlacementResponse` (carrying a schema-valid
:class:`~repro.obs.RunReport`) comes out. Between the two sit:

- a **content-addressed result cache** (:mod:`repro.serve.cache`) — a
  duplicate submission is answered without placing anything;
- a bounded **worker pool** — each attempt runs in its own OS process
  (placement is CPU-bound; processes sidestep the GIL and make a crashed
  solver an *observable event* instead of a dead server), at most
  ``workers`` concurrent;
- **portfolio racing** — a job with ``race_k > 1`` fans out to ``k``
  seeds. Policy ``"best"`` waits for every attempt and keeps the lowest
  HPWL; ``"first"`` keeps the first success and terminates the losers.
  Either way the race is recorded in the winner's RunHealth and in the
  report's ``job.race`` section.

Concurrency model: the server is **caller-pumped**. ``submit`` enqueues
and starts whatever fits in the pool; every ``Job.wait``/``Job.result``/
``drain`` call pumps the scheduler (launch queued attempts, poll worker
pipes, reap finished processes). There is no background thread, so
worker processes are always forked from the calling thread —
deterministic for tests and safe under CPython 3.12's multithreaded-fork
restrictions.

Crash containment: an attempt whose process exits without sending a
result (OOM kill, segfault, a chaos ``crash`` fault) becomes a
:class:`~repro.errors.WorkerCrashError` on that attempt. The job only
fails when *every* attempt failed — a race absorbs individual crashes.
"""

from __future__ import annotations

import copy
import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mpconn
from typing import Any

from repro.errors import ServeError, WorkerCrashError
from repro.obs import metrics
from repro.placers.api import PlacementRequest, PlacementResponse
from repro.robustness import RunHealth
from repro.serve import worker as worker_mod
from repro.serve.cache import CacheEntry, ResultCache, cache_key

__all__ = ["Job", "PlacementServer"]

#: how long one pump blocks waiting for worker messages (seconds)
_POLL_S = 0.02


@dataclass(eq=False)
class _Attempt:
    """One seed of one job, from queued through running to a terminal state."""

    job: "Job"
    seed: int
    status: str = "queued"  # queued | running | ok | failed | cancelled
    proc: Any = None
    conn: Any = None
    body: dict[str, Any] | None = None  # worker's success payload
    error: dict[str, str] | None = None
    started: float | None = None
    finished: float | None = None

    @property
    def done(self) -> bool:
        return self.status in ("ok", "failed", "cancelled")

    @property
    def wall_s(self) -> float | None:
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started

    def summary(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"seed": self.seed, "status": self.status}
        if self.body is not None:
            doc["hpwl_um"] = self.body["quality"]["hpwl_um"]
        if self.error is not None:
            doc["error"] = self.error["type"]
        if self.wall_s is not None:
            doc["wall_s"] = round(self.wall_s, 6)
        return doc


@dataclass(eq=False)
class Job:
    """A submitted placement: poll it, wait on it, or cancel it."""

    id: str
    request: PlacementRequest
    server: "PlacementServer" = field(repr=False)
    netlist: Any = field(repr=False, default=None)
    device: Any = field(repr=False, default=None)
    key: str | None = None
    submitted_unix: float = 0.0
    started_unix: float | None = None
    finished_unix: float | None = None
    cache: str = "bypass"  # hit | miss | bypass
    attempts: list[_Attempt] = field(default_factory=list, repr=False)
    response: PlacementResponse | None = field(default=None, repr=False)
    #: duplicate submissions coalesced onto this in-flight job
    followers: list["Job"] = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        return self.response is not None

    @property
    def status(self) -> str:
        return self.response.status if self.response else "running"

    def wait(self, timeout: float | None = None) -> bool:
        """Pump the server until this job finishes (or ``timeout`` passes)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.done:
            self.server._pump(block_s=_POLL_S)
            if deadline is not None and time.monotonic() >= deadline:
                return self.done
        return True

    def result(self, timeout: float | None = None) -> PlacementResponse:
        """Block for the response; raises :class:`ServeError` on timeout."""
        if not self.wait(timeout):
            raise ServeError(f"job {self.id} did not finish within {timeout}s")
        assert self.response is not None
        return self.response

    def cancel(self) -> None:
        """Stop the job: queued attempts are dropped, running ones killed."""
        self.server._cancel_job(self)


class PlacementServer:
    """The job orchestrator. Use as a context manager::

        with PlacementServer(workers=4) as server:
            job = server.submit(PlacementRequest(suite="skynet", scale=0.05))
            response = job.result(timeout=300)
            response.raise_for_status()

    Args:
        workers: Max concurrent placement processes (≥ 1).
        cache: A shared :class:`ResultCache`; default a fresh per-server one.
        attempt_timeout_s: Hard wall-clock cap per attempt — a worker past
            it is terminated and counted as crashed. ``None`` disables.

    Workers start with ``fork`` where the platform has it (cheap, inherits
    imports), else ``spawn``.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        cache: ResultCache | None = None,
        attempt_timeout_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ServeError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.cache = cache if cache is not None else ResultCache()
        self._ctx = multiprocessing.get_context("fork" if hasattr(os, "fork") else "spawn")
        self.attempt_timeout_s = attempt_timeout_s
        self.jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}
        self._queue: deque[_Attempt] = deque()
        self._running: list[_Attempt] = []
        self._ids = itertools.count(1)
        self._lock = threading.RLock()
        self._closed = False

    # -- submission -----------------------------------------------------
    def submit(
        self, request: PlacementRequest, *, netlist: Any = None, device: Any = None
    ) -> Job:
        """Enqueue a placement job; returns immediately.

        ``netlist``/``device`` default to materializing the request's
        suite at its scale — passed explicitly they let callers serve
        arbitrary workloads (and tests serve tiny ones). The workload is
        materialized *here*, once, so every race attempt places the same
        netlist and the cache key covers real content, not a description.
        """
        if self._closed:
            raise ServeError("server is closed")
        if device is None:
            from repro.fpga import fabric_device

            device = fabric_device(request.fabric, request.scale)
        if netlist is None:
            from repro.accelgen import generate_suite

            netlist = generate_suite(
                request.suite,
                scale=request.scale,
                device=device,
                seed=request.effective_netlist_seed,
            )

        now = time.time()
        with self._lock:
            job = Job(
                id=f"job-{next(self._ids):04d}",
                request=request,
                server=self,
                netlist=netlist,
                device=device,
                submitted_unix=now,
            )
            self.jobs[job.id] = job
            cacheable = request.use_cache and not request.faults
            if cacheable:
                job.key = cache_key(netlist, device, request)
                job.cache = "miss"
                entry = self.cache.get(job.key)
                if entry is not None:
                    self._finish_from_cache(job, entry)
                    return job
                leader = self._inflight.get(job.key)
                if leader is not None and not leader.done:
                    # identical job already running: coalesce instead of
                    # placing the same workload twice concurrently
                    leader.followers.append(job)
                    metrics.inc("serve.jobs.coalesced")
                    return job
                self._inflight[job.key] = job
            metrics.inc("serve.jobs.submitted")
            job.attempts = [_Attempt(job=job, seed=s) for s in request.attempt_seeds()]
            self._queue.extend(job.attempts)
            self._launch_ready()
        return job

    def drain(self, timeout: float | None = None) -> bool:
        """Pump until every submitted job is finished."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                pending = [j for j in self.jobs.values() if not j.done]
            if not pending:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            self._pump(block_s=_POLL_S)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Cancel everything in flight and reap all worker processes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for job in list(self.jobs.values()):
                if not job.done:
                    self._cancel_job_locked(job)

    def __enter__(self) -> "PlacementServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.status] = states.get(job.status, 0) + 1
            return {
                "jobs": dict(sorted(states.items())),
                "queued_attempts": len(self._queue),
                "running_attempts": len(self._running),
                "cache": self.cache.stats(),
            }

    # -- scheduler ------------------------------------------------------
    def _pump(self, block_s: float = 0.0) -> None:
        """One scheduler step: launch, poll worker pipes, reap, finalize."""
        with self._lock:
            self._launch_ready()
            conns = [a.conn for a in self._running]
        if conns:
            try:
                ready = set(mpconn.wait(conns, timeout=block_s))
            except OSError:
                # a concurrent cancel closed a pipe mid-wait; re-enter
                ready = set()
        else:
            ready = set()
            if block_s:
                time.sleep(min(block_s, 0.005))
        with self._lock:
            now = time.time()
            touched: list[Job] = []
            for attempt in list(self._running):
                if attempt.conn in ready or attempt.conn.poll():
                    self._read_attempt(attempt)
                elif attempt.proc is not None and not attempt.proc.is_alive():
                    self._crash_attempt(attempt)
                elif (
                    self.attempt_timeout_s is not None
                    and attempt.started is not None
                    and now - attempt.started > self.attempt_timeout_s
                ):
                    self._kill_attempt(attempt)
                    attempt.status = "failed"
                    attempt.error = {
                        "type": "WorkerCrashError",
                        "message": (
                            f"attempt seed={attempt.seed} exceeded "
                            f"{self.attempt_timeout_s}s and was terminated"
                        ),
                    }
                    attempt.finished = time.time()
                else:
                    continue
                self._running.remove(attempt)
                touched.append(attempt.job)
            for job in dict.fromkeys(touched):
                self._maybe_finish_job(job)
            self._launch_ready()

    def _launch_ready(self) -> None:
        while len(self._running) < self.workers and self._queue:
            attempt = self._queue.popleft()
            if attempt.done or attempt.job.done:
                continue
            self._start_attempt(attempt)

    def _start_attempt(self, attempt: _Attempt) -> None:
        job = attempt.job
        request = job.request
        payload = {
            "netlist": job.netlist,
            "device": job.device,
            "tool": request.tool,
            "seed": attempt.seed,
            "config": request.resolved_config(attempt.seed).to_dict(),
            "with_timing": request.with_timing,
            "faults": list(request.faults),
            "meta": {"suite": request.suite, "scale": request.scale, "job": job.id},
        }
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_mod.run_attempt,
            args=(send_conn, payload),
            name=f"repro-serve-{job.id}-s{attempt.seed}",
            daemon=True,
        )
        proc.start()
        send_conn.close()  # parent's copy — EOF now means "child is gone"
        attempt.proc = proc
        attempt.conn = recv_conn
        attempt.status = "running"
        attempt.started = time.time()
        if job.started_unix is None:
            job.started_unix = attempt.started
        self._running.append(attempt)
        metrics.inc("serve.attempts.started")

    def _read_attempt(self, attempt: _Attempt) -> None:
        try:
            status, body = attempt.conn.recv()
        except (EOFError, OSError):
            self._crash_attempt(attempt)
            return
        attempt.finished = time.time()
        if status == "ok":
            attempt.status = "ok"
            attempt.body = body
        else:
            attempt.status = "failed"
            attempt.error = body
        self._reap(attempt)

    def _crash_attempt(self, attempt: _Attempt) -> None:
        """The worker exited without sending a result."""
        self._reap(attempt)
        exitcode = attempt.proc.exitcode if attempt.proc is not None else None
        attempt.status = "failed"
        attempt.finished = time.time()
        crash = WorkerCrashError(
            f"worker for attempt seed={attempt.seed} of {attempt.job.id} "
            "exited without a result",
            exitcode=exitcode,
        )
        attempt.error = {"type": "WorkerCrashError", "message": str(crash)}
        metrics.inc("serve.attempts.crashed")

    def _kill_attempt(self, attempt: _Attempt) -> None:
        if attempt.proc is not None and attempt.proc.is_alive():
            attempt.proc.terminate()
        self._reap(attempt)

    def _reap(self, attempt: _Attempt) -> None:
        if attempt.proc is not None:
            attempt.proc.join(timeout=2.0)
        if attempt.conn is not None:
            attempt.conn.close()

    # -- job resolution -------------------------------------------------
    def _maybe_finish_job(self, job: Job) -> None:
        if job.done:
            return
        oks = [a for a in job.attempts if a.status == "ok"]
        open_ = [a for a in job.attempts if not a.done]
        if job.request.race_policy == "first" and oks:
            self._cancel_attempts(open_)
            self._finish_ok(job, oks[0])
        elif not open_:
            if oks:
                winner = min(
                    oks,
                    key=lambda a: (
                        not a.body["quality"]["legal"],
                        a.body["quality"]["hpwl_um"],
                        a.seed,
                    ),
                )
                self._finish_ok(job, winner)
            else:
                self._finish_failed(job)

    def _cancel_attempts(self, attempts: list[_Attempt]) -> None:
        for attempt in attempts:
            if attempt.status == "running":
                self._kill_attempt(attempt)
                if attempt in self._running:
                    self._running.remove(attempt)
                metrics.inc("serve.attempts.cancelled")
            attempt.status = "cancelled"
            attempt.finished = time.time()

    def _cancel_job(self, job: Job) -> None:
        with self._lock:
            self._cancel_job_locked(job)

    def _cancel_job_locked(self, job: Job) -> None:
        if job.done:
            return
        self._cancel_attempts([a for a in job.attempts if not a.done])
        job.finished_unix = time.time()
        job.response = PlacementResponse(
            job_id=job.id,
            status="cancelled",
            cache=job.cache,
            request=job.request,
            error={"type": "JobCancelledError", "message": f"job {job.id} was cancelled"},
            submitted_unix=job.submitted_unix,
            started_unix=job.started_unix,
            finished_unix=job.finished_unix,
        )
        metrics.inc("serve.jobs.cancelled")
        self._resolve_followers(job)

    def _resolve_followers(self, job: Job) -> None:
        """Settle every submission that coalesced onto ``job``.

        A follower of a successful leader is a cache hit (the leader's
        entry landed in the cache just before this runs); a follower of a
        failed or cancelled leader inherits that outcome — it asked for
        exactly the leader's computation.
        """
        if job.key is not None and self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        followers, job.followers = job.followers, []
        for follower in followers:
            if follower.done:
                continue
            entry = self.cache.get(job.key) if job.key is not None else None
            if job.response is not None and job.response.status == "ok" and entry is not None:
                self._finish_from_cache(follower, entry)
            else:
                follower.finished_unix = time.time()
                leader_resp = job.response
                follower.response = PlacementResponse(
                    job_id=follower.id,
                    status=leader_resp.status if leader_resp else "failed",
                    cache=follower.cache,
                    request=follower.request,
                    error=dict(leader_resp.error) if leader_resp and leader_resp.error else None,
                    submitted_unix=follower.submitted_unix,
                    started_unix=follower.started_unix,
                    finished_unix=follower.finished_unix,
                )

    def _race_section(self, job: Job, winner: _Attempt | None) -> dict[str, Any] | None:
        if job.request.race_k <= 1:
            return None
        return {
            "k": job.request.race_k,
            "policy": job.request.race_policy,
            "winner_seed": None if winner is None else winner.seed,
            "attempts": [a.summary() for a in job.attempts],
            "cancelled": sum(1 for a in job.attempts if a.status == "cancelled"),
        }

    def _job_section(self, job: Job, race: dict[str, Any] | None) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "id": job.id,
            "submitted_unix": job.submitted_unix,
            "started_unix": job.started_unix,
            "finished_unix": job.finished_unix,
            "cache": job.cache,
        }
        if race is not None:
            doc["race"] = race
        return doc

    def _finish_ok(self, job: Job, winner: _Attempt) -> None:
        job.finished_unix = time.time()
        race = self._race_section(job, winner)
        report = copy.deepcopy(winner.body["report"])
        if race is not None:
            # fold the race outcome into the winner's RunHealth so a
            # report reader sees losers/crashes without a side channel
            health = RunHealth.from_dict(report.get("health") or {})
            for attempt in job.attempts:
                if attempt is winner:
                    continue
                kind = "cancelled" if attempt.status == "cancelled" else (
                    "failure" if attempt.status == "failed" else "warning"
                )
                health.record(
                    "serve.race",
                    kind,
                    f"attempt seed={attempt.seed} {attempt.status}"
                    + (f": {attempt.error['message']}" if attempt.error else ""),
                )
            report["health"] = health.to_dict()
        report["job"] = self._job_section(job, race)
        placement = worker_mod.rebuild_placement(job.netlist, job.device, winner.body)
        job.response = PlacementResponse(
            job_id=job.id,
            status="ok",
            cache=job.cache,
            request=job.request,
            quality=dict(winner.body["quality"]),
            report=report,
            seed_used=winner.seed,
            submitted_unix=job.submitted_unix,
            started_unix=job.started_unix,
            finished_unix=job.finished_unix,
            placement=placement,
        )
        if job.key is not None and job.cache == "miss":
            self.cache.put(
                job.key,
                CacheEntry(
                    quality=dict(winner.body["quality"]),
                    report=copy.deepcopy(report),
                    placement=placement,
                    seed_used=winner.seed,
                    cold_wall_s=job.finished_unix - job.submitted_unix,
                ),
            )
        metrics.inc("serve.jobs.ok")
        self._resolve_followers(job)

    def _finish_failed(self, job: Job) -> None:
        job.finished_unix = time.time()
        failures = [a for a in job.attempts if a.error is not None]
        error = failures[-1].error if failures else {
            "type": "ServeError",
            "message": f"job {job.id} produced no successful attempt",
        }
        job.response = PlacementResponse(
            job_id=job.id,
            status="failed",
            cache=job.cache,
            request=job.request,
            error=dict(error),
            submitted_unix=job.submitted_unix,
            started_unix=job.started_unix,
            finished_unix=job.finished_unix,
        )
        metrics.inc("serve.jobs.failed")
        self._resolve_followers(job)

    def _finish_from_cache(self, job: Job, entry: CacheEntry) -> None:
        now = time.time()
        job.cache = "hit"
        job.started_unix = now
        job.finished_unix = now
        report = copy.deepcopy(entry.report)
        if report is not None:
            job_doc = dict(report.get("job") or {})
            race = job_doc.get("race")
            report["job"] = self._job_section(job, race)
        job.response = PlacementResponse(
            job_id=job.id,
            status="ok",
            cache="hit",
            request=job.request,
            quality=dict(entry.quality),
            report=report,
            seed_used=entry.seed_used,
            submitted_unix=job.submitted_unix,
            started_unix=job.started_unix,
            finished_unix=job.finished_unix,
            placement=entry.placement,
        )
        metrics.inc("serve.jobs.cache_hits")
