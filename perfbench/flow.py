"""One cold operation of a workload, run in a fresh process by ``run.py``.

    python3 perfbench/flow.py '<json request>'

The request names the workload, its netlist seed, whether to trace,
whether to stop once the inputs are ready (a set-up-only reading), the
``time.monotonic()`` reading taken just before this process was spawned,
and a scratch directory. The process prints one JSON line:

- the end-to-end readings, with per-job lists of ``place_s``, ``flow_s``
  and ``job_s`` (one job for a single placement, 15 for a serve burst);
- every time twice: scaled to the reference host speed, and as measured
  under ``unscaled`` (see :class:`HostSpeed`);
- the values the determinism check compares;
- the independent output check's problems;
- when traced, the per-layer metrics and the spans.

A flow that raises prints ``{"error": ...}`` instead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy
import scipy

import checks
import layers

#: workload name -> what one cold operation runs (all on the zcu104 fabric).
#: ``netlist_seed`` is the default; the placer always runs the default
#: ``DSPlacerConfig``. Netlist seed 0 of skrskr3@0.3 places in ~12 s, too
#: long for enough operations per run, and seeds 1-2 hit the ILP node limit
#: (~100 s); seed 3 is the cheapest seed led by cascade legalization.
WORKLOADS = {
    "place-skrskr2-0.25": dict(kind="place", suite="skrskr2", scale=0.25, netlist_seed=0),
    "legalize-skrskr3-0.3": dict(kind="place", suite="skrskr3", scale=0.3, netlist_seed=3),
    "serve-burst-0.05": dict(kind="serve", scale=0.05, workers=2, netlist_seed=0, jobs=15),
}

#: how long a caller waits for one serve job before calling it failed
JOB_TIMEOUT_S = 150.0
#: a round figure for ``sampler.work()``, which takes 0.9-1.5 ms on a 2-vCPU
#: Xeon VM as its host drifts. A time is multiplied by this over the mean
#: sample in its interval, so it reads as seconds at one fixed host speed.
NOMINAL_SAMPLE_S = 0.001
#: the interval whose host speed scales each time
SCALED_BY = {
    "setup_s": "setup",
    "place_s": "place",
    "flow_s": "flow",
    "job_s": "job",
    "makespan_s": "job",
}

HERE = Path(__file__).resolve().parent


class HostSpeed:
    """One ``sampler.py`` per CPU this operation runs on, until :meth:`close`."""

    def __init__(self, cpus: list[int]):
        self.samples: list[tuple[float, float]] = []
        self.procs = [
            subprocess.Popen(
                [sys.executable, str(HERE / "sampler.py"), str(cpu)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for cpu in cpus
        ]
        for proc in self.procs:
            proc.stdout.readline()

    def close(self) -> None:
        for proc in self.procs:
            proc.stdin.close()
        for proc in self.procs:
            out = proc.stdout.read()
            proc.wait(timeout=60)
            self.samples += [tuple(s) for s in json.loads(out)]
        self.samples.sort()

    def factor(self, t0: float, t1: float) -> float:
        """Nominal over the mean sample that ended within ``[t0, t1]``.

        Samples over twice the median are left out: the sampler lost the
        CPU to the operation mid-sample and timed its wait, not the host.
        """
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        if not inside:  # shorter than the sampling period: the nearest sample
            inside = [min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        cap = 2.0 * statistics.median(inside)
        return NOMINAL_SAMPLE_S / statistics.mean(dt for dt in inside if dt <= cap)

    def scale(self, result: dict) -> dict:
        """``result`` with its times scaled by the speed of their intervals."""
        out = dict(result, unscaled={}, host_scale=self.factor(*result["intervals"]["job"]))
        for key, interval in SCALED_BY.items():
            if key in result:
                k = self.factor(*result["intervals"][interval])
                v = out["unscaled"][key] = result[key]
                out[key] = [x * k for x in v] if isinstance(v, list) else v * k
        return out


def _peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def _setup_only(spawned: float, ready: float) -> dict:
    return {"setup_s": ready - spawned, "intervals": {"setup": (spawned, ready), "job": (spawned, ready)}}


def _find_span(spans: list[dict], name: str) -> dict | None:
    """First span called ``name`` in a RunReport span tree, depth first."""
    for span in spans:
        if span["name"] == name:
            return span
        found = _find_span(span.get("children", []), name)
        if found is not None:
            return found
    return None


def _response_problems(responses) -> tuple[list[str], int]:
    """Problems of serve responses, and how many jobs they sink."""
    problems, failed = [], 0
    for r in responses:
        found = (
            [f"status {r.status} ({r.error})"]
            if r.status != "ok"
            else checks.check_placement(r.placement)
        )
        problems.extend(f"{r.job_id}: {p}" for p in found)
        failed += bool(found)
    return problems, failed


def place_once(spec: dict, nseed: int, traced: bool, spawned: float, setup_only: bool) -> dict:
    """Imports, inputs, one cold ``DSPlacer.place`` and the sign-off."""
    import repro.accelgen as accelgen
    import repro.fpga as fpga
    import repro.timing as timing
    from repro.clock import get_skew_model
    from repro.core import DSPlacer, DSPlacerConfig
    from repro.placers.api import PlacementRequest
    from repro.router import GlobalRouter
    from repro.serve import PlacementServer

    imported = time.monotonic()
    with layers.Tracer() if traced else nullcontext() as tracer:
        device = fpga.fabric_device("zcu104", spec["scale"])
        netlist = accelgen.generate_suite(
            spec["suite"], scale=spec["scale"], device=device, seed=nseed
        )
        ready = time.monotonic()
        if setup_only:
            return _setup_only(spawned, ready)
        config = DSPlacerConfig()
        start = time.monotonic()
        result = DSPlacer(device, config).place(netlist)
        placed = time.monotonic()
        placement = result.placement
        route = GlobalRouter().route(placement)
        sta = timing.StaticTimingAnalyzer(
            netlist, skew_model=get_skew_model(config.skew_model, device)
        )
        fmax = timing.max_frequency(sta, placement, route)
        report = sta.analyze(placement, route)
        done = time.monotonic()
        peak = _peak_rss_mb()
        if traced:
            # one duplicate pair of baseline jobs on this netlist, so the
            # serve layer is measured on every workload
            with PlacementServer(workers=1) as server:
                request = PlacementRequest(
                    tool="vivado", suite=spec["suite"], scale=spec["scale"], seed=nseed
                )
                jobs = [server.submit(request, netlist=netlist, device=device) for _ in "ab"]
                probe = [job.result(timeout=JOB_TIMEOUT_S) for job in jobs]

    out = {
        "setup_s": ready - spawned,
        "place_s": [placed - start],
        "flow_s": [done - start],
        "job_s": [done - spawned],
        "makespan_s": done - spawned,
        "intervals": {
            "setup": (spawned, ready),
            "place": (start, placed),
            "flow": (start, done),
            "job": (spawned, done),
        },
        "jobs_ok": 1,
        "peak_rss_mb": peak,
        "fmax_mhz": fmax,
        "wns_ns": float(report.wns_ns),
        "placers.hpwl_um": float(placement.hpwl()),
        "dsplacer.rollbacks": result.health.n_rollbacks,
        "problems": checks.check_placement(placement),
        "attempted": 1,
    }
    out["failed"] = int(bool(out["problems"]))
    if traced:
        probe_problems, probe_failed = _response_problems(probe)
        out["problems"] += probe_problems
        out["attempted"] += len(probe)
        out["failed"] += probe_failed
        out["layers"] = {
            "setup.import_s": imported - spawned,
            **layers.setup_layers(tracer.spans),
            **layers.placement_layers(tracer.spans),
            **layers.serve_layers(tracer.spans, probe, duplicates=1),
            "extraction.datapath_dsps": result.n_datapath_dsps,
            "dsplacer.degraded": int(result.health.degraded),
        }
        out["spans"] = tracer.spans
    return out


def serve_once(
    spec: dict, nseed: int, traced: bool, spawned: float, setup_only: bool, scratch: str
) -> dict:
    """A closed-loop burst: 10 cold jobs plus 5 duplicates, one client."""
    from repro.accelgen import SUITE_NAMES
    from repro.placers.api import PlacementRequest
    from repro.serve import PlacementServer

    imported = time.monotonic()
    worker_dir = os.path.join(scratch, f"workers-{os.getpid()}")
    if traced:
        os.makedirs(worker_dir, exist_ok=True)
    with layers.Tracer(worker_dir=worker_dir) if traced else nullcontext() as tracer:
        server = PlacementServer(workers=spec["workers"])
        ready = time.monotonic()
        if setup_only:
            server.close()
            return _setup_only(spawned, ready)
        with server:
            t0, burst_start = time.time(), time.monotonic()
            jobs = []
            for suite in SUITE_NAMES:
                for seed in (nseed, nseed + 1):
                    request = PlacementRequest(
                        suite=suite, scale=spec["scale"], seed=seed, with_timing=True
                    )
                    jobs.append(server.submit(request))
                    if seed == nseed:
                        jobs.append(server.submit(request))
            responses = [job.result(timeout=JOB_TIMEOUT_S) for job in jobs]
            burst = (burst_start, time.monotonic())
        peak = _peak_rss_mb(children=True)

    problems, failed = _response_problems(responses)
    ok = [r for r in responses if r.status == "ok"]
    cold = [r for r in ok if r.cache != "hit"]
    makespan = max(r.finished_unix for r in responses) - t0
    attempts = [_find_span(r.report["spans"], "serve.attempt") for r in cold]
    places = [_find_span(r.report["spans"], "place") for r in cold]
    health = [r.report.get("health") or {} for r in cold]
    out = {
        "setup_s": ready - spawned,
        "place_s": [s["wall_s"] for s in places],
        "flow_s": [s["wall_s"] for s in attempts],
        "job_s": [r.finished_unix - r.submitted_unix for r in responses],
        "makespan_s": makespan,
        "intervals": {"setup": (spawned, ready), "place": burst, "flow": burst, "job": burst},
        "jobs_ok": len(ok),
        "peak_rss_mb": peak,
        "fmax_mhz": min(r.quality["fmax_mhz"] for r in ok),
        "wns_ns": min(r.quality["wns_ns"] for r in ok),
        "placers.hpwl_um": sum(r.quality["hpwl_um"] for r in cold),
        "dsplacer.rollbacks": sum(
            e["kind"] == "rollback" for h in health for e in h.get("events", [])
        ),
        "problems": problems,
        "attempted": len(responses),
        "failed": failed,
    }
    if traced:
        worker = {}
        for name in sorted(os.listdir(worker_dir)):
            with open(os.path.join(worker_dir, name)) as fh:
                spans = json.load(fh)
            os.remove(os.path.join(worker_dir, name))
            for key, value in layers.placement_layers(spans).items():
                worker[key] = worker.get(key, 0) + value
        os.rmdir(worker_dir)
        gauges = [r.report["metrics"]["gauges"] for r in cold]
        out["layers"] = {
            "setup.import_s": imported - spawned,
            **layers.setup_layers(tracer.spans),
            **worker,
            **layers.serve_layers(tracer.spans, responses, duplicates=len(SUITE_NAMES)),
            "extraction.datapath_dsps": sum(g["extraction.datapath_dsps"] for g in gauges),
            "dsplacer.degraded": sum(bool(h.get("degraded")) for h in health),
        }
        out["spans"] = tracer.spans
    return out


def main(request: dict) -> dict:
    spec = WORKLOADS[request["workload"]]
    args = (
        spec,
        request["netlist_seed"],
        request["traced"],
        request["spawned"],
        request["setup_only"],
    )
    if spec["kind"] == "serve":
        return serve_once(*args, request["scratch"])
    return place_once(*args)


if __name__ == "__main__":
    req = json.loads(sys.argv[1])
    # a single placement runs on one pinned CPU with its sampler; a serve
    # burst's workers float, so every CPU gets a sampler
    cpus = sorted(os.sched_getaffinity(0))
    if WORKLOADS[req["workload"]]["kind"] == "place":
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    speed = HostSpeed(cpus)
    try:
        result = main(req)
    except Exception as exc:  # noqa: BLE001 — a failed operation is a reading, not a crash
        traceback.print_exc()
        n = WORKLOADS[req["workload"]].get("jobs", 1)
        result = {"error": f"{type(exc).__name__}: {exc}", "attempted": n, "failed": n}
    finally:
        speed.close()
    if "error" not in result:
        result = speed.scale(result)
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
