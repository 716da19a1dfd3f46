"""The placement worker: one attempt, one process, one pipe message.

:func:`run_attempt` is the child-process entry point the server forks for
every race attempt. It is deliberately boring: build the placer, place,
measure quality, snapshot telemetry, send exactly one ``(status, body)``
tuple back, exit. All policy (racing, caching, retries, crash handling)
lives in the parent — a worker that dies mid-run simply never sends, and
the server turns the silent exit into a
:class:`~repro.errors.WorkerCrashError`.

The payload is a plain dict (picklable under both ``fork`` and ``spawn``):

``netlist`` / ``device``
    The materialized workload — workers never re-generate, so every
    attempt of a race places the *same* netlist.
``tool`` / ``seed`` / ``config``
    Engine name, this attempt's seed, and the resolved
    :class:`~repro.core.DSPlacerConfig` document for that seed.
``with_timing``
    Also route and run STA under the config's skew model (slower; adds
    WNS/TNS/fmax to quality).
``faults``
    :meth:`~repro.robustness.FaultInjector.to_specs` output to replay
    inside this worker (chaos testing); empty for real serving.
``meta``
    Opaque report metadata from the request (suite, scale, ...).

The success body carries the placement as raw coordinate/site arrays —
the parent already holds the netlist and device, so shipping the full
:class:`~repro.placers.placement.Placement` (which drags the netlist
through pickle a second time) would only slow the pipe down.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

# sign-off modules load here, so forked attempts inherit them; ``timing`` is
# kept as a module so patches of ``timing.max_frequency`` reach the worker
from repro import obs, timing
from repro.clock import get_skew_model, run_clock_section
from repro.errors import ReproError
from repro.placers.api import get_placer
from repro.placers.placement import Placement
from repro.robustness import FaultInjector, RunHealth, inject
from repro.router import GlobalRouter

__all__ = ["run_attempt", "rebuild_placement"]


def _execute(payload: dict[str, Any]) -> dict[str, Any]:
    """Place the payload's workload and collect the result body."""
    from repro.core import DSPlacerConfig

    netlist = payload["netlist"]
    device = payload["device"]
    tool: str = payload["tool"]
    seed: int = payload["seed"]
    with_timing: bool = payload.get("with_timing", False)
    meta: dict[str, Any] = dict(payload.get("meta") or {})

    config = DSPlacerConfig.from_dict(payload.get("config") or {"seed": seed})
    placer = get_placer(tool, device, seed=seed, config=config)

    faults = payload.get("faults") or ()
    fault_ctx = inject(FaultInjector.from_specs(faults)) if faults else nullcontext(None)

    with obs.observe() as ob, fault_ctx:
        with obs.trace.span("serve.attempt", tool=tool, seed=seed):
            placement = placer.place(netlist)
            quality: dict[str, Any] = {
                "legal": bool(placement.is_legal()),
                "hpwl_um": float(placement.hpwl()),
            }
            if with_timing:
                route = GlobalRouter().route(placement)
                sta = timing.StaticTimingAnalyzer(
                    netlist, skew_model=get_skew_model(config.skew_model, device)
                )
                rep = sta.analyze(placement, route)
                quality.update(
                    routed_wl_um=float(route.total_wirelength),
                    wns_ns=float(rep.wns_ns),
                    tns_ns=float(rep.tns_ns),
                    fmax_mhz=float(timing.max_frequency(sta, placement, route)),
                )

    if tool == "dsplacer":
        health = placer.last_result.health
    else:
        health = RunHealth()

    meta.update(tool=tool, seed=seed, config=config.to_dict())
    report = obs.RunReport.from_observation(
        ob, meta=meta, health=health.to_dict(), quality=quality
    )
    report.clock = run_clock_section(config, placement, netlist)
    return {
        "seed": seed,
        "quality": quality,
        "report": report.to_dict(),
        "health": health.to_dict(),
        "xy": placement.xy,
        "site": placement.site,
    }


def run_attempt(conn, payload: dict[str, Any]) -> None:
    """Child-process entry: run one attempt, send one message, exit.

    Never raises: typed pipeline errors come back as ``("error", ...)``
    bodies with the exception class name (the parent rehydrates them via
    :meth:`~repro.placers.api.PlacementResponse.raise_for_status`); a
    ``crash`` fault bypasses this entirely via ``os._exit``.
    """
    try:
        message = ("ok", _execute(payload))
    except ReproError as exc:
        message = ("error", {"type": type(exc).__name__, "message": str(exc)})
    except BaseException as exc:  # noqa: BLE001 — a worker must never hang the server
        message = ("error", {"type": "ServeError", "message": f"{type(exc).__name__}: {exc}"})
    try:
        conn.send(message)
    finally:
        conn.close()


def rebuild_placement(netlist, device, body: dict[str, Any]) -> Placement:
    """Reassemble a worker's coordinate arrays into a full Placement."""
    placement = Placement(netlist, device)
    placement.xy = body["xy"]
    placement.site = body["site"]
    return placement
