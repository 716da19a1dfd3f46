"""Command-line interface.

```
python -m repro generate --suite skynet --scale 0.1 -o skynet.json
python -m repro place    --suite skrskr1 --scale 0.1 --tool dsplacer
python -m repro place    --suite skynet --scale 0.05 --race-k 3 --json
python -m repro report   --suite skynet --scale 0.1 --tool vivado --paths 5
python -m repro serve submit --suite skynet --suite skynet --scale 0.05 --workers 2
python -m repro experiment table1
```

``place`` and ``serve submit`` share one request vocabulary
(:func:`add_request_arguments` → :meth:`PlacementRequest.from_args`), so a
flag accepted by one is accepted by the other. ``place --race-k 3`` runs a
seed portfolio through the serve worker pool and keeps the best placement;
``serve submit`` accepts ``--suite`` repeatedly to queue several jobs on
one server (duplicates are answered from the result cache).

``place``/``report`` accept the observability flags: ``--json`` writes a
schema-valid :class:`~repro.obs.RunReport` document to stdout (everything
human-readable moves to stderr), ``--trace`` prints the span tree,
``--quiet`` silences the informational stderr chatter, and
``--config FILE`` overrides :class:`~repro.core.DSPlacerConfig` knobs from
a JSON object (unknown keys are rejected).

Typed pipeline errors (:class:`repro.errors.ReproError`) exit with code 2
and a one-line message instead of a traceback; ``--strict`` makes the
DSPlacer flow raise on any stage failure instead of degrading gracefully
(see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from repro import obs
from repro.accelgen import SUITE_NAMES, generate_suite
from repro.clock import get_skew_model, run_clock_section
from repro.core import DSPlacerConfig
from repro.errors import ConfigurationError, ReproError
from repro.fpga import FABRIC_NAMES, fabric_device
from repro.netlist import save_netlist
from repro.obs import RunReport, render_trace, trace
from repro.placers.api import (
    PLACER_NAMES,
    RACE_POLICIES,
    PlacementRequest,
    get_placer,
)
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer, format_timing_report, max_frequency


class ReportEmitter:
    """Routes CLI output: human text to stderr, machine artifacts to stdout.

    Under ``--json`` stdout is reserved for the RunReport document, so the
    one-line result summary moves to stderr with the rest of the chatter;
    ``--quiet`` drops the informational lines entirely (the report and hard
    errors still come through).
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.json_out: bool = getattr(args, "json", False)
        self.trace_out: bool = getattr(args, "trace", False)
        self.quiet: bool = getattr(args, "quiet", False)

    @property
    def observing(self) -> bool:
        """Whether the run should collect spans/metrics at all."""
        return self.json_out or self.trace_out

    def info(self, message: str) -> None:
        """Informational line (health summaries, stats) — stderr, quietable."""
        if not self.quiet:
            print(message, file=sys.stderr)

    def result(self, line: str) -> None:
        """The one-line run summary — stdout, unless stdout carries JSON."""
        if self.json_out:
            self.info(line)
        else:
            print(line)

    def emit(self, report: RunReport | None) -> None:
        """Final artifacts: span tree under ``--trace``, JSON under ``--json``."""
        if report is None:
            return
        if self.trace_out:
            print(render_trace(report.spans), file=sys.stderr)
        if self.json_out:
            print(report.to_json())


def _add_common(p: argparse.ArgumentParser, *, multi_suite: bool = False) -> None:
    if multi_suite:
        p.add_argument(
            "--suite",
            action="append",
            choices=SUITE_NAMES,
            help="benchmark suite; repeat to queue several jobs (default skynet)",
        )
    else:
        p.add_argument("--suite", default="skynet", choices=SUITE_NAMES)
    p.add_argument("--scale", type=float, default=0.1)
    p.add_argument(
        "--fabric",
        default="zcu104",
        choices=FABRIC_NAMES,
        help="target fabric: the ZCU104 model or the slot-fabric scenario",
    )
    p.add_argument("--seed", type=int, default=0)


def add_request_arguments(p: argparse.ArgumentParser, *, multi_suite: bool = False) -> None:
    """The shared ``place``/``serve submit`` request vocabulary.

    One parser feeding :meth:`PlacementRequest.from_args` for both entry
    points, so the two surfaces cannot drift apart.
    """
    _add_common(p, multi_suite=multi_suite)
    p.add_argument("--tool", default="dsplacer", choices=PLACER_NAMES)
    p.add_argument(
        "--race-k",
        type=int,
        default=1,
        metavar="K",
        help="portfolio racing: place K seeds concurrently, keep the winner",
    )
    p.add_argument(
        "--race-policy",
        default="best",
        choices=RACE_POLICIES,
        help="'best' waits for all K attempts; 'first' keeps the first success",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed result cache",
    )


def _add_robustness(p: argparse.ArgumentParser) -> None:
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict",
        action="store_true",
        help="raise typed errors on stage failures instead of degrading",
    )
    mode.add_argument(
        "--permissive",
        dest="strict",
        action="store_false",
        help="fall back / roll back on stage failures (default)",
    )
    p.add_argument(
        "--stage-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per assignment/legalization stage",
    )


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json",
        action="store_true",
        help="write a RunReport JSON document to stdout (text moves to stderr)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="print the span tree (wall/CPU per stage) to stderr",
    )
    p.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational stderr output (health summary, stats)",
    )
    p.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON file of DSPlacerConfig overrides (unknown keys rejected)",
    )


def _dsplacer_config(args: argparse.Namespace) -> DSPlacerConfig:
    """Merge CLI flags with an optional ``--config`` JSON file.

    File keys override flags; unknown keys raise
    :class:`~repro.errors.ConfigurationError` via
    :meth:`DSPlacerConfig.from_dict`.
    """
    doc: dict = {
        "identification": "heuristic",
        "seed": args.seed,
        "strict": getattr(args, "strict", False),
        "stage_budget_s": getattr(args, "stage_budget", None),
    }
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read --config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--config {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigurationError(
                f"--config {path!r} must hold a JSON object of DSPlacerConfig keys"
            )
        doc.update(overrides)
    return DSPlacerConfig.from_dict(doc)


def _race_placement(request: PlacementRequest, netlist, device, emitter: ReportEmitter):
    """Run a ``--race-k`` portfolio through the serve worker pool."""
    from repro.serve import PlacementServer

    with PlacementServer(workers=min(request.race_k, 4)) as server:
        response = server.submit(request, netlist=netlist, device=device).result()
    response.raise_for_status()
    race = (response.report or {}).get("job", {}).get("race") or {}
    emitter.info(
        f"race: k={request.race_k} policy={request.race_policy} "
        f"winner seed={response.seed_used} cancelled={race.get('cancelled', 0)}"
    )
    health = (response.report or {}).get("health")
    job_doc = (response.report or {}).get("job")
    return response.placement, health, job_doc


def _place(args) -> int:
    emitter = ReportEmitter(args)
    device = fabric_device(args.fabric, args.scale)
    netlist = generate_suite(args.suite, scale=args.scale, device=device, seed=args.seed)
    emitter.info(f"{netlist.stats(device.n_dsp)}")
    config = _dsplacer_config(args)
    request = PlacementRequest.from_args(args, config=config.to_dict())

    health = None
    job_doc = None
    ob_ctx = obs.observe() if emitter.observing else nullcontext(None)
    with ob_ctx as ob:
        with trace.span("run", tool=request.tool, suite=args.suite, scale=args.scale):
            if request.race_k > 1:
                placement, health, job_doc = _race_placement(
                    request, netlist, device, emitter
                )
            else:
                placer = get_placer(request.tool, device, seed=args.seed, config=config)
                placement = placer.place(netlist)
                if request.tool == "dsplacer":
                    result = placer.last_result
                    emitter.info(
                        f"datapath DSPs: {result.n_datapath_dsps} "
                        f"(identification acc {result.identification.accuracy:.0%})"
                    )
                    emitter.info(result.health.summary())
                    health = result.health.to_dict()
            route = GlobalRouter().route(placement)
            skew = get_skew_model(config.skew_model, device)
            sta = StaticTimingAnalyzer(netlist, skew_model=skew)
            fmax = max_frequency(sta, placement, route)
            rep = sta.analyze(placement, route)
    emitter.result(
        f"tool={request.tool} suite={args.suite} scale={args.scale} "
        f"legal={placement.is_legal()} hpwl={placement.hpwl():.4g} "
        f"routed_wl={route.total_wirelength:.4g} wns={rep.wns_ns:+.3f} "
        f"tns={rep.tns_ns:+.1f} fmax={fmax:.0f}MHz"
    )
    if getattr(args, "paths", 0):
        timing_text = format_timing_report(rep, netlist, k_paths=args.paths)
        if emitter.json_out:
            emitter.info(timing_text)
        else:
            print(timing_text)
    if ob is not None:
        report = RunReport.from_observation(
            ob,
            meta={
                "tool": request.tool,
                "suite": args.suite,
                "scale": args.scale,
                "fabric": args.fabric,
                "seed": args.seed,
                "config": config.to_dict(),
            },
            health=health,
            quality={
                "legal": bool(placement.is_legal()),
                "hpwl_um": float(placement.hpwl()),
                "routed_wl_um": float(route.total_wirelength),
                "wns_ns": float(rep.wns_ns),
                "tns_ns": float(rep.tns_ns),
                "fmax_mhz": float(fmax),
            },
        )
        report.job = job_doc
        report.clock = run_clock_section(config, placement, netlist)
        emitter.emit(report)
    if getattr(args, "svg", None):
        from repro.core.extraction import build_dsp_graph, iddfs_dsp_paths, prune_control_dsps
        from repro.eval.visualization import placement_to_svg

        graph = prune_control_dsps(
            build_dsp_graph(netlist, iddfs_dsp_paths(netlist)),
            {i: bool(netlist.cells[i].is_datapath) for i in netlist.dsp_indices()},
        )
        placement_to_svg(placement, graph, path=args.svg, title=f"{args.suite} — {args.tool}")
        emitter.info(f"svg: {args.svg}")
    return 0


def _generate(args) -> int:
    device = fabric_device(args.fabric, args.scale)
    netlist = generate_suite(args.suite, scale=args.scale, device=device, seed=args.seed)
    save_netlist(netlist, args.output)
    print(f"wrote {args.output}: {netlist.stats(device.n_dsp)}")
    if args.verilog:
        from repro.netlist import save_verilog

        save_verilog(netlist, args.verilog)
        print(f"wrote {args.verilog} (structural Verilog)")
    return 0


def _experiment(args) -> int:
    from repro.eval import render_table, run_table1

    if args.which == "table1":
        rows = run_table1()
        print(
            render_table(
                ["Design", "#LUT", "#LUTRAM", "#FF", "#BRAM", "#DSP", "DSP%", "freq"],
                [
                    [r["design"], r["lut"], r["lutram"], r["ff"], r["bram"], r["dsp"], r["dsp_pct"], r["freq_mhz"]]
                    for r in rows
                ],
                title="Table I",
            )
        )
        return 0
    print(
        "heavier experiments run through the benchmark harness:\n"
        f"  pytest benchmarks/bench_{args.which}_*.py --benchmark-only -s",
        file=sys.stderr,
    )
    return 1


def _serve_submit(args) -> int:
    from repro.serve import PlacementServer

    emitter = ReportEmitter(args)
    config = _dsplacer_config(args)
    suites = args.suite or ["skynet"]
    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)

    docs: list[dict] = []
    n_failed = 0
    with PlacementServer(workers=args.workers) as server:
        jobs = []
        for suite in suites:
            args.suite = suite
            jobs.append(
                server.submit(PlacementRequest.from_args(args, config=config.to_dict()))
            )
        for job in jobs:
            resp = job.result()
            docs.append(resp.to_dict())
            n_failed += resp.status != "ok"
            quality = resp.quality or {}
            hpwl = quality.get("hpwl_um")
            emitter.result(
                f"{resp.job_id} suite={resp.request.suite} status={resp.status} "
                f"cache={resp.cache} seed={resp.seed_used} "
                f"legal={quality.get('legal')} "
                f"hpwl={'n/a' if hpwl is None else format(hpwl, '.4g')} "
                f"wall={resp.wall_s:.3f}s"
            )
            if args.report_dir and resp.report is not None:
                path = os.path.join(args.report_dir, f"{resp.job_id}.json")
                with open(path, "w") as fh:
                    json.dump(resp.report, fh, indent=2)
                emitter.info(f"report: {path}")
        stats = server.cache.stats()
    emitter.info(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es)")
    if emitter.json_out:
        print(json.dumps({"jobs": docs, "cache": stats}, indent=2))
    return 1 if n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a benchmark netlist as JSON")
    _add_common(g)
    g.add_argument("-o", "--output", default="netlist.json")
    g.add_argument("--verilog", default=None, help="also write structural Verilog")
    g.set_defaults(func=_generate)

    p = sub.add_parser("place", help="place a suite and report PPA")
    add_request_arguments(p)
    _add_robustness(p)
    _add_output(p)
    p.add_argument("--svg", default=None, help="write a layout SVG")
    p.set_defaults(func=_place, paths=0)

    r = sub.add_parser("report", help="place and print a timing report")
    add_request_arguments(r)
    _add_robustness(r)
    _add_output(r)
    r.add_argument("--paths", type=int, default=5)
    r.set_defaults(func=_place, svg=None, tool="vivado")

    s = sub.add_parser("serve", help="placement-as-a-service job orchestration")
    serve_sub = s.add_subparsers(dest="serve_command", required=True)
    ss = serve_sub.add_parser(
        "submit", help="submit placement jobs to a worker pool and wait"
    )
    add_request_arguments(ss, multi_suite=True)
    _add_robustness(ss)
    _add_output(ss)
    ss.add_argument(
        "--with-timing",
        action="store_true",
        help="also route and run STA inside each worker",
    )
    ss.add_argument("--workers", type=int, default=2, help="concurrent worker processes")
    ss.add_argument(
        "--report-dir",
        default=None,
        metavar="DIR",
        help="write each job's schema-valid RunReport JSON into DIR",
    )
    ss.set_defaults(func=_serve_submit)

    e = sub.add_parser("experiment", help="run a named experiment")
    e.add_argument("which", choices=("table1", "table2", "fig7", "fig8", "fig9"))
    e.set_defaults(func=_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # one line per error class, not a traceback; multi-line validation
        # reports keep their bullet list
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
