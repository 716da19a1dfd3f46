"""Cold-``place`` benchmark of the DSPlacer flow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--netlist-seed K]

Run from the root of a checkout. For ``S`` seconds it starts one fresh
process after another (``flow.py``), each doing one cold operation of the
workload, so no operation starts with the flow's per-netlist caches warm.
It checks every output, then prints one JSON object as its last stdout
line: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of traced operations, interleaved with untraced ones so
the tracing overhead can be reported. Medians over the run's operations
are reported. End-to-end times are scaled to a fixed host speed, measured
next to each operation by ``sampler.py`` (see ``flow.HostSpeed``); the
line before the result gives them unscaled too.

The inputs are fixed by the workload and its netlist seed (``--netlist-seed``,
by default the workload's own),
so ``--seed`` changes only the run's label: every deterministic reading
(WNS, HPWL, ILP nodes, ...) must then repeat exactly across runs. The
first run on a source tree records those readings under ``.perfbench/``;
any later run that disagrees reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from flow import WORKLOADS

HERE = Path(__file__).resolve().parent
#: a run, its set-up included, must end within this many seconds
RUN_CAP_S = 170.0
#: set-up readings per untraced run; set-up-only processes top them up
MIN_SETUPS = 6
#: layer self times plus the unattributed residual must give the traced place
ADDITIVITY_TOL_S = 1e-6

#: (name, unit) of the end-to-end metrics, printed with --trace 0
END_TO_END = [
    ("setup_s", "s"),
    ("place_s", "s"),
    ("flow_s", "s"),
    ("peak_rss_mb", "MB"),
    ("fmax_mhz", "MHz"),
    ("jobs_per_min", "1/min"),
    ("job_p50_s", "s"),
]

#: (name, unit) of the per-layer metrics, printed with --trace 1
PER_LAYER = [
    ("setup.import_s", "s"),
    ("fpga.device_s", "s"),
    ("accelgen.generate_s", "s"),
    ("accelgen.cells", "count"),
    ("placers.prototype_s", "s"),
    ("placers.prototype_self_s", "s"),
    ("placers.global_place_s", "s"),
    ("placers.global_place_calls", "count"),
    ("placers.legalize_s", "s"),
    ("placers.refine_s", "s"),
    ("placers.hpwl_um", "um"),
    ("extraction.identify_s", "s"),
    ("extraction.paths_s", "s"),
    ("extraction.dsp_graph_s", "s"),
    ("extraction.datapath_dsps", "count"),
    ("assignment.solve_s", "s"),
    ("assignment.iterates", "count"),
    ("cascade_legalize_s", "s"),
    ("cascade_legalize.ilp_nodes", "count"),
    ("cascade_legalize.greedy_fallbacks", "count"),
    ("cascade_legalize.displacement_um", "um"),
    ("incremental.self_s", "s"),
    ("dsplacer.traced_place_s", "s"),
    ("dsplacer.unattributed_s", "s"),
    ("dsplacer.rollbacks", "count"),
    ("dsplacer.degraded", "count"),
    ("router.route_s", "s"),
    ("timing.sta_s", "s"),
    ("timing.analyze_calls", "count"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.attempt_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.makespan_s", "s"),
    ("host.scale", "ratio"),
    ("trace_overhead_frac", "ratio"),
]

#: readings that must repeat exactly across every run of a workload
DETERMINISTIC = [
    "fmax_mhz",
    "wns_ns",
    "placers.hpwl_um",
    "cascade_legalize.ilp_nodes",
    "assignment.iterates",
    "placers.global_place_calls",
    "dsplacer.rollbacks",
    "serve.cache_hits",
]

#: BLAS/OpenMP threads per placing process. One: a second BLAS thread adds
#: CPU time without shortening ``place``, and with one thread per serve
#: worker the two workers of the serve workload fit nproc (2).
THREAD_CAP = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def source_digest(root: Path) -> str:
    """Hash of the program and benchmark sources: the determinism key."""
    h = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_child(root: Path, env: dict, request: dict, timeout: float) -> dict:
    """One cold operation in a fresh process; its reading.

    The process leads its own process group, so on a timeout its serve
    workers are killed along with it.
    """
    request = dict(request, spawned=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "flow.py"), json.dumps(request)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        raise RuntimeError(f"flow.py exited with code {proc.returncode} and no reading")
    return json.loads(lines[-1])


def check_determinism(root: Path, key: str, readings: list[dict]) -> list[str]:
    """Compare deterministic readings within this run and with earlier runs."""
    problems, seen = [], {}
    for r in readings:
        for name in DETERMINISTIC:
            if name not in r:
                continue
            if name in seen and seen[name] != r[name]:
                problems.append(f"{name} differs within the run: {seen[name]!r} vs {r[name]!r}")
            seen.setdefault(name, r[name])
    state_path = root / ".perfbench" / "determinism.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    earlier = state.setdefault(key, {})
    for name, value in seen.items():
        if name in earlier and earlier[name] != value:
            problems.append(f"{name} differs from an earlier run: {earlier[name]!r} vs {value!r}")
        earlier.setdefault(name, value)
    state_path.parent.mkdir(exist_ok=True)
    state_path.write_text(json.dumps(state, indent=1, sort_keys=True))
    return problems


def _pooled(readings: list[dict], key: str) -> float:
    return statistics.median(v for r in readings for v in r[key])


def end_to_end(readings: list[dict], setups: list[float]) -> dict[str, float]:
    jobs = sum(r["jobs_ok"] for r in readings)
    return {
        "setup_s": statistics.median(setups),
        "place_s": _pooled(readings, "place_s"),
        "flow_s": _pooled(readings, "flow_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in readings),
        "fmax_mhz": min(r["fmax_mhz"] for r in readings),
        "jobs_per_min": jobs / sum(r["makespan_s"] for r in readings) * 60.0,
        "job_p50_s": _pooled(readings, "job_s"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Layer medians over traced operations, in measured (unscaled) seconds.

    The tracing overhead compares the scaled ``place_s`` of the traced and
    untraced operations, which alternate.
    """
    merged = [dict(r, **r["layers"]) for r in traced]
    out = {name: statistics.median(r[name] for r in merged) for name, _ in PER_LAYER[:-2]}
    out["host.scale"] = statistics.median(r["host_scale"] for r in traced + untraced)
    out["trace_overhead_frac"] = _pooled(traced, "place_s") / _pooled(untraced, "place_s") - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--netlist-seed", type=int, default=None)
    args = ap.parse_args(argv)
    if args.netlist_seed is None:
        args.netlist_seed = WORKLOADS[args.workload]["netlist_seed"]
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no src/repro under {root}: run from the root of a checkout")
    compileall.compile_dir(root / "src", quiet=1)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
    scratch = root / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)

    def measure(traced: bool, setup_only: bool = False) -> dict:
        request = {
            "workload": args.workload,
            "netlist_seed": args.netlist_seed,
            "traced": traced,
            "setup_only": setup_only,
            "scratch": str(scratch),
        }
        return run_child(root, env, request, timeout=RUN_CAP_S - (time.monotonic() - started))

    readings: dict[bool, list[dict]] = {False: [], True: []}
    setup_runs: list[dict] = []
    deadline = started + args.seconds
    try:
        while True:
            traced = bool(args.trace) and len(readings[False]) > len(readings[True])
            readings[traced].append(measure(traced))
            if time.monotonic() >= deadline and (not args.trace or readings[True]):
                break
        n_setups = sum(not r["failed"] for r in readings[False])
        while not args.trace and n_setups + len(setup_runs) < MIN_SETUPS:
            reading = measure(False, setup_only=True)
            if "error" in reading:
                return fail(f"set-up failed: {reading['error']}")
            setup_runs.append(reading)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    every = readings[False] + readings[True]
    for r in every:
        if r["failed"]:
            print(f"failed: {r.get('error') or r['problems'][:5]}", file=sys.stderr)
    good = {k: [r for r in v if not r["failed"]] for k, v in readings.items()}
    if not good[False] or (args.trace and not good[True]):
        return fail("every operation failed; nothing to measure")

    key = f"{args.workload}|netlist_seed={args.netlist_seed}|src={source_digest(root)}"
    problems = check_determinism(
        root, key, [dict(r, **r.get("layers", {})) for r in good[False] + good[True]]
    )
    problems += [
        f"layer self times miss the traced place by {r['layers']['check.additivity_s']!r} s"
        for r in good[True]
        if abs(r["layers"]["check.additivity_s"]) > ADDITIVITY_TOL_S
    ]
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    setups = [r["setup_s"] for r in good[False] + setup_runs]
    if args.trace:
        names, metrics = PER_LAYER, per_layer(good[True], good[False])
    else:
        names, metrics = END_TO_END, end_to_end(good[False], setups)
    unscaled = [dict(r, **r["unscaled"]) for r in good[False] + setup_runs]

    env_doc = {
        "workload": args.workload,
        "seed": args.seed,
        "netlist_seed": args.netlist_seed,
        "nproc": os.cpu_count(),
        "threads_per_process": {var: THREAD_CAP for var in THREAD_VARS},
        "serve_workers": WORKLOADS[args.workload].get("workers"),
        "versions": good[False][0]["versions"],
        "python": sys.version.split()[0],
        "host_scale_p50": statistics.median(r["host_scale"] for r in good[False] + setup_runs),
        "unscaled": end_to_end(unscaled[: len(good[False])], [r["setup_s"] for r in unscaled]),
        "operations": {
            "untraced": len(readings[False]),
            "traced": len(readings[True]),
            "setups": len(setups),
        },
    }
    print(json.dumps({"env": env_doc}))
    if args.trace:
        out = root / ".perfbench" / "trace"
        out.mkdir(exist_ok=True)
        path = out / f"{args.workload}-n{args.netlist_seed}-s{args.seed}.json"
        path.write_text(json.dumps({"env": env_doc, "traced": good[True]}))
    result = {
        "correct": not problems and all(not r["failed"] for r in every),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
