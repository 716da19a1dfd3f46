"""Placement panel: fingerprints of the default flow's placements on a fixed
case list, and a comparison of two such runs.

The cases are the five suites at scale 0.05 with netlist seeds 0 and 1,
skrskr2@0.25 with seeds 0-3 and skrskr3@0.3 with seeds 1-3, each placed
once cold by ``DSPlacer(fabric_device("zcu104", scale), DSPlacerConfig())``
and signed off as perfbench signs off: ``GlobalRouter``, then STA with the
config's skew model, then ``max_frequency``. Each case writes one JSON line:
the netlist's ``netlist_content_hash`` (taken before placing), the SHA-256
of the ``placement.site`` and ``placement.xy`` bytes, the HPWL, legality,
fmax, WNS and TNS at the netlist's target clock, and the SHA-256 of the
endpoint slacks. The placement runs observed, so each line also records
how the flow got there: its Fig. 6 re-placement passes
(``incremental.replaces``), the DSPs each ``place.outer`` iteration moved
and the HPWL of the iterate it produced, ``health.degraded`` and the
rollback count. A change meant to keep netlists, placements and timing
identical must compare equal on every case::

    PYTHONPATH=src python benchmarks/quality_panel.py --out parent.jsonl
    PYTHONPATH=src python benchmarks/quality_panel.py --out change.jsonl
    python benchmarks/quality_panel.py --compare parent.jsonl change.jsonl

``--compare`` prints one line per case: for a case that differs, its HPWL
and fmax change in percent, and for any case whose passes or ``degraded``
changed, that change. A last line gives the median and mean HPWL change
over all cases, the number of cases whose fmax moved, and each run's
degraded count, rollback total and geomean fmax. The exit status is 1 if
any case differs or is missing from either run. The 17 cases take about a
minute on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys

SUITES = ("ismartdnn", "skynet", "skrskr1", "skrskr2", "skrskr3")
#: (suite, scale, netlist seed)
CASES = (
    [(suite, 0.05, seed) for suite in SUITES for seed in (0, 1)]
    + [("skrskr2", 0.25, seed) for seed in range(4)]
    + [("skrskr3", 0.3, seed) for seed in (1, 2, 3)]
)
#: the fields two runs must agree on
COMPARED = (
    "netlist_sha256", "site_sha256", "xy_sha256", "hpwl_um", "legal",
    "fmax_mhz", "wns_ns", "tns_ns", "slack_sha256",
)


def place_case(suite: str, scale: float, seed: int) -> dict:
    """One cold default placement, its sign-off, and their fingerprint."""
    from repro import obs
    from repro.accelgen import generate_suite
    from repro.clock import get_skew_model
    from repro.core import DSPlacer, DSPlacerConfig
    from repro.fpga import fabric_device
    from repro.router import GlobalRouter
    from repro.serve import netlist_content_hash
    from repro.timing import StaticTimingAnalyzer, max_frequency

    device = fabric_device("zcu104", scale)
    netlist = generate_suite(suite, scale=scale, device=device, seed=seed)
    netlist_sha256 = netlist_content_hash(netlist)
    config = DSPlacerConfig()
    with obs.observe() as ob:
        result = DSPlacer(device, config).place(netlist)
    placement = result.placement
    route = GlobalRouter().route(placement)
    sta = StaticTimingAnalyzer(netlist, skew_model=get_skew_model(config.skew_model, device))
    fmax = max_frequency(sta, placement, route)
    report = sta.analyze(placement, route)
    outers = ob.tracer.find("place.outer")
    return {
        "case": f"{suite}@{scale:g}/seed{seed}",
        "netlist_sha256": netlist_sha256,
        "site_sha256": hashlib.sha256(placement.site.tobytes()).hexdigest(),
        "xy_sha256": hashlib.sha256(placement.xy.tobytes()).hexdigest(),
        "hpwl_um": float(placement.hpwl()),
        "legal": bool(placement.is_legal()),
        "fmax_mhz": fmax,
        "wns_ns": report.wns_ns,
        "tns_ns": report.tns_ns,
        "slack_sha256": hashlib.sha256(report.endpoint_slack.tobytes()).hexdigest(),
        "passes": result.report.metrics["counters"].get("incremental.replaces", 0),
        "dsps_moved": [sp.attrs.get("dsps_moved") for sp in outers],
        "outer_hpwl_um": [sp.attrs.get("hpwl_um") for sp in outers],
        "degraded": result.health.degraded,
        "rollbacks": result.health.n_rollbacks,
    }


def load_rows(path: str) -> dict[str, dict]:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["case"]: row for row in rows}


def _pct(a: dict, b: dict, key: str) -> float:
    """Percent change of ``key`` from run ``a`` to run ``b``."""
    return 100.0 * (b[key] - a[key]) / a[key]


def compare(path_a: str, path_b: str) -> int:
    """Print per-case equality and deltas of two runs; 0 if every case is equal."""
    a, b = load_rows(path_a), load_rows(path_b)
    n_equal = 0
    hpwl_pct = []
    fmax_moved = 0
    for case in sorted(a.keys() | b.keys()):
        if case not in a or case not in b:
            print(f"{case}: missing from {path_a if case not in a else path_b}")
            continue
        ra, rb = a[case], b[case]
        hpwl_pct.append(_pct(ra, rb, "hpwl_um"))
        fmax_moved += ra["fmax_mhz"] != rb["fmax_mhz"]
        # the run's path: passes and ``degraded`` may move with equal placements
        path = ", ".join(
            f"{k} {ra.get(k)} → {rb.get(k)}"
            for k in ("passes", "degraded")
            if ra.get(k) != rb.get(k)
        )
        diff = [k for k in COMPARED if ra.get(k) != rb.get(k)]
        if diff:
            line = (
                f"{case}: DIFFERENT ({', '.join(diff)}); "
                f"HPWL {hpwl_pct[-1]:+.4f}%, fmax {_pct(ra, rb, 'fmax_mhz'):+.4f}%"
            )
        else:
            n_equal += 1
            line = f"{case}: equal"
        print(f"{line}; {path}" if path else line)
    total = len(a.keys() | b.keys())
    print(f"{n_equal} of {total} cases equal")
    if hpwl_pct:
        degraded = [sum(bool(r.get("degraded")) for r in run.values()) for run in (a, b)]
        rollbacks = [sum(r.get("rollbacks") or 0 for r in run.values()) for run in (a, b)]
        fmax = [statistics.geometric_mean(r["fmax_mhz"] for r in run.values()) for run in (a, b)]
        print(
            f"HPWL change over {len(hpwl_pct)} cases: median "
            f"{statistics.median(hpwl_pct):+.4f}%, mean {statistics.fmean(hpwl_pct):+.4f}%; "
            f"fmax moved on {fmax_moved}; degraded {degraded[0]} → {degraded[1]}; "
            f"rollbacks {rollbacks[0]} → {rollbacks[1]}; "
            f"geomean fmax {fmax[0]:.2f} → {fmax[1]:.2f} MHz"
        )
    return 0 if n_equal == total else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--out", help="write the JSON lines here (default: stdout)")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="compare two panel runs instead of placing")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for case in CASES:
            print(json.dumps(place_case(*case)), file=out, flush=True)
    finally:
        if args.out:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
