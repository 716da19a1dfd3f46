"""Ablation A5 — the Fig. 6 incremental alternation depth.

DSPlacer alternates "place datapath DSPs" with "re-place everything else".
One alternation leaves the rest of the design stranded around the old DSP
skeleton; more alternations let it contract. We sweep outer iterations.
"""

from repro.core import DSPlacer, DSPlacerConfig
from repro.eval import render_table
from repro.eval.experiments import get_device, get_netlist
from repro.eval.profiling import stage_seconds, traced
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer, max_frequency

SUITE = "skrskr1"
DEPTHS = (1, 2, 3)


def test_ablation_alternation(benchmark, settings, emit):
    device = get_device(settings)
    netlist = get_netlist(settings, SUITE)
    router = GlobalRouter()
    sta = StaticTimingAnalyzer(netlist)

    def sweep():
        out = []
        for depth in DEPTHS:
            placer = DSPlacer(
                device,
                DSPlacerConfig(
                    identification="oracle", outer_iterations=depth, seed=settings.seed
                ),
            )
            res, place = traced("place", placer.place, netlist)
            fmax = max_frequency(sta, res.placement, router.route(res.placement))
            out.append((depth, res.placement.hpwl(), fmax, place.wall_s))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_alternation",
        render_table(
            ["outer iters", "HPWL (um)", "f_max (MHz)", "runtime (s)"],
            [[d, f"{hp:.4g}", f"{f:.0f}", f"{t:.3f}"] for d, hp, f, t in results],
            title="Ablation A5: incremental alternation depth (Fig. 6).",
        ),
    )
    fmax = {d: f for d, _, f, _ in results}
    # alternating at least twice should not lose to a single pass
    assert max(fmax[2], fmax[3]) >= fmax[1] * 0.97


def test_ablation_candidate_window(benchmark, settings, emit):
    """Ablation A3 — MCF candidate-window size K (quality/runtime trade)."""
    device = get_device(settings)
    netlist = get_netlist(settings, "skynet")
    router = GlobalRouter()
    sta = StaticTimingAnalyzer(netlist)

    def sweep():
        out = []
        for k in (8, 48, 128):
            placer = DSPlacer(
                device,
                DSPlacerConfig(
                    identification="oracle",
                    candidate_k=k,
                    assignment_engine="mcf",
                    seed=settings.seed,
                ),
            )
            res, place = traced("place", placer.place, netlist)
            fmax = max_frequency(sta, res.placement, router.route(res.placement))
            stages = stage_seconds(place)
            out.append((k, fmax, stages["assignment"] + stages["legalization"]))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_candidates",
        render_table(
            ["K (candidate sites/DSP)", "f_max (MHz)", "dsp-placement time (s)"],
            [[k, f"{f:.0f}", f"{t:.3f}"] for k, f, t in results],
            title="Ablation A3: MCF candidate-window size.",
        ),
    )
    fmax = {k: f for k, f, _ in results}
    # wider windows can only help quality (same optimal subproblem or better)
    assert fmax[128] >= fmax[8] * 0.95
