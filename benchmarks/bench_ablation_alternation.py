"""Ablation A5 — the Fig. 6 incremental alternation depth.

DSPlacer alternates "place datapath DSPs" with "re-place everything else".
One alternation leaves the rest of the design stranded around the old DSP
skeleton; more alternations let it contract. We sweep the outer-iteration
bound; a run stops sooner once an iteration moves no DSP, so the table
also counts the re-placement passes each depth ran.
"""

from repro.core import DSPlacer, DSPlacerConfig
from repro.eval import render_table
from repro.eval.experiments import get_device, get_netlist
from repro.eval.profiling import traced
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
            passes = sum(sp.name == "place.incremental" for sp in place.iter())
            out.append((depth, passes, res.placement.hpwl(), fmax, place.wall_s))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_alternation",
        render_table(
            ["outer iters", "passes", "HPWL (um)", "f_max (MHz)", "runtime (s)"],
            [[d, n, f"{hp:.4g}", f"{f:.0f}", f"{t:.3f}"] for d, n, hp, f, t in results],
            title="Ablation A5: incremental alternation depth (Fig. 6).",
        ),
    )
    fmax = {d: f for d, _, _, f, _ in results}
    # alternating at least twice should not lose to a single pass
    assert max(fmax[2], fmax[3]) >= fmax[1] * 0.97

