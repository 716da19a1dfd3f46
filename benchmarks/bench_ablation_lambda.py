"""Ablation A2 — the λ datapath-angle trade-off (paper sets λ=100).

λ trades wirelength against PS↔PL datapath order (eq. 6/7). We sweep λ and
report datapath order (angle monotonicity), HPWL and f_max: λ=0 ignores the
datapath; very large λ sacrifices wirelength for order.
"""

from repro.core import DSPlacer, DSPlacerConfig
from repro.core.extraction import (
    build_dsp_graph,
    iddfs_dsp_paths,
    prune_control_dsps,
)
from repro.eval import render_table
from repro.eval.experiments import get_device, get_netlist
from repro.eval.visualization import layout_metrics
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer, max_frequency

SUITE = "skynet"
LAMBDAS = (0.0, 10.0, 100.0, 1000.0)


def test_ablation_lambda(benchmark, settings, emit):
    device = get_device(settings)
    netlist = get_netlist(settings, SUITE)
    paths = iddfs_dsp_paths(netlist)
    graph = build_dsp_graph(netlist, paths)
    oracle = {i: bool(netlist.cells[i].is_datapath) for i in netlist.dsp_indices()}
    dgraph = prune_control_dsps(graph, oracle)
    router = GlobalRouter()
    sta = StaticTimingAnalyzer(netlist)

    def sweep():
        out = []
        for lam in LAMBDAS:
            placer = DSPlacer(
                device,
                DSPlacerConfig(identification="oracle", lam=lam, seed=settings.seed),
            )
            res = placer.place(netlist)
            m = layout_metrics(res.placement, dgraph)
            fmax = max_frequency(sta, res.placement, router.route(res.placement))
            out.append((lam, m, res.placement.hpwl(), fmax))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ablation_lambda",
        render_table(
            ["lambda", "angle order", "HPWL (um)", "f_max (MHz)"],
            [[lam, f"{m.angle_monotonicity:+.2f}", f"{hp:.3g}", f"{f:.0f}"] for lam, m, hp, f in results],
            title="Ablation A2: datapath-angle weight λ (paper: λ=100).",
        ),
    )
    order = {lam: m.angle_monotonicity for lam, m, _, _ in results}
    # the angle term must actually steer the layout
    assert order[1000.0] >= order[0.0] - 1e-9
    fmax = {lam: f for lam, _, _, f in results}
    # the paper's λ=100 should not be dominated by switching the term off
    assert fmax[100.0] >= fmax[0.0] * 0.95
