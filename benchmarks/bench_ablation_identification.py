"""Ablation A1 — what identification buys the placement.

Section III-B claims that keeping control-path DSPs in the datapath graph
"can result in a less compact datapath layout, potentially degrading the
improvements in timing performance". We compare DSPlacer runs whose
datapath set is (a) the oracle labels, (b) everything (no pruning), on one
mid-size suite, reporting f_max and datapath compactness.
"""

from repro.core import DSPlacer, DSPlacerConfig
from repro.core.extraction import DatapathIdentifier
from repro.eval import render_table
from repro.eval.experiments import get_device, get_netlist
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer, max_frequency

SUITE = "skrskr1"


class _AllDatapath(DatapathIdentifier):
    """No-pruning ablation: every DSP is treated as datapath."""

    def __init__(self):
        super().__init__(method="oracle")

    def predict(self, netlist, sample=None):
        from repro.core.extraction.identification import IdentificationResult

        flags = {i: True for i in netlist.dsp_indices()}
        truth = [1 if netlist.cells[i].is_datapath else 0 for i in netlist.dsp_indices()]
        acc = sum(truth) / len(truth)
        return IdentificationResult(flags=flags, method="all", accuracy=acc)


def _run(settings, identifier):
    device = get_device(settings)
    netlist = get_netlist(settings, SUITE)
    placer = DSPlacer(
        device, DSPlacerConfig(identification="oracle", seed=settings.seed), identifier=identifier
    )
    res = placer.place(netlist)
    router = GlobalRouter()
    sta = StaticTimingAnalyzer(netlist)
    fmax = max_frequency(sta, res.placement, router.route(res.placement))
    return res, fmax


def test_ablation_identification(benchmark, settings, emit):
    def run_all():
        oracle = _run(settings, DatapathIdentifier(method="oracle"))
        nopruning = _run(settings, _AllDatapath())
        return oracle, nopruning

    (oracle_res, f_oracle), (all_res, f_all) = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    emit(
        "ablation_identification",
        render_table(
            ["variant", "datapath DSPs", "f_max (MHz)"],
            [
                ["oracle labels (pruned)", oracle_res.n_datapath_dsps, f"{f_oracle:.0f}"],
                ["no pruning (all DSPs)", all_res.n_datapath_dsps, f"{f_all:.0f}"],
            ],
            title="Ablation A1: control-DSP pruning (Section III-B claim).",
        ),
    )
    assert all_res.n_datapath_dsps > oracle_res.n_datapath_dsps
    # pruning should never lose much and typically wins
    assert f_oracle >= f_all * 0.97
