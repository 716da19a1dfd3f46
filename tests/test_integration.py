"""Cross-module integration tests: the full paper pipeline at small scale."""

import pytest

from repro.accelgen import generate_suite
from repro.core import DSPlacer, DSPlacerConfig
from repro.core.extraction import (
    DatapathIdentifier,
    build_dsp_graph,
    build_graph_sample,
    iddfs_dsp_paths,
    prune_control_dsps,
)
from repro.eval.visualization import layout_metrics
from repro.fpga import scaled_zcu104
from repro.netlist import netlist_from_json, netlist_to_json
from repro.placers import AMFLikePlacer, VivadoLikePlacer
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer, max_frequency


@pytest.fixture(scope="module")
def setup():
    dev = scaled_zcu104(0.08)
    nl = generate_suite("skrskr1", scale=0.08, device=dev)
    return dev, nl


@pytest.fixture(scope="module")
def flows(setup):
    dev, nl = setup
    router = GlobalRouter()
    sta = StaticTimingAnalyzer(nl)
    out = {}
    for name, make in (
        ("vivado", lambda: VivadoLikePlacer(seed=0, device=dev).place(nl)),
        ("amf", lambda: AMFLikePlacer(seed=0, device=dev).place(nl)),
        (
            "dsplacer",
            lambda: DSPlacer(
                dev, DSPlacerConfig(identification="oracle", mcf_iterations=8, seed=0)
            )
            .place(nl)
            .placement,
        ),
    ):
        p = make()
        r = router.route(p)
        out[name] = (p, r, max_frequency(sta, p, r))
    return out


class TestFullPipeline:
    def test_all_flows_legal(self, flows):
        for name, (p, _r, _f) in flows.items():
            assert p.is_legal(), f"{name}: {p.legality_violations()[:3]}"

    def test_dsplacer_best_fmax(self, flows):
        """The headline claim at small scale: DSPlacer closes the highest
        clock among the three flows."""
        f = {k: v[2] for k, v in flows.items()}
        assert f["dsplacer"] >= f["vivado"] * 0.99
        assert f["dsplacer"] >= f["amf"] * 0.99

    def test_amf_not_better_than_vivado(self, flows):
        f = {k: v[2] for k, v in flows.items()}
        assert f["amf"] <= f["vivado"] * 1.08

    def test_dsplacer_datapath_more_ordered(self, setup, flows):
        dev, nl = setup
        paths = iddfs_dsp_paths(nl)
        g = build_dsp_graph(nl, paths)
        flags = {i: bool(nl.cells[i].is_datapath) for i in nl.dsp_indices()}
        dg = prune_control_dsps(g, flags)
        m_dsp = layout_metrics(flows["dsplacer"][0], dg)
        m_amf = layout_metrics(flows["amf"][0], dg)
        # DSPlacer orders the datapath along the PS arc at least as well
        assert m_dsp.angle_monotonicity >= m_amf.angle_monotonicity - 0.05

    def test_wns_protocol(self, setup, flows):
        """Paper V-C protocol: at Vivado's break frequency, Vivado is
        negative and DSPlacer is non-negative (or clearly better)."""
        dev, nl = setup
        sta = StaticTimingAnalyzer(nl)
        f_eval = flows["vivado"][2] * 1.03
        period = 1e3 / f_eval
        wns = {
            k: sta.analyze(p, r, period_ns=period).wns_ns for k, (p, r, _f) in flows.items()
        }
        assert wns["vivado"] < 0
        assert wns["dsplacer"] > wns["vivado"]


class TestIdentificationTransfer:
    def test_gcn_trained_on_one_suite_transfers(self, setup):
        """Train GCN on SkyNet, identify on SkrSkr-1 (cross-benchmark)."""
        dev, nl = setup
        train_nl = generate_suite("skynet", scale=0.08)
        train_sample = build_graph_sample(train_nl)
        ident = DatapathIdentifier(method="gcn", epochs=80, seed=0).fit([train_sample])
        res = ident.predict(nl, sample=build_graph_sample(nl))
        assert res.accuracy >= 0.8

    def test_serialization_roundtrip_preserves_pipeline(self, setup):
        dev, nl = setup
        back = netlist_from_json(netlist_to_json(nl))
        p1 = VivadoLikePlacer(seed=5, device=dev).place(nl)
        p2 = VivadoLikePlacer(seed=5, device=dev).place(back)
        assert p1.hpwl() == pytest.approx(p2.hpwl())
