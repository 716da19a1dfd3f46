"""Linearized MCF assignment tests."""

import numpy as np
import pytest

import repro.core.placement.assignment as assignment_mod
from repro.core.extraction import build_dsp_graph, prune_control_dsps
from repro.core.placement import AssignmentConfig, DatapathDSPAssigner
from repro.core.placement.assignment import solve_iterate
from repro.netlist import CellType, Netlist
from repro.placers import Placement
from tests.oracles import hungarian


def _two_dsp_netlist():
    nl = Netlist("a")
    anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(100.0, 100.0))
    d0 = nl.add_cell("d0", CellType.DSP, is_datapath=True)
    d1 = nl.add_cell("d1", CellType.DSP, is_datapath=True)
    nl.add_net("in", anchor, [d0])
    nl.add_net("c", d0, [d1])
    nl.add_macro([d0, d1])
    return nl, d0, d1


@pytest.fixture()
def assigner_setup(small_dev):
    nl, d0, d1 = _two_dsp_netlist()
    graph = build_dsp_graph(nl)
    return nl, small_dev, graph, [d0, d1]


class TestAssignerBasics:
    def test_assigns_all(self, assigner_setup):
        nl, dev, graph, dsps = assigner_setup
        a = DatapathDSPAssigner(nl, dev, graph, dsps, AssignmentConfig(max_iterations=4))
        result, iters = a.solve(Placement(nl, dev))
        assert set(result) == set(dsps)
        assert len(set(result.values())) == len(dsps)
        assert 1 <= iters <= 4

    def test_sites_near_anchor(self, assigner_setup):
        """The wirelength term should pull d0 toward its fixed anchor."""
        nl, dev, graph, dsps = assigner_setup
        cfg = AssignmentConfig(lam=0.0, eta=0.0, max_iterations=4)
        a = DatapathDSPAssigner(nl, dev, graph, dsps, cfg)
        result, _ = a.solve(Placement(nl, dev))
        site_xy = dev.site_xy("DSP")
        d = np.abs(site_xy[result[dsps[0]]] - [100.0, 100.0]).sum()
        all_d = np.abs(site_xy - [100.0, 100.0]).sum(axis=1)
        assert d <= np.partition(all_d, 3)[3] + 1e-9  # within the 4 closest

    def test_empty_dsps_rejected(self, assigner_setup):
        nl, dev, graph, _ = assigner_setup
        with pytest.raises(ValueError):
            DatapathDSPAssigner(nl, dev, graph, [])

    def test_too_many_dsps_rejected(self, small_dev):
        nl = Netlist("big")
        anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
        dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(small_dev.n_dsp + 1)]
        nl.add_net("n", anchor, [dsps[0]])
        graph = build_dsp_graph(nl, paths=[])
        with pytest.raises(ValueError, match="exceed"):
            DatapathDSPAssigner(nl, small_dev, graph, dsps)

    def test_all_engines_agree(self, assigner_setup):
        """The assigner's dense solve and the Hungarian oracle reach the
        same optimal assignment cost."""
        nl, dev, graph, dsps = assigner_setup
        a = DatapathDSPAssigner(nl, dev, graph, dsps, AssignmentConfig(max_iterations=1))
        cost = a.cost_matrix(Placement(nl, dev), None)
        sites = solve_iterate(cost)
        _, optimum = hungarian(cost)
        got = float(cost[np.arange(len(dsps)), sites].sum())
        assert got == pytest.approx(optimum, abs=1e-9)


class TestAngleTerm:
    def test_datapath_angle_orders_chain(self, small_dev, monkeypatch):
        """With a dominant λ, the DSP-graph predecessor must land at a site
        with smaller cos θ (closer to vertical above the PS) than the
        successor (paper eq. 6)."""
        monkeypatch.setattr(assignment_mod, "WL_SCALE", 1e-9)
        nl, d0, d1 = _two_dsp_netlist()
        graph = build_dsp_graph(nl)
        cfg = AssignmentConfig(lam=1e6, eta=0.0, max_iterations=3)
        a = DatapathDSPAssigner(nl, small_dev, graph, [d0, d1], cfg)
        result, _ = a.solve(Placement(nl, small_dev))
        xy = small_dev.site_xy("DSP")

        def cos(s):
            x, y = xy[s]
            return x / np.hypot(x, y)

        assert cos(result[d0]) <= cos(result[d1]) + 1e-9

    def test_angle_coefficient_signs(self, assigner_setup):
        nl, dev, graph, dsps = assigner_setup
        a = DatapathDSPAssigner(nl, dev, graph, dsps, AssignmentConfig(lam=100.0))
        # d0 is a pure predecessor (+λ), d1 a pure successor (−λ)
        assert a._angle_coef[0] == pytest.approx(100.0)
        assert a._angle_coef[1] == pytest.approx(-100.0)


class TestCascadeTerm:
    def test_eta_pulls_pairs_together(self, small_dev, monkeypatch):
        monkeypatch.setattr(assignment_mod, "WL_SCALE", 1e-9)
        nl, d0, d1 = _two_dsp_netlist()
        graph = build_dsp_graph(nl)
        cfg = AssignmentConfig(lam=0.0, eta=1e5, max_iterations=6)
        a = DatapathDSPAssigner(nl, small_dev, graph, [d0, d1], cfg)
        result, _ = a.solve(Placement(nl, small_dev))
        # successor should sit exactly one site above the predecessor
        assert result[d1] == result[d0] + 1

    def test_convergence_stops_early(self, assigner_setup):
        nl, dev, graph, dsps = assigner_setup
        cfg = AssignmentConfig(max_iterations=50)
        a = DatapathDSPAssigner(nl, dev, graph, dsps, cfg)
        _, iters = a.solve(Placement(nl, dev))
        assert iters < 50


class TestOnGeneratedDesign:
    def test_full_extraction_to_assignment(self, mini_accel, small_dev):
        from repro.core.extraction import iddfs_dsp_paths

        paths = iddfs_dsp_paths(mini_accel)
        graph = build_dsp_graph(mini_accel, paths)
        flags = {i: bool(mini_accel.cells[i].is_datapath) for i in mini_accel.dsp_indices()}
        dgraph = prune_control_dsps(graph, flags)
        dsps = dgraph.nodes.tolist()
        from repro.placers import VivadoLikePlacer

        place = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        a = DatapathDSPAssigner(mini_accel, small_dev, dgraph, dsps, AssignmentConfig(max_iterations=6))
        result, _ = a.solve(place.copy())
        assert set(result) == set(dsps)
        assert len(set(result.values())) == len(dsps)
