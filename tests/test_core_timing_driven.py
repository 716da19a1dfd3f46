"""Timing-driven DSPlacer extension (slack-weighted assignment)."""

import numpy as np
import pytest

from repro.core import DSPlacer, DSPlacerConfig
from repro.core.extraction import build_dsp_graph
from repro.core.placement import AssignmentConfig, DatapathDSPAssigner, assignment
from repro.netlist import CellType, Netlist
from repro.placers import Placement


class TestSetCriticality:
    @pytest.fixture()
    def assigner(self, small_dev):
        nl = Netlist("td")
        anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(10.0, 10.0))
        crit_ff = nl.add_cell("crit_ff", CellType.FF)
        slow_ff = nl.add_cell("slow_ff", CellType.FF)
        d = nl.add_cell("d", CellType.DSP, is_datapath=True)
        nl.add_net("seed", anchor, [crit_ff, slow_ff])
        nl.add_net("a", crit_ff, [d])
        nl.add_net("b", slow_ff, [d])
        graph = build_dsp_graph(nl, paths=[])
        a = DatapathDSPAssigner(nl, small_dev, graph, [d], AssignmentConfig(lam=0.0, eta=0.0))
        return nl, a, crit_ff, slow_ff, d

    def test_criticality_scales_weights(self, assigner, monkeypatch):
        nl, a, crit_ff, slow_ff, d = assigner
        monkeypatch.setattr(assignment, "CRITICALITY_BOOST", 3.0)
        slack = np.full(len(nl.cells), 10.0)
        slack[crit_ff] = -1.0  # failing path through crit_ff
        a.set_criticality(slack, period_ns=5.0)
        idx, val = a._neighbors[0]
        base_idx, base_val = a._base_neighbors[0]
        by_cell = dict(zip(idx, val))
        base_by_cell = dict(zip(base_idx, base_val))
        assert by_cell[crit_ff] > base_by_cell[crit_ff] * 2.5
        assert by_cell[slow_ff] == pytest.approx(base_by_cell[slow_ff])

    def test_nan_slack_neutral(self, assigner):
        nl, a, crit_ff, slow_ff, d = assigner
        slack = np.full(len(nl.cells), np.nan)
        a.set_criticality(slack, period_ns=5.0)
        idx, val = a._neighbors[0]
        base_idx, base_val = a._base_neighbors[0]
        assert np.allclose(val, base_val)

    def test_pull_toward_critical_neighbor(self, assigner, small_dev, monkeypatch):
        nl, a, crit_ff, slow_ff, d = assigner
        p = Placement(nl, small_dev)
        p.xy[crit_ff] = (small_dev.width - 10.0, small_dev.height - 10.0)
        p.xy[slow_ff] = (10.0, 10.0)
        # without criticality: equidistant pull → site near the middle-ish;
        # with crit_ff failing: site should move toward crit_ff's corner
        r0, _ = a.solve(p.copy())
        slack = np.full(len(nl.cells), 10.0)
        slack[crit_ff] = -3.0
        monkeypatch.setattr(assignment, "CRITICALITY_BOOST", 10.0)
        a.set_criticality(slack, period_ns=5.0)
        r1, _ = a.solve(p.copy())
        xy = small_dev.site_xy("DSP")
        d0 = np.abs(xy[r0[3]] - p.xy[crit_ff]).sum()
        d1 = np.abs(xy[r1[3]] - p.xy[crit_ff]).sum()
        assert d1 <= d0


class TestTdCriticalityWeights:
    """The one-gather reweighting helper vs a per-net loop."""

    def test_matches_per_net_loop_oracle(self):
        from repro.placers.vivado_like import td_criticality_weights

        rng = np.random.default_rng(3)
        n_cells, n_nets = 40, 25
        slack = rng.uniform(-3.0, 8.0, n_cells)
        slack[rng.integers(0, n_cells, 6)] = np.nan
        driver = rng.integers(0, n_cells, n_nets)
        weights = rng.uniform(0.5, 2.0, n_nets)
        period, boost = 5.0, 2.0
        got = td_criticality_weights(slack, driver, weights, period, boost)
        for k in range(n_nets):
            s = slack[driver[k]]
            if np.isnan(s):
                # a driver outside the timed graph leaves its net's weight
                assert got[k] == weights[k]
            else:
                crit = min(max(1.0 - s / period, 0.0), 1.0)
                assert got[k] == pytest.approx(weights[k] * (1.0 + boost * crit))

    def test_all_nan_slack_is_identity(self):
        from repro.placers.vivado_like import td_criticality_weights

        weights = np.array([1.5, 2.5, 0.5])
        got = td_criticality_weights(
            np.full(4, np.nan),
            np.array([0, 2, 3]),
            weights,
            5.0,
            2.0,
        )
        np.testing.assert_array_equal(got, weights)


class TestTimingDrivenFlow:
    def test_flow_runs_and_is_legal(self, mini_accel, small_dev):
        placer = DSPlacer(
            small_dev,
            DSPlacerConfig(identification="oracle", mcf_iterations=3, timing_driven=True),
        )
        res = placer.place(mini_accel)
        assert res.placement.is_legal()
