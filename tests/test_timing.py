"""Delay model and STA tests."""

import numpy as np
import pytest

from repro.netlist import CellType, Netlist
from repro.placers import Placement, VivadoLikePlacer
from repro.router import GlobalRouter
from repro.timing import DelayModel, StaticTimingAnalyzer, max_frequency


class TestDelayModel:
    def test_sequential_kinds(self):
        dm = DelayModel()
        for kind in (CellType.FF, CellType.DSP, CellType.BRAM, CellType.IO, CellType.PS):
            assert dm.is_sequential(kind)
        for kind in (CellType.LUT, CellType.CARRY, CellType.LUTRAM):
            assert not dm.is_sequential(kind)

    def test_net_delay_grows_with_distance(self):
        dm = DelayModel()
        assert dm.net_delay(1000.0) > dm.net_delay(100.0)

    def test_detour_lengthens(self):
        dm = DelayModel()
        assert dm.net_delay(1000.0, detour=1.5) > dm.net_delay(1000.0)

    def test_cascade_adjacent_is_cheap(self):
        dm = DelayModel()
        assert dm.cascade_delay(True, 500.0) < dm.cascade_delay(False, 500.0)
        assert dm.cascade_delay(True, 9999.0) == dm.cascade_fixed


@pytest.fixture()
def two_ff_netlist():
    """ff_a -> lut -> ff_b with controllable geometry."""
    nl = Netlist("2ff")
    nl.target_freq_mhz = 100.0
    a = nl.add_cell("ffa", CellType.FF)
    l = nl.add_cell("lut", CellType.LUT)
    b = nl.add_cell("ffb", CellType.FF)
    anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
    nl.add_net("n0", anchor, [a])
    nl.add_net("n1", a, [l])
    nl.add_net("n2", l, [b])
    return nl, a, l, b


class TestSTAHandComputed:
    def test_path_delay_exact(self, two_ff_netlist, small_dev):
        nl, a, l, b = two_ff_netlist
        p = Placement(nl, small_dev)
        p.xy[[a, l, b]] = [[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]]
        dm = DelayModel()
        rep = StaticTimingAnalyzer(nl, dm).analyze(p, period_ns=10.0)
        expect_arr = (
            dm.clk_to_q[CellType.FF]
            + dm.net_delay(100.0)
            + dm.prop[CellType.LUT]
            + dm.net_delay(100.0)
        )
        expect_slack = 10.0 - dm.setup[CellType.FF] - expect_arr
        # ffb's endpoint slack is the WNS (the pad→ffa path is shorter)
        assert rep.wns_ns == pytest.approx(expect_slack, abs=1e-9)

    def test_wns_degrades_with_distance(self, two_ff_netlist, small_dev):
        nl, a, l, b = two_ff_netlist
        p1 = Placement(nl, small_dev)
        p1.xy[[a, l, b]] = [[0, 0], [50, 0], [100, 0]]
        p2 = p1.copy()
        p2.xy[b] = [700.0, 400.0]
        sta = StaticTimingAnalyzer(nl)
        assert sta.analyze(p2, period_ns=10).wns_ns < sta.analyze(p1, period_ns=10).wns_ns

    def test_tns_sums_negative_endpoints(self, two_ff_netlist, small_dev):
        nl, a, l, b = two_ff_netlist
        p = Placement(nl, small_dev)
        rep = StaticTimingAnalyzer(nl).analyze(p, period_ns=0.01)  # impossible clock
        assert rep.wns_ns < 0
        assert rep.tns_ns <= rep.wns_ns
        assert rep.n_failing >= 1

    def test_met_flag(self, two_ff_netlist, small_dev):
        nl, *_ = two_ff_netlist
        p = Placement(nl, small_dev)
        assert StaticTimingAnalyzer(nl).analyze(p, period_ns=100.0).met
        assert not StaticTimingAnalyzer(nl).analyze(p, period_ns=0.01).met

    def test_critical_path_endpoints(self, two_ff_netlist, small_dev):
        nl, a, l, b = two_ff_netlist
        p = Placement(nl, small_dev)
        p.xy[[a, l, b]] = [[0, 0], [300, 0], [600, 0]]
        rep = StaticTimingAnalyzer(nl).analyze(p, period_ns=10.0)
        assert rep.critical_path[0] == a
        assert rep.critical_path[-1] == b

    def test_default_period_from_netlist(self, two_ff_netlist, small_dev):
        nl, *_ = two_ff_netlist
        rep = StaticTimingAnalyzer(nl).analyze(Placement(nl, small_dev))
        assert rep.period_ns == pytest.approx(10.0)

    def test_missing_period_rejected(self, two_ff_netlist, small_dev):
        nl, *_ = two_ff_netlist
        nl.target_freq_mhz = None
        with pytest.raises(ValueError):
            StaticTimingAnalyzer(nl).analyze(Placement(nl, small_dev))


class TestCascadeTiming:
    @pytest.fixture()
    def cascade_netlist(self):
        nl = Netlist("casc")
        a = nl.add_cell("d0", CellType.DSP, is_datapath=True)
        b = nl.add_cell("d1", CellType.DSP, is_datapath=True)
        anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
        nl.add_net("in", anchor, [a])
        nl.add_net("casc", a, [b])
        nl.add_macro([a, b])
        return nl, a, b

    def test_adjacent_cascade_fast(self, cascade_netlist, small_dev):
        nl, a, b = cascade_netlist
        p = Placement(nl, small_dev)
        ids = small_dev.column_site_ids("DSP", 0)
        p.assign_site(a, ids[0])
        p.assign_site(b, ids[1])
        dm = DelayModel()
        rep = StaticTimingAnalyzer(nl, dm).analyze(p, period_ns=10.0)
        # endpoint b is the worst (pad→a is shorter than a→b? check both)
        assert min(rep.endpoint_slack) == pytest.approx(rep.wns_ns)
        b_slack = 10.0 - dm.setup[CellType.DSP] - (dm.clk_to_q[CellType.DSP] + dm.cascade_fixed)
        assert rep.wns_ns <= b_slack + 1e-9

    def test_broken_cascade_pays_penalty(self, cascade_netlist, small_dev):
        nl, a, b = cascade_netlist
        sta = StaticTimingAnalyzer(nl)
        adj = Placement(nl, small_dev)
        ids = small_dev.column_site_ids("DSP", 0)
        adj.assign_site(a, ids[0])
        adj.assign_site(b, ids[1])
        split = Placement(nl, small_dev)
        split.assign_site(a, ids[0])
        split.assign_site(b, small_dev.column_site_ids("DSP", 2)[0])
        assert sta.analyze(split, period_ns=10).wns_ns < sta.analyze(adj, period_ns=10).wns_ns


class TestSTAOnGenerated:
    def test_runs_on_accelerator(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        r = GlobalRouter(grid=(16, 16)).route(p)
        sta = StaticTimingAnalyzer(mini_accel)
        assert not sta.has_comb_cycles
        rep = sta.analyze(p, r)
        assert rep.n_endpoints > 100
        assert np.isfinite(rep.wns_ns)
        assert rep.tns_ns <= 0.0 or rep.met

    def test_max_frequency_consistent(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        sta = StaticTimingAnalyzer(mini_accel)
        fmax = max_frequency(sta, p)
        just_met = sta.analyze(p, period_ns=1e3 / (fmax * 0.99))
        just_miss = sta.analyze(p, period_ns=1e3 / (fmax * 1.01))
        assert just_met.wns_ns >= -1e-6
        assert just_miss.wns_ns < 1e-6

    def test_detours_worsen_wns(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        sta = StaticTimingAnalyzer(mini_accel)
        no_detour = sta.analyze(p, period_ns=8.0)
        r = GlobalRouter(grid=(16, 16), capacity=0.05, detour_strength=2.0).route(p)
        with_detour = sta.analyze(p, r, period_ns=8.0)
        assert with_detour.wns_ns <= no_detour.wns_ns
