"""Placement container tests: HPWL, legality checks."""

import pytest

from repro.core import DSPlacer
from repro.placers import Placement, VivadoLikePlacer


@pytest.fixture()
def place(tiny_netlist, small_dev):
    return Placement(tiny_netlist, small_dev)


class TestInit:
    def test_fixed_cells_pinned(self, place, tiny_netlist):
        ps = tiny_netlist.cell_by_name("ps")
        assert tuple(place.xy[ps.index]) == ps.fixed_xy

    def test_movable_start_at_center(self, place, small_dev, tiny_netlist):
        lut = tiny_netlist.cell_by_name("lut0")
        assert tuple(place.xy[lut.index]) == (small_dev.width / 2, small_dev.height / 2)

    def test_no_sites_assigned(self, place):
        movable = place.netlist.movable_indices()
        assert all(place.site[i] == -1 for i in movable)


class TestHPWL:
    def test_zero_when_collocated(self, place):
        # all movable at one point; fixed cells contribute their spans
        base = place.hpwl()
        assert base > 0  # PS/IO pull nets open

    def test_hpwl_manual(self, tiny_netlist, small_dev):
        p = Placement(tiny_netlist, small_dev)
        p.xy[:] = 0.0
        a = tiny_netlist.cell_by_name("dsp0").index
        b = tiny_netlist.cell_by_name("dsp1").index
        p.xy[a] = (0.0, 0.0)
        p.xy[b] = (30.0, 40.0)
        # dsp1 sits on nets c01 and c12, each spanning (30 + 40)
        assert p.hpwl() == pytest.approx(140.0)

    def test_weighted_hpwl_uses_net_weights(self, tiny_netlist, small_dev):
        for net in tiny_netlist.nets:
            if net.name == "c01":
                net.weight = 5.0
        p = Placement(tiny_netlist, small_dev)
        p.xy[:] = 0.0
        b = tiny_netlist.cell_by_name("dsp1").index
        p.xy[b] = (10.0, 0.0)
        assert p.hpwl(weighted=True) == pytest.approx(5 * 10.0 + 10.0)
        # dsp1 is on c01 (w=5) and c12 (w=1)

    def test_weighted_hpwl_tracks_live_weight_mutation(self, tiny_netlist, small_dev):
        """Regression: the per-net weights used to be cached on the first
        weighted query, so timing-driven reweighting (which mutates
        ``net.weight`` in place between rounds) silently kept scoring the
        stale weights."""
        p = Placement(tiny_netlist, small_dev)
        p.xy[:] = 0.0
        b = tiny_netlist.cell_by_name("dsp1").index
        p.xy[b] = (10.0, 0.0)
        before = p.hpwl(weighted=True)
        assert before == pytest.approx(20.0)  # c01 + c12, both w=1
        for net in tiny_netlist.nets:
            if net.name == "c01":
                net.weight = 7.0
        assert p.hpwl(weighted=True) == pytest.approx(before + 6 * 10.0)

    def test_hpwl_translation_invariant(self, place, rng):
        movable = place.netlist.movable_indices()
        place.xy[movable] = rng.uniform(0, 300, (len(movable), 2))
        h1 = place.hpwl()
        # translating *everything* (fixed included) keeps HPWL
        p2 = place.copy()
        p2.xy = p2.xy + 7.0
        assert p2.hpwl() == pytest.approx(h1)

    def test_copy_independent(self, place):
        c = place.copy()
        c.xy[0, 0] += 1
        assert place.xy[0, 0] != c.xy[0, 0]


class TestLegalityArrays:
    def test_match_cell_loop(self, every_kind_netlist, small_dev):
        cells = every_kind_netlist.cells
        fixed_idx, fixed_xy, kind_idx = Placement(
            every_kind_netlist, small_dev
        )._legality_arrays()
        fixed = [c for c in cells if c.is_fixed]
        assert fixed_idx.tolist() == [c.index for c in fixed]
        assert fixed_xy.tolist() == [list(c.fixed_xy) for c in fixed]
        assert set(kind_idx) == {"DSP", "BRAM", "CLB"}
        for kind, idx in kind_idx.items():
            assert idx.tolist() == [
                c.index for c in cells if not c.is_fixed and c.ctype.site_kind == kind
            ]


class TestLegality:
    def test_unplaced_cells_reported(self, place):
        v = place.legality_violations()
        assert any("no legal" in s for s in v)

    def test_assign_site_syncs_xy(self, place, small_dev, tiny_netlist):
        d = tiny_netlist.cell_by_name("dsp0").index
        place.assign_site(d, 3)
        assert tuple(place.xy[d]) == tuple(small_dev.site_xy("DSP")[3])

    def test_double_occupancy_detected(self, place, tiny_netlist):
        a = tiny_netlist.cell_by_name("dsp0").index
        b = tiny_netlist.cell_by_name("dsp1").index
        place.assign_site(a, 0)
        place.assign_site(b, 0)
        v = place.legality_violations()
        assert any("holds 2 cells" in s for s in v)

    def test_macro_split_column_detected(self, place, tiny_netlist, small_dev):
        col0 = small_dev.column_site_ids("DSP", 0)
        col1 = small_dev.column_site_ids("DSP", 1)
        names = ["dsp0", "dsp1", "dsp2"]
        sites = [col0[0], col0[1], col1[0]]
        for n, s in zip(names, sites):
            place.assign_site(tiny_netlist.cell_by_name(n).index, s)
        v = place.legality_violations()
        assert any("spans columns" in s for s in v)

    def test_macro_gap_detected(self, place, tiny_netlist, small_dev):
        col0 = small_dev.column_site_ids("DSP", 0)
        for n, s in zip(["dsp0", "dsp1", "dsp2"], [col0[0], col0[1], col0[3]]):
            place.assign_site(tiny_netlist.cell_by_name(n).index, s)
        v = place.legality_violations()
        assert any("not consecutive" in s for s in v)

    def test_moved_fixed_cell_detected(self, place, tiny_netlist):
        ps = tiny_netlist.cell_by_name("ps").index
        place.xy[ps] = (999.0, 999.0)
        assert any("fixed" in s for s in place.legality_violations())

    def test_over_capacity_sites_in_first_seen_order(self, place, tiny_netlist):
        # the lowest cell on an overfull site decides the order, not the site id
        for name, site in (("dsp0", 5), ("dsp1", 2), ("dsp2", 5), ("dsp3", 2), ("dsp4", 7)):
            place.assign_site(tiny_netlist.cell_by_name(name).index, site)
        held = [m for m in place.legality_violations() if "holds" in m]
        assert held == ["DSP site 5 holds 2 cells (cap 1)", "DSP site 2 holds 2 cells (cap 1)"]


class TestOutOfRangeMacroSite:
    """A macro member on a site id past the last DSP site is reported as
    unsited; the macro checks skip its macro instead of indexing past the
    site list."""

    @pytest.fixture()
    def broken(self, mini_accel, small_dev):
        place = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        assert place.is_legal()
        member = mini_accel.macros[0].dsps[1]
        place.site[member] = small_dev.n_sites("DSP") + 5
        return place, mini_accel.cells[member].name

    def test_reported_not_raised(self, broken):
        place, name = broken
        assert place.legality_violations() == [f"{name}: no legal DSP site"]
        assert not place.is_legal()

    def test_dsplacer_accepts_it_as_initial_placement(self, broken, mini_accel, small_dev):
        place, _ = broken
        result = DSPlacer(small_dev).place(mini_accel, initial_placement=place)
        assert result.placement.is_legal()
