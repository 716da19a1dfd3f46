"""Legalizer tests: overlap-freedom, macro legality, capacity limits."""

import numpy as np
import pytest

from repro.placers import Legalizer, Placement
from repro.netlist import CellType, Netlist
from tests.oracles import ReferenceLegalizer


@pytest.fixture()
def spread_placement(mini_accel, small_dev, rng):
    p = Placement(mini_accel, small_dev)
    mov = mini_accel.movable_indices()
    p.xy[mov] = rng.uniform([0, 0], [small_dev.width, small_dev.height], (len(mov), 2))
    return p


class TestFullLegalize:
    def test_result_is_legal(self, spread_placement, small_dev):
        Legalizer(small_dev).legalize(spread_placement)
        assert spread_placement.is_legal(), spread_placement.legality_violations()[:5]

    def test_macros_consecutive(self, spread_placement, small_dev, mini_accel):
        Legalizer(small_dev).legalize(spread_placement)
        sites = small_dev.sites("DSP")
        for m in mini_accel.macros:
            sids = [int(spread_placement.site[i]) for i in m.dsps]
            assert all(b == a + 1 for a, b in zip(sids, sids[1:]))
            assert len({sites[s].col for s in sids}) == 1

    def test_idempotent_quality(self, spread_placement, small_dev):
        leg = Legalizer(small_dev)
        leg.legalize(spread_placement)
        h1 = spread_placement.hpwl()
        leg.legalize(spread_placement)
        assert spread_placement.is_legal()
        assert spread_placement.hpwl() == pytest.approx(h1, rel=0.3)

    def test_frozen_cells_keep_sites(self, spread_placement, small_dev, mini_accel):
        leg = Legalizer(small_dev)
        leg.legalize(spread_placement)
        frozen = mini_accel.dsp_indices()
        sites_before = spread_placement.site[frozen].copy()
        mask = np.array([not c.is_fixed for c in mini_accel.cells])
        mask[frozen] = False
        leg.legalize(spread_placement, movable_mask=mask)
        assert np.array_equal(spread_placement.site[frozen], sites_before)
        assert spread_placement.is_legal()


class TestDSPLegalization:
    def test_nearest_site_for_single(self, small_dev):
        nl = Netlist("one")
        d = nl.add_cell("d", CellType.DSP)
        anchor = nl.add_cell("a", CellType.IO, fixed_xy=(1.0, 1.0))
        nl.add_net("n", d, [anchor])
        p = Placement(nl, small_dev)
        target = small_dev.site_xy("DSP")[7]
        p.xy[d] = target
        Legalizer(small_dev).legalize(p)
        assert p.site[d] == 7

    def test_macro_longer_than_column_rejected(self, small_dev):
        nl = Netlist("long")
        too_long = small_dev.kind_columns("DSP")[0].n_sites + small_dev.kind_columns("DSP")[1].n_sites + 1
        dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(too_long)]
        anchor = nl.add_cell("a", CellType.IO, fixed_xy=(1.0, 1.0))
        nl.add_net("n", dsps[0], [anchor])
        nl.add_macro(dsps)
        p = Placement(nl, small_dev)
        with pytest.raises(ValueError, match="cascade"):
            Legalizer(small_dev).legalize(p)

    def test_capacity_saturation(self, small_dev):
        """Exactly as many DSPs as sites still legalizes."""
        nl = Netlist("full")
        n = small_dev.n_dsp
        anchor = nl.add_cell("a", CellType.IO, fixed_xy=(1.0, 1.0))
        dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(n)]
        nl.add_net("n", dsps[0], [anchor])
        p = Placement(nl, small_dev)
        Legalizer(small_dev).legalize(p)
        assert sorted(p.site[dsps].tolist()) == list(range(n))


class TestCLBLegalization:
    def test_capacity_respected(self, spread_placement, small_dev):
        Legalizer(small_dev).legalize(spread_placement)
        counts = {}
        for c in spread_placement.netlist.cells:
            if c.ctype.site_kind == "CLB" and not c.is_fixed:
                counts[spread_placement.site[c.index]] = (
                    counts.get(spread_placement.site[c.index], 0) + 1
                )
        assert max(counts.values()) <= small_dev.clb_capacity

    def test_too_many_clb_cells_rejected(self, small_dev):
        nl = Netlist("over")
        cap = small_dev.n_sites("CLB") * small_dev.clb_capacity
        anchor = nl.add_cell("a", CellType.IO, fixed_xy=(1.0, 1.0))
        luts = [nl.add_cell(f"l{i}", CellType.LUT) for i in range(cap + 1)]
        nl.add_net("n", luts[0], [anchor])
        p = Placement(nl, small_dev)
        with pytest.raises(ValueError, match="CLB"):
            Legalizer(small_dev).legalize(p)


class TestLockedCells:
    """Cells outside ``movable_mask``, sited and unsited, of every kind.

    Both engines share the step that collects them (locked sites block,
    locked CLB cells load their site, unsited cells join the todo list),
    so the engine-equivalence suite cannot see a change there.
    """

    @pytest.fixture()
    def locked(self, mini_accel, small_dev):
        nl, dev = mini_accel, small_dev
        rng = np.random.default_rng(11)
        p = Placement(nl, dev)
        mov = nl.movable_indices()
        p.xy[mov] = rng.uniform([0, 0], [dev.width, dev.height], (len(mov), 2))
        Legalizer(dev).legalize(p)
        in_macro = {i for m in nl.macros for i in m.dsps}
        singles = [i for i in nl.dsp_indices() if i not in in_macro]
        brams = [c.index for c in nl.cells if c.ctype is CellType.BRAM]
        clbs = [c.index for c in nl.cells if c.ctype.site_kind == "CLB" and not c.is_fixed]
        cap = dev.clb_capacity
        assert len(singles) >= 2 and len(brams) >= 4 and len(clbs) > 3 * cap
        # one CLB site filled to capacity by locked cells
        full_site = int(p.site[clbs[0]])
        for i in clbs[:cap]:
            p.assign_site(i, full_site)
        sited = {"DSP": singles[:1], "BRAM": brams[:2], "CLB": clbs[:cap]}
        unsited = {"DSP": singles[1:2], "BRAM": brams[2:4], "CLB": clbs[cap : cap + 3]}
        # unsited locked cells and some movable CLB cells all want a
        # locked cell's site
        for kind, cells in unsited.items():
            target = p.xy[sited[kind][0]].copy()
            for i in cells:
                p.site[i] = -1
                p.xy[i] = target
        crowd = clbs[2 * cap : 3 * cap]
        p.xy[crowd] = p.xy[clbs[0]]
        mask = np.array([not c.is_fixed for c in nl.cells])
        for cells in (*sited.values(), *unsited.values()):
            mask[cells] = False
        return p, mask, sited, unsited, full_site

    @pytest.mark.parametrize(
        "legalizer_cls", [Legalizer, ReferenceLegalizer], ids=["vectorized", "reference"]
    )
    def test_locked_cells_respected(self, locked, small_dev, mini_accel, legalizer_cls):
        p, mask, sited, unsited, full_site = locked
        before = p.copy()
        legalizer_cls(small_dev).legalize(p, movable_mask=mask)
        assert p.is_legal(), p.legality_violations()[:5]
        for kind, cells in sited.items():
            assert np.array_equal(p.site[cells], before.site[cells])
        for kind in ("DSP", "BRAM"):
            same_kind = [
                c.index for c in mini_accel.cells if c.ctype.site_kind == kind
            ]
            for i in sited[kind]:
                holders = [j for j in same_kind if p.site[j] == p.site[i]]
                assert holders == [i]
        on_full = [
            c.index
            for c in mini_accel.cells
            if c.ctype.site_kind == "CLB" and not c.is_fixed and p.site[c.index] == full_site
        ]
        assert sorted(on_full) == sorted(sited["CLB"])
        for cells in unsited.values():
            assert (p.site[cells] >= 0).all()
        for c in mini_accel.cells:
            if c.is_fixed:
                assert tuple(p.xy[c.index]) == c.fixed_xy

    def test_engines_agree_with_locked_cells(self, locked, small_dev):
        p, mask, *_ = locked
        q = p.copy()
        Legalizer(small_dev).legalize(p, movable_mask=mask)
        ReferenceLegalizer(small_dev).legalize(q, movable_mask=mask)
        assert np.array_equal(p.site, q.site)
        assert np.array_equal(p.xy, q.xy)

    def test_caller_mask_left_unchanged(self, locked, small_dev):
        p, mask, *_ = locked
        kept = mask.copy()
        Legalizer(small_dev).legalize(p, movable_mask=mask)
        assert np.array_equal(mask, kept)
