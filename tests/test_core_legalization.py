"""Cascade legalization tests: ILP inter-column + exact intra-column."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.placement import CascadeLegalizer
from repro.core.placement.legalization import _Entity
from repro.errors import LegalizationError
from repro.fpga.device import SiteColumn
from repro.netlist import CellType, Netlist
from repro.robustness import EVERY_CALL, FaultInjector, RunHealth, SolverGuard, inject


def _netlist_with_macros(chain_lens, n_singles=0):
    nl = Netlist("leg")
    anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
    first = None
    for m, length in enumerate(chain_lens):
        dsps = [nl.add_cell(f"m{m}d{i}", CellType.DSP, is_datapath=True) for i in range(length)]
        if first is None:
            first = dsps[0]
        for a, b in zip(dsps, dsps[1:]):
            nl.add_net(f"m{m}c{a}", a, [b])
        nl.add_macro(dsps)
    for s in range(n_singles):
        nl.add_cell(f"s{s}", CellType.DSP, is_datapath=False)
    nl.add_net("seed", anchor, [first if first is not None else 1])
    return nl


class TestLegalize:
    def test_chains_land_consecutive(self, small_dev):
        nl = _netlist_with_macros([3, 4])
        desired = {
            c.index: (200.0, 100.0 + 10 * c.index) for c in nl.cells if c.ctype.is_dsp
        }
        res = CascadeLegalizer(nl, small_dev).legalize(desired)
        sites = small_dev.sites("DSP")
        for m in nl.macros:
            sids = [res.site_of[i] for i in m.dsps]
            assert all(b == a + 1 for a, b in zip(sids, sids[1:]))
            assert len({sites[s].col for s in sids}) == 1

    def test_no_overlap(self, small_dev):
        nl = _netlist_with_macros([3, 3, 2], n_singles=4)
        rng = np.random.default_rng(0)
        desired = {
            c.index: tuple(rng.uniform([0, 0], [small_dev.width, small_dev.height]))
            for c in nl.cells
            if c.ctype.is_dsp
        }
        res = CascadeLegalizer(nl, small_dev).legalize(desired)
        assert len(set(res.site_of.values())) == len(res.site_of)

    def test_targets_respected_when_free(self, small_dev):
        """A single chain already on legal consecutive sites stays put."""
        nl = _netlist_with_macros([3])
        ids = small_dev.column_site_ids("DSP", 1)
        xy = small_dev.site_xy("DSP")
        chain = nl.macros[0].dsps
        desired = {c: tuple(xy[ids[4 + k]]) for k, c in enumerate(chain)}
        res = CascadeLegalizer(nl, small_dev).legalize(desired)
        assert [res.site_of[c] for c in chain] == [ids[4], ids[5], ids[6]]
        assert res.total_displacement_um == pytest.approx(0.0)

    def test_singles_and_chains_share_columns(self, small_dev):
        nl = _netlist_with_macros([5], n_singles=3)
        xy = small_dev.site_xy("DSP")
        col0 = small_dev.column_site_ids("DSP", 0)
        desired = {}
        for c in nl.cells:
            if c.ctype.is_dsp:
                desired[c.index] = tuple(xy[col0[0]])  # everyone wants one spot
        res = CascadeLegalizer(nl, small_dev).legalize(desired)
        assert len(set(res.site_of.values())) == 8

    def test_overfull_device_rejected(self, small_dev):
        n = small_dev.n_dsp + 1
        nl = Netlist("over")
        anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
        dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(n)]
        nl.add_net("seed", anchor, [dsps[0]])
        desired = {i: (10.0, 10.0) for i in dsps}
        with pytest.raises(ValueError, match="more DSPs"):
            CascadeLegalizer(nl, small_dev).legalize(desired)

    def test_uses_ilp_by_default(self, small_dev):
        nl = _netlist_with_macros([3, 2])
        desired = {c.index: (150.0, 150.0) for c in nl.cells if c.ctype.is_dsp}
        res = CascadeLegalizer(nl, small_dev).legalize(desired)
        assert res.used_ilp

    def test_greedy_fallback_still_legal(self, small_dev):
        nl = _netlist_with_macros([3, 2], n_singles=2)
        desired = {c.index: (150.0, 150.0) for c in nl.cells if c.ctype.is_dsp}
        fi = FaultInjector().fail_on("legalization.ilp", call=EVERY_CALL)
        with inject(fi):
            res = CascadeLegalizer(nl, small_dev).legalize(desired)
        assert not res.used_ilp
        assert len(set(res.site_of.values())) == len(res.site_of)
        for m in nl.macros:
            sids = [res.site_of[i] for i in m.dsps]
            assert all(b == a + 1 for a, b in zip(sids, sids[1:]))

    def test_inter_column_displacement_optimal_small(self, small_dev):
        """ILP picks the zero-displacement column when it has room."""
        nl = _netlist_with_macros([4])
        col_x = small_dev.kind_columns("DSP")[2].x
        desired = {c: (col_x, 200.0 + 37.5 * k) for k, c in enumerate(nl.macros[0].dsps)}
        res = CascadeLegalizer(nl, small_dev).legalize(desired)
        sites = small_dev.sites("DSP")
        assert all(sites[res.site_of[c]].x == col_x for c in nl.macros[0].dsps)

    def test_capacity_saturation_full_columns(self, small_dev):
        """Exactly device-capacity DSPs, mostly chains: still legal."""
        col_sizes = [c.n_sites for c in small_dev.kind_columns("DSP")]
        chains = [size for size in col_sizes]  # one full-column chain each
        nl = _netlist_with_macros(chains)
        rng = np.random.default_rng(1)
        desired = {
            c.index: tuple(rng.uniform([0, 0], [small_dev.width, small_dev.height]))
            for c in nl.cells
            if c.ctype.is_dsp
        }
        res = CascadeLegalizer(nl, small_dev).legalize(desired)
        assert len(set(res.site_of.values())) == sum(chains)

    def test_column_infeasible_raises(self, small_dev):
        """A macro longer than every column fits nowhere: ILP and greedy both fail."""
        nl = _netlist_with_macros([small_dev.kind_columns("DSP")[0].n_sites + 1])
        desired = {c.index: (150.0, 150.0) for c in nl.cells if c.ctype.is_dsp}
        with pytest.raises(LegalizationError):
            CascadeLegalizer(nl, small_dev).legalize(desired)
        health = RunHealth()
        with pytest.raises(LegalizationError):
            CascadeLegalizer(nl, small_dev).legalize(desired, SolverGuard("legalization", health))
        failed = [e.detail.split(":")[0] for e in health.of_stage("legalization")]
        assert failed == ["ilp", "greedy"]
        assert all(e.kind == "failure" for e in health.of_stage("legalization"))

    def test_observed_legalize_counts_one_ilp_solve(self, small_dev):
        nl = _netlist_with_macros([3, 2], n_singles=2)
        desired = {c.index: (150.0, 150.0) for c in nl.cells if c.ctype.is_dsp}
        with obs.observe() as ob:
            res = CascadeLegalizer(nl, small_dev).legalize(desired)
        counters = ob.metrics.counters
        assert counters["ilp.solves"] == 1
        assert counters["ilp.variables"] == 4 * len(small_dev.kind_columns("DSP"))
        assert counters["ilp.nodes_explored"] == res.ilp_nodes


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inter_column_matches_brute_force(small_dev, data):
    """Eq. (10) on small instances: capacity-feasible and as cheap as brute force."""
    n = data.draw(st.integers(2, 6))
    ncol = data.draw(st.integers(2, 3))
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    xs = data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    col_xs = data.draw(st.lists(st.integers(0, 40), min_size=ncol, max_size=ncol, unique=True))
    # capacities from "one entity" up to "everything": the low end is tight
    caps = data.draw(
        st.lists(st.integers(max(sizes), sum(sizes)), min_size=ncol, max_size=ncol)
    )
    entities = [
        _Entity(cells=tuple(range(4 * i, 4 * i + size)), x=7.5 * x, ys=(0.0,) * size)
        for i, (size, x) in enumerate(zip(sizes, xs))
    ]
    cols = [
        SiteColumn("DSP", j, 7.5 * x, np.arange(cap)) for j, (x, cap) in enumerate(zip(col_xs, caps))
    ]

    def cost(col_of):
        return sum(e.size * abs(cols[j].x - e.x) for e, j in zip(entities, col_of))

    def fits(col_of):
        load = np.bincount(col_of, weights=sizes, minlength=ncol)
        return bool(np.all(load <= caps))

    feasible = [a for a in itertools.product(range(ncol), repeat=n) if fits(a)]
    legalizer = CascadeLegalizer(Netlist("eq10"), small_dev)
    if not feasible:
        with pytest.raises(LegalizationError):
            legalizer._inter_column(entities, cols, caps)
        return
    col_of, used_ilp, _ = legalizer._inter_column(entities, cols, caps)
    assert used_ilp
    assert fits(col_of)
    assert cost(col_of) == pytest.approx(min(map(cost, feasible)), abs=1e-9)
