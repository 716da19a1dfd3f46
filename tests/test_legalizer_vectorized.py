"""Batched legalizer vs the per-cell loop oracle, plus the saturation paths.

The legalizer batches the single-DSP/BRAM nearest-site queries and the CLB
row fill; all assignment decisions (greedy order, spiral search, row
tie-breaks, escalation) must match the per-cell loop oracle
(``tests.oracles.ReferenceLegalizer``) site-for-site.
The saturation tests cover the escalating ``_nearest_free`` suffix scan and
the dense-packing fallback for near-full cascade loads. The conflict-set
tests drive each branch of the CLB fill (conflict set, second fixed-point
round, all-cells spiral), told apart by the ``legalize.clb_conflict_cells``
counter.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fpga import fabric_device, small_device
from repro.netlist import CellType, Netlist
from repro.placers import (
    GlobalPlaceConfig,
    Legalizer,
    Placement,
    QuadraticGlobalPlacer,
)
from tests.oracles import ReferenceLegalizer


@pytest.fixture(scope="module")
def spread(request):
    mini = request.getfixturevalue("mini_accel")
    dev = request.getfixturevalue("small_dev")
    return QuadraticGlobalPlacer(GlobalPlaceConfig(seed=0)).place(mini, dev)


class TestEquivalence:
    def test_identical_assignments(self, spread, small_dev):
        p_ref = ReferenceLegalizer(small_dev).legalize(spread.copy())
        p_vec = Legalizer(small_dev).legalize(spread.copy())
        np.testing.assert_array_equal(p_vec.site, p_ref.site)
        np.testing.assert_array_equal(p_vec.xy, p_ref.xy)
        assert p_vec.is_legal()

    def test_identical_under_jitter(self, spread, small_dev):
        """Perturbed targets reshuffle the greedy order and spiral probes."""
        for seed in (11, 12, 13):
            base = spread.copy()
            r = np.random.default_rng(seed)
            mov = np.flatnonzero(
                np.array([not c.is_fixed for c in base.netlist.cells])
            )
            base.xy[mov] += r.uniform(-40.0, 40.0, (mov.size, 2))
            p_ref = ReferenceLegalizer(small_dev).legalize(base.copy())
            p_vec = Legalizer(small_dev).legalize(base.copy())
            np.testing.assert_array_equal(p_vec.site, p_ref.site)

    def test_unknown_method_rejected(self, small_dev):
        """The legalizer has one engine: no ``method`` knob is accepted."""
        with pytest.raises(TypeError, match="method"):
            Legalizer(small_dev, method="banana")


def _dsp_only_netlist(n_singles: int = 0, macro_lens: tuple[int, ...] = ()):
    nl = Netlist("sat")
    macros = []
    for m, length in enumerate(macro_lens):
        chain = [nl.add_cell(f"m{m}_{k}", CellType.DSP) for k in range(length)]
        nl.add_macro(chain)
        macros.append(chain)
    singles = [nl.add_cell(f"s{i}", CellType.DSP) for i in range(n_singles)]
    return nl, macros, singles


class TestNearestFreeEscalation:
    """High occupancy forces ``_nearest_free`` past its first candidate
    window; the escalating query must scan only the newly revealed suffix
    and still find the nearest free site."""

    def test_single_free_site_found(self, small_dev):
        n = small_dev.n_sites("DSP")
        nl, _, singles = _dsp_only_netlist(n_singles=1)
        place = Placement(nl, small_dev)
        place.xy[singles[0]] = (0.0, 0.0)
        leg = Legalizer(small_dev)
        # only the site farthest from the query is free — deeper than any
        # initial candidate window
        order = small_dev.nearest_sites("DSP", 0.0, 0.0, k=n)
        occupied = np.ones(n, dtype=bool)
        occupied[order[-1]] = False
        sid = leg._nearest_free("DSP", place.xy[singles[0]], occupied)
        assert sid == int(order[-1])

    def test_skip_prefix_not_rescanned(self, small_dev, monkeypatch):
        """With ``skip`` known-occupied candidates, the escalated query must
        start scanning after the prefix (the pre-fix code rescanned it)."""
        n = small_dev.n_sites("DSP")
        leg = Legalizer(small_dev)
        order = small_dev.nearest_sites("DSP", 0.0, 0.0, k=n)
        occupied = np.ones(n, dtype=bool)
        occupied[order[-1]] = False
        seen: list[int] = []
        orig = type(small_dev).nearest_sites

        def spy(self, kind, x, y, k):
            seen.append(k)
            return orig(self, kind, x, y, k)

        monkeypatch.setattr(type(small_dev), "nearest_sites", spy)
        sid = leg._nearest_free("DSP", np.array([0.0, 0.0]), occupied, skip=32)
        assert sid == int(order[-1])
        # escalation starts from the skipped prefix, never back at k=32
        assert min(seen) > 32

    def test_all_occupied_raises(self, small_dev):
        n = small_dev.n_sites("DSP")
        leg = Legalizer(small_dev)
        with pytest.raises(ValueError, match="no free DSP site left"):
            leg._nearest_free("DSP", np.array([0.0, 0.0]), np.ones(n, dtype=bool))

    def test_engines_agree_at_saturation(self, small_dev):
        """Fill all but two DSP sites — the batched engine's per-cell
        fallback must make the same picks as the reference loop."""
        n = small_dev.n_sites("DSP")
        nl, _, singles = _dsp_only_netlist(n_singles=n - 2)
        rng = np.random.default_rng(7)
        results = []
        for legalizer_cls in (ReferenceLegalizer, Legalizer):
            place = Placement(nl, small_dev)
            place.xy[:] = rng.uniform(
                0.0, [small_dev.width, small_dev.height], (len(nl.cells), 2)
            )
            rng = np.random.default_rng(7)  # same targets for both engines
            legalizer_cls(small_dev).legalize_dsps(
                place, np.ones(len(nl.cells), dtype=bool)
            )
            results.append(place.site.copy())
        np.testing.assert_array_equal(results[0], results[1])
        assert len(set(results[0].tolist())) == n - 2  # all distinct


class TestDensePacking:
    def test_dense_pack_saturating_macros(self, small_dev):
        """Six 5-chains saturate the per-column capacity of the 3×12 DSP
        fabric (two chains per column); dense packing must fit them all,
        column-aligned and contiguous."""
        nl, macros, _ = _dsp_only_netlist(macro_lens=(5,) * 6)
        place = Placement(nl, small_dev)
        leg = Legalizer(small_dev)
        occupied = np.zeros(small_dev.n_sites("DSP"), dtype=bool)
        leg._dense_pack_macros(place, occupied, list(nl.macros))
        col = small_dev.site_col("DSP")
        for chain in macros:
            sites = place.site[chain]
            assert (sites >= 0).all()
            assert len(set(col[sites].tolist())) == 1  # one column
            assert (np.diff(sites) == 1).all()  # consecutive rows
        assert int(occupied.sum()) == 30

    def test_overfull_macros_raise_even_densely_packed(self, small_dev):
        """Seven 5-chains need 35 of 36 sites but only two chains fit per
        12-row column; the dense fallback must report the failure."""
        nl, _, _ = _dsp_only_netlist(macro_lens=(5,) * 7)
        place = Placement(nl, small_dev)
        leg = Legalizer(small_dev)
        with pytest.raises(ValueError, match="even densely packed"):
            leg.legalize_dsps(place, np.ones(len(nl.cells), dtype=bool))

    def test_legalize_recovers_via_dense_fallback(self, small_dev):
        """Six saturating chains through the public path: whether or not the
        proximity packer fragments, legalization must end fully legal."""
        nl, macros, _ = _dsp_only_netlist(macro_lens=(5,) * 6)
        place = Placement(nl, small_dev)
        rng = np.random.default_rng(3)
        place.xy[:] = rng.uniform(
            0.0, [small_dev.width, small_dev.height], (len(nl.cells), 2)
        )
        Legalizer(small_dev).legalize_dsps(place, np.ones(len(nl.cells), dtype=bool))
        col = small_dev.site_col("DSP")
        for chain in macros:
            sites = place.site[chain]
            assert (sites >= 0).all()
            assert len(set(col[sites].tolist())) == 1
            assert (np.diff(sites) == 1).all()


@lru_cache(maxsize=None)
def _device(fabric: str):
    return small_device() if fabric == "small" else fabric_device(fabric, 0.05)


def _at(dev, col: int, row: int) -> tuple[float, float]:
    """The centre of CLB site (column, row): a cell targeted there is homed
    on it."""
    c = dev.kind_columns("CLB")[col]
    return float(c.x), float(c.ys[row])


def _clb_fill(legalizer_cls, dev, targets, held_sites=()):
    """Legalize movable LUTs at ``targets`` around locked LUTs on
    ``held_sites``; the placement and the conflict-cell count."""
    n_mov = len(targets)
    nl = Netlist("clb")
    for i in range(n_mov + len(held_sites)):
        nl.add_cell(f"l{i}", CellType.LUT)
    place = Placement(nl, dev)
    place.xy[:n_mov] = np.asarray(targets, dtype=float).reshape(-1, 2)
    for k, sid in enumerate(held_sites):
        place.assign_site(n_mov + k, int(sid))
    movable = np.arange(len(nl.cells)) < n_mov
    with obs.observe() as ob:
        legalizer_cls(dev).legalize_clb(place, movable)
    return place, ob.metrics.counters.get("legalize.clb_conflict_cells", 0)


def _same_as_reference(dev, targets, held_sites=()) -> int:
    """Assert the product fill equals the oracle's site for site; returns
    how many cells the product's spiral placed."""
    p_ref, _ = _clb_fill(ReferenceLegalizer, dev, targets, held_sites)
    p_vec, spiralled = _clb_fill(Legalizer, dev, targets, held_sites)
    np.testing.assert_array_equal(p_vec.site, p_ref.site)
    np.testing.assert_array_equal(p_vec.xy, p_ref.xy)
    assert p_vec.is_legal()
    return spiralled


def _shuffled(cells, seed=0):
    """Interleave crowd and background cells in index order."""
    order = np.random.default_rng(seed).permutation(len(cells))
    return [cells[i] for i in order]


class TestConflictSetFill:
    """Crowded home sites go through the spiral, every other cell keeps its
    home site, and the result equals the all-cells spiral of the oracle."""

    def test_crowds_at_column_ends(self, small_dev):
        last = small_dev.kind_columns("CLB")[0].n_sites - 1
        crowd = (
            [_at(small_dev, 0, 0)] * 40
            + [_at(small_dev, 0, last)] * 40
            + [_at(small_dev, 4, 10)] * 30
        )
        background = [_at(small_dev, c, r) for c in (2, 6) for r in range(20)]
        spiralled = _same_as_reference(small_dev, _shuffled(crowd + background))
        assert spiralled == len(crowd)  # one round; background stays home

    def test_held_load_around_crowd(self, small_dev):
        """Locked cells fill row 1 and most of row 2: spills from row 0 must
        skip them."""
        held = [1] * 16 + [2] * 10  # column 0's rows are sites 0, 1, ...
        crowd = [_at(small_dev, 0, 0)] * 30 + [_at(small_dev, 0, 3)] * 20
        background = [_at(small_dev, 3, r) for r in range(24)]
        spiralled = _same_as_reference(small_dev, _shuffled(crowd + background), held)
        assert spiralled == len(crowd)

    def test_over_full_column_takes_all_cells_path(self, small_dev):
        col_cap = small_dev.kind_columns("CLB")[1].n_sites * small_dev.clb_capacity
        crowd = [_at(small_dev, 1, 5)] * (col_cap + 10)
        background = [_at(small_dev, 5, r) for r in range(20)]
        targets = _shuffled(crowd + background)
        assert _same_as_reference(small_dev, targets) == len(targets)

    def test_second_fixed_point_round(self, small_dev):
        """Rows 3 and 5 overflow by 10 each; their widened windows (rows
        2-4, 4-6) each hold the excess, but together they are 4 slots
        short. The escapes reach rows 1 and 7, homes of 15 cells each,
        which overflow and join the second round."""
        demand = {1: 15, 2: 16, 3: 26, 5: 26, 6: 16, 7: 15}
        targets = _shuffled([_at(small_dev, 0, r) for r, k in demand.items() for _ in range(k)])
        # one round spirals at most every cell once
        assert _same_as_reference(small_dev, targets) > len(targets)

    @pytest.mark.parametrize("fabric", ["small", "zcu104"])
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 600),
        n_spots=st.integers(1, 4),
        spread=st.sampled_from([0.0, 5.0, 40.0, 1000.0]),
        n_held=st.integers(0, 60),
    )
    def test_random_targets(self, fabric, seed, n, n_spots, spread, n_held):
        dev = _device(fabric)
        rng = np.random.default_rng(seed)
        size = np.array([dev.width, dev.height])
        spots = rng.uniform(0.0, size, (n_spots, 2))
        targets = spots[rng.integers(n_spots, size=n)] + rng.normal(0.0, spread, (n, 2))
        held = rng.integers(dev.n_sites("CLB"), size=n_held)
        _same_as_reference(dev, np.clip(targets, 0.0, size), held)
