"""Vectorized-vs-reference pattern-router equivalence + candidate dedupe.

The batched negotiation and its per-connection loop oracle
(``tests.oracles.ReferencePatternRouter``) implement the same frozen-round
semantics (see the ``pattern_router`` module docstring); the router must
reproduce the oracle to 1e-9 on every ``RoutingResult`` field across
random placements, grid sizes, fanouts, and congestion levels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import small_device
from repro.netlist import CellType, Netlist
from repro.placers import Placement
from repro.router.pattern_router import PatternRouter
from tests.oracles import ReferencePatternRouter, candidate_paths

DEV = small_device(n_dsp_cols=3, dsp_rows=12)


@st.composite
def router_case(draw):
    """Random placement + router knobs, biased toward congestion."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_cells = draw(st.integers(2, 30))
    nl = Netlist("r")
    for i in range(n_cells):
        nl.add_cell(f"c{i}", CellType.FF)
    n_nets = draw(st.integers(1, 2 * n_cells))
    for k in range(n_nets):
        driver = int(rng.integers(0, n_cells))
        fanout = int(rng.integers(1, 5))
        sinks = [int(s) for s in rng.integers(0, n_cells, fanout) if int(s) != driver]
        if not sinks:
            continue
        nl.add_net(f"n{k}", driver, sinks)
    place = Placement(nl, DEV)
    place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (n_cells, 2))
    grid = draw(st.sampled_from([(4, 4), (6, 9), (8, 8), (12, 5)]))
    capacity = draw(st.sampled_from([0.5, 1.0, 2.0, 50.0]))
    n_rounds = draw(st.integers(1, 4))
    return place, grid, capacity, n_rounds


class TestVectorizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(router_case())
    def test_matches_reference(self, case):
        place, grid, capacity, n_rounds = case
        kw = dict(grid=grid, capacity_per_edge=capacity, n_rounds=n_rounds)
        a = ReferencePatternRouter(**kw).route(place)
        b = PatternRouter(**kw).route(place)
        np.testing.assert_allclose(a.net_detour, b.net_detour, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.net_routed_len, b.net_routed_len, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.congestion, b.congestion, rtol=0, atol=1e-9)
        assert a.total_wirelength == pytest.approx(b.total_wirelength, abs=1e-6)
        assert a.overflow_frac == pytest.approx(b.overflow_frac, abs=1e-12)

    def test_unknown_method_rejected(self):
        """The router has one engine: no ``method`` knob is accepted."""
        with pytest.raises(TypeError, match="method"):
            PatternRouter(method="banana")


class TestCandidateDedupe:
    """Regression: straight connections used to emit both L patterns as the
    identical path, so it was cost-evaluated twice per connection per round."""

    def test_straight_horizontal_single_candidate(self):
        paths = candidate_paths(1, 3, 5, 3)
        assert len(paths) == 1
        assert paths[0] == [("h", x, 3) for x in range(1, 5)]

    def test_straight_vertical_single_candidate(self):
        paths = candidate_paths(2, 6, 2, 1)
        assert len(paths) == 1
        assert paths[0] == [("v", 2, y) for y in range(1, 6)]

    def test_same_bin_single_empty_path(self):
        assert candidate_paths(4, 4, 4, 4) == [[]]

    def test_diagonal_candidates_distinct(self):
        paths = candidate_paths(0, 0, 3, 4)
        assert len(paths) == 4
        as_sets = [frozenset(p) for p in paths]
        assert len(set(as_sets)) == 4
        for p in paths:  # every pattern crosses |dx| h- and |dy| v-edges
            kinds = [k for k, _, _ in p]
            assert kinds.count("h") == 3
            assert kinds.count("v") == 4

    def test_short_legs_skip_z_patterns(self):
        # |dx| == 1: no Z with a horizontal middle leg exists
        paths = candidate_paths(0, 0, 1, 5)
        assert len(paths) == 3

    def test_unit_diagonal_two_candidates(self):
        assert len(candidate_paths(0, 0, 1, 1)) == 2
