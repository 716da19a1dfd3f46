"""B2B net model: vectorized-vs-reference equivalence + placer integration.

The one-pass assembly must produce the same symmetric adjacency as the
per-net loop oracle (``tests.oracles.b2b_adjacency_reference``) on any pin
structure and any coordinates — including collapsed pins, duplicate cells
on one net, and single-pin nets. At the placer level, the B2B model must
beat the clique model's HPWL on the generated fixture (that is the point of
the model) and the placer must yield a bitwise-identical placement with the
oracle swapped in.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.csr import get_csr
from repro.placers import analytical
from repro.placers.analytical import GlobalPlaceConfig, QuadraticGlobalPlacer
from repro.placers.b2b import b2b_adjacency
from tests.oracles import b2b_adjacency_reference


def _both(pin_cell, pin_ptr, pin_net, coords, weights, n_cells, eps=1.0):
    vec = b2b_adjacency(pin_cell, pin_ptr, pin_net, coords, weights, n_cells, eps=eps)
    ref = b2b_adjacency_reference(
        pin_cell, pin_ptr, pin_net, coords, weights, n_cells, eps=eps
    )
    return vec, ref


def _assert_same(vec, ref):
    diff = (vec - ref).tocoo()
    if diff.nnz:
        assert float(np.abs(diff.data).max()) < 1e-12
    # symmetry: the adjacency is used as A + A.T of the edge list
    sym = (vec - vec.T).tocoo()
    assert sym.nnz == 0 or float(np.abs(sym.data).max()) < 1e-12


class TestAdjacencyEquivalence:
    def test_generated_suite(self, mini_accel):
        ctx = get_csr(mini_accel)
        rng = np.random.default_rng(5)
        coords = rng.uniform(0.0, 480.0, len(mini_accel.cells))
        weights = rng.uniform(0.5, 3.0, len(mini_accel.nets))
        vec, ref = _both(ctx.pin_cell, ctx.pin_ptr, ctx.pin_net, coords,
                         weights, len(mini_accel.cells))
        _assert_same(vec, ref)

    def test_collapsed_pins_use_eps_clamp(self, tiny_netlist):
        ctx = get_csr(tiny_netlist)
        n = len(tiny_netlist.cells)
        coords = np.zeros(n)  # every pin collapsed → every distance clamps
        weights = np.ones(len(tiny_netlist.nets))
        vec, ref = _both(ctx.pin_cell, ctx.pin_ptr, ctx.pin_net, coords,
                         weights, n, eps=2.0)
        _assert_same(vec, ref)
        assert np.isfinite(vec.data).all()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 18))
    def test_random_pin_structures(self, seed, n_cells, n_nets):
        """Random CSR-shaped pin arrays, duplicate cells on a net allowed."""
        rng = np.random.default_rng(seed)
        npins = rng.integers(1, 6, n_nets)  # 1-pin nets must be skipped
        pin_ptr = np.concatenate(([0], np.cumsum(npins)))
        pin_cell = rng.integers(0, n_cells, int(npins.sum()))
        pin_net = np.repeat(np.arange(n_nets), npins)
        coords = rng.uniform(-50.0, 50.0, n_cells)
        # jitter some coordinates onto exact ties to exercise the
        # first-occurrence boundary-pin rule
        if n_cells > 2:
            coords[rng.integers(0, n_cells)] = coords[0]
        weights = rng.uniform(0.1, 4.0, n_nets)
        vec, ref = _both(pin_cell, pin_ptr, pin_net, coords, weights, n_cells)
        _assert_same(vec, ref)

    def test_empty_netlist(self):
        e = np.empty(0, dtype=np.int64)
        vec, ref = _both(e, np.zeros(1, dtype=np.int64), e,
                         np.zeros(3), np.empty(0), 3)
        assert vec.nnz == 0 and ref.nnz == 0


class TestPlacerIntegration:
    def test_b2b_beats_clique_hpwl(self, mini_accel, small_dev):
        """The point of the model: quadratic cost tracks HPWL, so the solved
        placement's HPWL must improve on the clique model's (deterministic
        seed, deterministic fixture)."""
        hp = {}
        for nm in ("clique", "b2b"):
            p = QuadraticGlobalPlacer(
                GlobalPlaceConfig(net_model=nm, seed=0)
            ).place(mini_accel, small_dev)
            hp[nm] = p.hpwl()
        assert hp["b2b"] < hp["clique"]

    def test_assembly_engines_identical_solution(self, mini_accel, small_dev, monkeypatch):
        cfg = GlobalPlaceConfig(net_model="b2b", seed=0)
        a = QuadraticGlobalPlacer(cfg).place(mini_accel, small_dev)
        monkeypatch.setattr(analytical, "b2b_adjacency", b2b_adjacency_reference)
        b = QuadraticGlobalPlacer(cfg).place(mini_accel, small_dev)
        np.testing.assert_array_equal(a.xy, b.xy)

    def test_unknown_net_model_rejected(self):
        with pytest.raises(ValueError, match="net_model"):
            QuadraticGlobalPlacer(GlobalPlaceConfig(net_model="star"))

    def test_unknown_b2b_method_rejected(self):
        """B2B assembly has one engine: no ``b2b_method`` knob is accepted."""
        with pytest.raises(TypeError, match="b2b_method"):
            GlobalPlaceConfig(b2b_method="banana")

    def test_unknown_assembly_method_rejected(self, tiny_netlist):
        ctx = get_csr(tiny_netlist)
        with pytest.raises(TypeError, match="method"):
            b2b_adjacency(ctx.pin_cell, ctx.pin_ptr, ctx.pin_net,
                          np.zeros(len(tiny_netlist.cells)),
                          np.ones(len(tiny_netlist.nets)),
                          len(tiny_netlist.cells), method="banana")
