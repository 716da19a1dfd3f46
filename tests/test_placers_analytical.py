"""Quadratic global placement tests."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.netlist.csr import get_csr
from repro.netlist.graph import connectivity_matrix
from repro.placers import GlobalPlaceConfig, Placement, QuadraticGlobalPlacer
from repro.placers.analytical import (
    _equalize,
    _push_out_of_ps,
    inverse_diagonal,
    jacobi_pcg,
)


class TestEqualize:
    def test_uniform_unchanged_roughly(self, rng):
        x = rng.uniform(0, 100, 2000)
        out = _equalize(x, np.ones_like(x), 0, 100, 20)
        assert abs(out.mean() - 50) < 5

    def test_clustered_spread_out(self, rng):
        x = rng.normal(50, 2, 2000).clip(0, 100)
        out = _equalize(x, np.ones_like(x), 0, 100, 20)
        assert out.std() > x.std() * 2

    def test_monotone_mapping(self, rng):
        x = np.sort(rng.uniform(0, 100, 200))
        out = _equalize(x, np.ones_like(x), 0, 100, 16)
        assert np.all(np.diff(out) >= -1e-9)

    def test_empty(self):
        out = _equalize(np.array([]), np.array([]), 0, 1, 4)
        assert out.size == 0


class TestPushOutOfPS:
    def test_inside_points_moved_out(self, small_dev):
        ps = small_dev.ps
        pts = np.array([[ps.x0 + 1.0, ps.y0 + 1.0], [ps.x1 - 1.0, ps.y1 - 1.0]])
        out = _push_out_of_ps(pts, small_dev)
        for x, y in out:
            assert not ps.contains(x, y)

    def test_outside_points_untouched(self, small_dev):
        pts = np.array([[small_dev.width - 1.0, small_dev.height - 1.0]])
        out = _push_out_of_ps(pts, small_dev)
        assert np.array_equal(out, pts)


class TestGlobalPlacer:
    def test_connected_cells_near_fixed_anchor(self, tiny_netlist, small_dev):
        placer = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=2))
        place = placer.place(tiny_netlist, small_dev)
        # lut0 is driven by the PS; it should sit closer to the PS than the
        # far IO pad on average
        lut0 = tiny_netlist.cell_by_name("lut0").index
        ps_xy = np.array(tiny_netlist.cell_by_name("ps").fixed_xy)
        io_xy = np.array(tiny_netlist.cell_by_name("pad").fixed_xy)
        d_ps = np.abs(place.xy[lut0] - ps_xy).sum()
        d_io = np.abs(place.xy[lut0] - io_xy).sum()
        assert d_ps < d_io

    def test_coordinates_inside_fabric(self, mini_accel, small_dev):
        place = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=2)).place(
            mini_accel, small_dev
        )
        mov = mini_accel.movable_indices()
        assert np.all(place.xy[mov, 0] >= 0) and np.all(place.xy[mov, 0] <= small_dev.width)
        assert np.all(place.xy[mov, 1] >= 0) and np.all(place.xy[mov, 1] <= small_dev.height)

    def test_ps_keepout_respected(self, mini_accel, small_dev):
        place = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=2, avoid_ps=True)).place(
            mini_accel, small_dev
        )
        ps = small_dev.ps
        for i in mini_accel.movable_indices():
            assert not ps.contains(place.xy[i, 0], place.xy[i, 1])

    def test_movable_mask_freezes_cells(self, mini_accel, small_dev):
        base = Placement(mini_accel, small_dev)
        frozen = mini_accel.dsp_indices()
        base.xy[frozen] = (123.0, 321.0)
        mask = np.array([not c.is_fixed for c in mini_accel.cells])
        mask[frozen] = False
        place = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=1)).place(
            mini_accel, small_dev, placement=base, movable_mask=mask
        )
        for i in frozen:
            assert tuple(place.xy[i]) == (123.0, 321.0)

    def test_spreading_reduces_overlap(self, mini_accel, small_dev):
        cfg0 = GlobalPlaceConfig(n_iterations=0)
        cfg4 = GlobalPlaceConfig(n_iterations=4)
        p0 = QuadraticGlobalPlacer(cfg0).place(mini_accel, small_dev)
        p4 = QuadraticGlobalPlacer(cfg4).place(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        # spread std should grow with iterations
        assert p4.xy[mov, 0].std() >= p0.xy[mov, 0].std() * 0.9

    def test_fabric_scale_overshoots(self, mini_accel, small_dev):
        cfg = GlobalPlaceConfig(n_iterations=2, fabric_scale=1.5, avoid_ps=False)
        place = QuadraticGlobalPlacer(cfg).place(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        # with a 1.5x virtual fabric some cells land beyond the real device
        assert place.xy[mov, 0].max() > small_dev.width

    def test_caller_mask_left_unchanged(self, mini_accel, small_dev):
        mask = np.ones(len(mini_accel.cells), dtype=bool)
        place = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=1)).place(
            mini_accel, small_dev, movable_mask=mask
        )
        assert mask.all()
        fixed = [c for c in mini_accel.cells if c.is_fixed]
        assert fixed
        for c in fixed:
            assert tuple(place.xy[c.index]) == c.fixed_xy


def _observed_place(netlist, device, cfg):
    with obs.observe() as ob:
        place = QuadraticGlobalPlacer(cfg).place(netlist, device)
    return place, ob


class TestCGCounters:
    @pytest.mark.parametrize("net_model", ["clique", "b2b"])
    def test_iterations_deterministic_and_converged(self, mini_accel, small_dev, net_model):
        cfg = GlobalPlaceConfig(n_iterations=2, net_model=net_model)
        _, first = _observed_place(mini_accel, small_dev, cfg)
        _, second = _observed_place(mini_accel, small_dev, cfg)
        counters = first.metrics.counters
        iters = counters["global_place.cg_iterations"]
        assert iters > 0
        assert second.metrics.counters["global_place.cg_iterations"] == iters
        assert counters.get("global_place.cg_unconverged", 0) == 0
        solves = first.tracer.find("global_place.solve")
        assert len(solves) == 1 + cfg.n_iterations
        assert sum(s.attrs["iterations"] for s in solves) == iters

    def test_maxiter_reached_is_counted(self, mini_accel, small_dev):
        cfg = GlobalPlaceConfig(n_iterations=2, cg_maxiter=1)
        place, ob = _observed_place(mini_accel, small_dev, cfg)
        assert ob.metrics.counters["global_place.cg_unconverged"] > 0
        assert np.isfinite(place.xy).all()


class TestJacobiPCG:
    """scipy's ``cg`` with the same Jacobi preconditioner is the oracle:
    same iteration count (through its callback), same solution."""

    @staticmethod
    def _pcg(a, b, x0, rtol, maxiter):
        return jacobi_pcg(a, b, x0, inverse_diagonal(a), rtol, maxiter)

    @pytest.fixture(scope="class")
    def grounded(self, mini_accel):
        """The placer's movable Laplacian block, grounded by fixed cells."""
        w = connectivity_matrix(mini_accel)
        mov = np.flatnonzero(~get_csr(mini_accel).is_fixed)
        lap = sp.diags(np.asarray(w.sum(axis=1)).ravel()) - w
        return lap[mov][:, mov].tocsr()

    @staticmethod
    def _scipy(a, b, x0, rtol, maxiter):
        calls = []
        m = sp.diags(1.0 / np.maximum(a.diagonal(), 1e-12))
        x, info = spla.cg(
            a, b, x0=x0, rtol=rtol, maxiter=maxiter, M=m, callback=calls.append
        )
        return x, len(calls), info

    @staticmethod
    def _assert_close(x, ref):
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 5.0),
        st.sampled_from([1e-8, 1e-5, 1e-3]),
        st.booleans(),
    )
    def test_matches_scipy(self, grounded, seed, alpha, rtol, zero_x0):
        rng = np.random.default_rng(seed)
        n = grounded.shape[0]
        a = grounded + sp.diags(np.full(n, alpha + 1e-9))
        b = rng.normal(size=n) * 100.0
        x0 = np.zeros(n) if zero_x0 else rng.uniform(0.0, 500.0, n)
        x, iters, converged = self._pcg(a, b, x0, rtol, 300)
        ref, ref_iters, info = self._scipy(a, b, x0, rtol, 300)
        assert iters == ref_iters
        assert converged == (info == 0)
        self._assert_close(x, ref)

    def test_zero_x0_takes_rhs_as_residual(self, grounded):
        n = grounded.shape[0]
        a = grounded + sp.diags(np.full(n, 0.5))
        b = np.random.default_rng(3).normal(size=n)
        x0 = np.zeros(n)
        x, iters, converged = self._pcg(a, b, x0, 1e-5, 500)
        ref, ref_iters, info = self._scipy(a, b, x0, 1e-5, 500)
        assert converged and info == 0 and iters == ref_iters > 0
        self._assert_close(x, ref)
        assert not x0.any()  # the caller's start vector is not written

    def test_zero_rhs_returns_zeros(self, grounded):
        n = grounded.shape[0]
        a = grounded + sp.diags(np.full(n, 0.5))
        x0 = np.full(n, 7.0)
        x, iters, converged = self._pcg(a, np.zeros(n), x0, 1e-5, 500)
        ref, ref_iters, info = self._scipy(a, np.zeros(n), x0, 1e-5, 500)
        assert (iters, converged) == (0, True) and (ref_iters, info) == (0, 0)
        assert not x.any() and not ref.any()

    def test_maxiter_reached(self, grounded):
        n = grounded.shape[0]
        a = grounded + sp.diags(np.full(n, 1e-9))
        rng = np.random.default_rng(4)
        b = rng.normal(size=n)
        x0 = rng.uniform(0.0, 500.0, n)
        x, iters, converged = self._pcg(a, b, x0, 1e-10, 3)
        ref, ref_iters, info = self._scipy(a, b, x0, 1e-10, 3)
        assert (iters, converged) == (3, False)
        assert ref_iters == 3 and info == 3
        self._assert_close(x, ref)
