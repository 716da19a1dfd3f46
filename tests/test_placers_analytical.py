"""Quadratic global placement tests."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.accelgen import generate_suite
from repro.errors import SolverConvergenceError
from repro.netlist import CellType
from repro.netlist.csr import get_csr
from repro.netlist.csr import connectivity_matrix
from repro.placers import GlobalPlaceConfig, Placement, QuadraticGlobalPlacer
from repro.placers import analytical
from repro.placers.analytical import (
    SOLVE_EPS,
    ChainElimination,
    _equalize,
    csr_matvec,
    jacobi_pcg,
)
from tests.oracles.placers import _push_out_of_ps


def inverse_diagonal(a: sp.csr_matrix) -> np.ndarray:
    """The Jacobi preconditioner ``1 / max(diag(a), 1e-12)``."""
    return 1.0 / np.maximum(a.diagonal(), 1e-12)


def _csr(a: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return a.indptr, a.indices, a.data


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


class TestSystemReuse:
    """An engine reuses its last clique system only on a call with the same
    netlist object and revision, movable mask and live net weights; with or
    without reuse, each placement equals a fresh engine's bit for bit."""

    CFG = GlobalPlaceConfig(n_iterations=1, seed=3)

    @pytest.fixture()
    def accel(self, small_dev):
        """A fresh netlist: the rebuild cases mutate it."""
        return generate_suite("ismartdnn", scale=0.02, device=small_dev)

    @staticmethod
    def _frozen_dsps(netlist):
        """DSPlacer's incremental mask: every movable cell but the DSPs."""
        ctx = get_csr(netlist)
        return ~ctx.is_fixed & ~ctx.is_dsp

    def _place(self, engine, netlist, device, start, mask):
        """``engine``'s placement, the system builds it made, and a fresh
        engine's placement of the same call."""
        with obs.observe() as ob:
            out = engine.place(netlist, device, placement=start, movable_mask=mask)
        fresh = QuadraticGlobalPlacer(engine.config).place(
            netlist, device, placement=start, movable_mask=mask
        )
        return out, ob.metrics.counters.get("global_place.system_builds", 0), fresh

    def test_same_call_builds_once(self, accel, small_dev):
        mask = self._frozen_dsps(accel)
        start = QuadraticGlobalPlacer(self.CFG).place(accel, small_dev)
        engine = QuadraticGlobalPlacer(self.CFG)
        first, builds, fresh = self._place(engine, accel, small_dev, start, mask)
        assert builds == 1
        assert np.array_equal(first.xy, fresh.xy)
        # the second pass warm-starts from the first, as Fig. 6 does
        second, builds, fresh = self._place(engine, accel, small_dev, first, mask)
        assert builds == 0
        assert np.array_equal(second.xy, fresh.xy)
        assert not np.array_equal(second.xy, first.xy)

    @pytest.mark.parametrize(
        "change", ["net weight", "mask", "add_cell", "add_net", "netlist object"]
    )
    def test_changed_input_rebuilds(self, accel, small_dev, change):
        # without weights in the key, only the revision tells the added net
        cfg = self.CFG
        if change == "add_net":
            cfg = GlobalPlaceConfig(n_iterations=1, seed=3, use_net_weights=False)
        mask = self._frozen_dsps(accel)
        engine = QuadraticGlobalPlacer(cfg)
        start = QuadraticGlobalPlacer(cfg).place(accel, small_dev)
        first, builds, _ = self._place(engine, accel, small_dev, start, mask)
        assert builds == 1

        netlist = accel
        movable = np.flatnonzero(mask)
        if change == "net weight":
            net = next(n for n in accel.nets if mask[n.driver])
            net.weight *= 10.0
        elif change == "mask":
            mask = mask.copy()
            mask[movable[0]] = False
        elif change == "add_cell":
            lone = accel.add_cell("reuse_lone", CellType.LUT)
            accel.add_net("reuse_net", int(movable[0]), [lone])
            mask = self._frozen_dsps(accel)
        elif change == "add_net":
            accel.add_net("reuse_net", int(movable[0]), [int(movable[-1])])
        else:
            netlist = generate_suite("ismartdnn", scale=0.02, device=small_dev)
        warm = Placement(netlist, small_dev)
        warm.xy[: len(first.xy)] = first.xy
        second, builds, fresh = self._place(engine, netlist, small_dev, warm, mask)
        assert builds == 1
        assert np.array_equal(second.xy, fresh.xy)


class TestGlobalPlaceConfig:
    @pytest.mark.parametrize(
        "knob",
        ["net_model", "b2b_eps", "b2b_method", "n_bins", "n_slabs", "cg_rtol", "cg_maxiter"],
    )
    def test_deleted_knob_rejected(self, knob):
        """The clique model is the only net model: B2B's knobs are gone. The
        spreading grid and the CG stop are module constants."""
        with pytest.raises(TypeError, match=knob):
            GlobalPlaceConfig(**{knob: 1.0})


class TestCGCounters:
    def test_iterations_deterministic_and_converged(self, mini_accel, small_dev):
        cfg = GlobalPlaceConfig(n_iterations=2)
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

    def test_place_span_reports_core_size(self, mini_accel, small_dev):
        _, ob = _observed_place(mini_accel, small_dev, GlobalPlaceConfig(n_iterations=1))
        (span,) = ob.tracer.find("global_place")
        assert span.attrs["cells"] == (~get_csr(mini_accel).is_fixed).sum()
        assert 0 < span.attrs["core_cells"] < span.attrs["cells"]

    def test_maxiter_reached_is_counted(self, mini_accel, small_dev, monkeypatch):
        monkeypatch.setattr(analytical, "CG_MAXITER", 1)
        cfg = GlobalPlaceConfig(n_iterations=2)
        place, ob = _observed_place(mini_accel, small_dev, cfg)
        assert ob.metrics.counters["global_place.cg_unconverged"] > 0
        assert np.isfinite(place.xy).all()


class TestJacobiPCG:
    """scipy's ``cg`` with the same Jacobi preconditioner is the oracle:
    same iteration count (through its callback), same solution bit for bit."""

    @staticmethod
    def _pcg(a, b, x0, rtol, maxiter):
        return jacobi_pcg(*_csr(a), b, x0, inverse_diagonal(a), rtol, maxiter)

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
    def _assert_equal(x, ref):
        assert np.array_equal(x, ref)

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
        self._assert_equal(x, ref)

    @pytest.mark.parametrize("atol_scale", [1e-8, 1e-3, 1.0])
    def test_atol_matches_scipy(self, grounded, atol_scale):
        n = grounded.shape[0]
        a = grounded + sp.diags(np.full(n, 0.1))
        rng = np.random.default_rng(5)
        b = rng.normal(size=n) * 100.0
        x0 = rng.uniform(0.0, 500.0, n)
        atol = atol_scale * np.linalg.norm(b)
        x, iters, converged = jacobi_pcg(
            *_csr(a), b, x0, inverse_diagonal(a), 1e-6, 300, atol=atol
        )
        calls = []
        ref, info = spla.cg(
            a,
            b,
            x0=x0,
            rtol=1e-6,
            atol=atol,
            maxiter=300,
            M=sp.diags(inverse_diagonal(a)),
            callback=calls.append,
        )
        assert (iters, converged) == (len(calls), info == 0)
        self._assert_equal(x, ref)

    def test_matvec_is_scipys_on_hub_cores(self, mini_accel, small_dev, monkeypatch):
        """The product the CG loop calls equals ``a @ p`` bit for bit on
        every hub core of a placement (it is scipy's private ``csr_matvec``,
        so a scipy that moves or changes it fails here)."""
        cores = []
        pcg = analytical.jacobi_pcg

        def spy(indptr, indices, data, b, *args, **kwargs):
            cores.append((indptr, indices, data.copy(), b.copy()))
            return pcg(indptr, indices, data, b, *args, **kwargs)

        monkeypatch.setattr(analytical, "jacobi_pcg", spy)
        QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=2)).place(mini_accel, small_dev)
        assert cores and all(b.size for *_, b in cores)
        rng = np.random.default_rng(0)
        for indptr, indices, data, b in cores:
            n = b.size
            a = sp.csr_matrix((data, indices, indptr), shape=(n, n))
            for p in (b, rng.normal(scale=100.0, size=n)):
                q = np.zeros(n)
                csr_matvec(n, n, indptr, indices, data, p, q)
                assert np.array_equal(q, a @ p)

    def test_zero_x0_takes_rhs_as_residual(self, grounded):
        n = grounded.shape[0]
        a = grounded + sp.diags(np.full(n, 0.5))
        b = np.random.default_rng(3).normal(size=n)
        x0 = np.zeros(n)
        x, iters, converged = self._pcg(a, b, x0, 1e-5, 500)
        ref, ref_iters, info = self._scipy(a, b, x0, 1e-5, 500)
        assert converged and info == 0 and iters == ref_iters > 0
        self._assert_equal(x, ref)
        assert not x0.any()  # the caller's start vector is not written

    def test_size_mismatch_raises(self, grounded):
        """``csr_matvec`` checks no size, so the CG refuses mismatched arrays."""
        n = grounded.shape[0]
        a = grounded + sp.diags(np.full(n, 0.5))
        inv = inverse_diagonal(a)
        with pytest.raises(ValueError, match="disagree"):
            jacobi_pcg(*_csr(a), np.ones(n), np.ones(n - 1), inv, 1e-5, 10)
        with pytest.raises(ValueError, match="disagree"):
            jacobi_pcg(*_csr(a), np.ones(n - 1), np.ones(n - 1), inv[1:], 1e-5, 10)

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
        self._assert_equal(x, ref)


# ----------------------------------------------------------------------
# chain elimination: scipy's spsolve is the oracle
# ----------------------------------------------------------------------
#: Building blocks of a drawn system (see :func:`_draw_system`).
FEATURES = (
    "long_chain",  # a path between two distinct hubs
    "dangling",  # a path hanging off one hub
    "loop",  # a path with both ends on the same hub
    "parallel",  # several paths plus a direct edge between one hub pair
    "bridge",  # a single cell between two hubs
    "cycle",  # a pure cycle: no hub
    "lone",  # a cell with no neighbours
    "zero",  # an explicit zero between two cells
)


def _draw_system(seed: int, n_hubs: int, features) -> sp.csr_matrix:
    """A grounded weighted Laplacian built from hubs and ``features``.

    Hubs are pairwise linked while there are at most four, and each keeps at
    least three hub neighbours beyond that. Every connected component gets a
    grounded cell (a diagonal-only link to a fixed cell), so the matrix plus
    any ``alpha·I`` with ``alpha ≥ 0`` is SPD.
    """
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    zeros: list[tuple[int, int]] = []
    n = n_hubs

    def cells(k: int) -> list[int]:
        nonlocal n
        n += k
        return list(range(n - k, n))

    def path(length: int, ends: tuple) -> None:
        ids = cells(length)
        edges.extend(zip(ids[:-1], ids[1:]))
        for cell, hub in zip((ids[0], ids[-1]), ends):
            if hub is not None:
                edges.append((cell, hub))

    def hub() -> int | None:
        return int(rng.integers(n_hubs)) if n_hubs else None

    def two_hubs() -> tuple:
        if n_hubs < 2:
            return hub(), hub()
        h1, h2 = rng.choice(n_hubs, 2, replace=False)
        return int(h1), int(h2)

    for i in range(n_hubs):
        for j in range(i + 1, n_hubs):
            # a circulant ring (i ± 1, i ± 2) plus random chords
            if n_hubs <= 4 or min(j - i, n_hubs + i - j) <= 2 or rng.random() < 0.3:
                edges.append((i, j))
    for f in features:
        if f == "long_chain":
            path(int(rng.integers(2, 12)), two_hubs())
        elif f == "dangling":
            path(int(rng.integers(1, 8)), (hub(), None))
        elif f == "loop":
            h = hub()
            path(int(rng.integers(2, 8)), (h, h))
        elif f == "parallel":
            h1, h2 = two_hubs()
            for _ in range(int(rng.integers(2, 4))):
                path(int(rng.integers(1, 6)), (h1, h2))
            if h1 is not None and h1 != h2:
                edges.append((h1, h2))
        elif f == "bridge":
            path(1, two_hubs())
        elif f == "cycle":
            ids = cells(int(rng.integers(3, 9)))
            edges.extend(zip(ids, ids[1:] + ids[:1]))
        elif f == "lone":
            cells(1)
        elif f == "zero" and n >= 2:
            i, j = rng.choice(n, 2, replace=False)
            zeros.append((int(i), int(j)))
    n = max(n, 1)
    i, j = np.array(sorted({(min(e), max(e)) for e in edges}), dtype=np.int64).reshape(-1, 2).T
    w = rng.uniform(0.1, 3.0, i.size)
    adj = sp.csr_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(n, n))
    ground = np.where(rng.random(n) < 0.2, rng.uniform(0.1, 2.0, n), 0.0)
    n_comp, comp = csgraph.connected_components(adj, directed=False)
    _, first = np.unique(comp, return_index=True)
    ungrounded = np.bincount(comp, weights=ground, minlength=n_comp) == 0
    ground[first[ungrounded]] = rng.uniform(0.1, 2.0, ungrounded.sum())
    zi, zj = np.array(zeros, dtype=np.int64).reshape(-1, 2).T
    diag = np.arange(n)
    # COO → CSR sums duplicates but keeps stored zeros
    return sp.csr_matrix(
        (
            np.r_[-w, -w, np.asarray(adj.sum(axis=1)).ravel() + ground, np.zeros(2 * zi.size)],
            (np.r_[i, j, diag, zi, zj], np.r_[j, i, diag, zj, zi]),
        ),
        shape=(n, n),
    )


def _spsolve(a, shift, b):
    lhs = (a + sp.diags(np.full(a.shape[0], shift))).tocsc()
    return np.column_stack([spla.spsolve(lhs, b[:, j]) for j in range(b.shape[1])])


def _full_residuals(a, shift, b, x):
    lhs = a + sp.diags(np.full(a.shape[0], shift))
    return [np.linalg.norm(b[:, j] - lhs @ x[:, j]) for j in range(b.shape[1])]


#: Named systems every run covers, beside the drawn ones.
SCENARIOS = {
    "one_path_no_core": (0, ["dangling"]),
    "no_chains": (6, []),
    "every_feature": (5, list(FEATURES)),
    "cycle_and_lone": (0, ["cycle", "lone", "cycle"]),
    "parallel_on_two_hubs": (2, ["parallel", "bridge", "loop"]),
}


class TestChainElimination:
    """Exact chain elimination + core CG against scipy's ``spsolve``."""

    @staticmethod
    def _check(a, alpha, seed):
        rng = np.random.default_rng(seed)
        n = a.shape[0]
        b = rng.normal(scale=100.0, size=(n, 2))
        x0 = rng.uniform(0.0, 500.0, (n, 2))
        elim = ChainElimination(a)
        assert np.array_equal(np.sort(np.r_[elim.order, elim.hubs]), np.arange(n))
        ref = _spsolve(a, alpha, b)
        x, _, unconverged = elim.solve(b, x0, 1e-12, 10 * n + 100, shift=alpha)
        assert unconverged == 0
        for j in range(2):
            assert np.linalg.norm(x[:, j] - ref[:, j]) <= 1e-8 * np.linalg.norm(ref[:, j])
        # the default tolerance holds on the full system, per axis
        rtol = analytical.CG_RTOL
        x, _, _ = elim.solve(b, x0, rtol, 10 * n + 100, shift=alpha)
        for j, res in enumerate(_full_residuals(a, alpha, b, x)):
            assert res <= rtol * np.linalg.norm(b[:, j])
        return elim

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 7),
        st.lists(st.sampled_from(FEATURES), max_size=10),
        st.sampled_from([0.0, 1e-3, 0.5, 4.0]),
    )
    def test_matches_spsolve(self, seed, n_hubs, features, alpha):
        self._check(_draw_system(seed, n_hubs, features), alpha, seed)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios(self, name):
        n_hubs, features = SCENARIOS[name]
        for seed in range(5):
            a = _draw_system(seed, n_hubs, features)
            elim = self._check(a, 0.0, seed)
            if name == "one_path_no_core":
                assert elim.hubs.size == 0
            if name == "no_chains":
                assert elim.order.size == 0
            if name == "cycle_and_lone":
                # one cell of each pure cycle joins the core
                assert elim.hubs.size == 2

    def test_explicit_zeros_do_not_count_as_neighbours(self):
        # a 3-cell path whose middle cell has a stored zero to a far cell
        a = sp.csr_matrix(
            (
                [2.0, -1.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0, 0.0, 1.0],
                ([0, 0, 1, 1, 1, 1, 2, 2, 3, 3], [0, 1, 0, 1, 2, 3, 1, 2, 1, 3]),
            ),
            shape=(4, 4),
        )
        assert ChainElimination(a).hubs.size == 0

    def test_chain_block_not_positive_definite_raises(self):
        a = sp.csr_matrix(np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(SolverConvergenceError):
            ChainElimination(a).solve(np.ones((3, 1)), np.zeros((3, 1)), 1e-5, 10)


class TestRegularizer:
    """``(L + εI) x = b + ε x0``: cells with no path to a fixed cell stay put."""

    @staticmethod
    def _system():
        # cell 0 lone; cells 1-3 a floating chain; cells 4-7 a chain whose
        # cell 4 is tied to a fixed cell at x = 100
        w = {(1, 2): 1.0, (2, 3): 1.0, (4, 5): 1.0, (5, 6): 1.0, (6, 7): 1.0}
        i, j = np.array(list(w)).T
        v = np.array(list(w.values()))
        adj = sp.csr_matrix((np.r_[v, v], (np.r_[i, j], np.r_[j, i])), shape=(8, 8))
        tie = np.zeros(8)
        tie[4] = 2.0
        lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel() + tie) - adj
        a = (lap + sp.diags(np.full(8, SOLVE_EPS))).tocsr()
        x0 = np.array([[420.0], [400.0], [407.5], [430.0], [300.0], [310.0], [320.0], [330.0]])
        b = tie[:, None] * 100.0 + SOLVE_EPS * x0
        return a, b, x0

    def test_lone_cell_and_floating_chain_stay(self):
        a, b, x0 = self._system()
        x, _, _ = ChainElimination(a).solve(b, x0, 1e-12, 100)
        assert abs(x[0, 0] - x0[0, 0]) <= 1e-6
        # the floating block has condition ~1/ε, so double precision leaves
        # about |x|·u/ε ≈ 4e-5 µm here (spsolve reads the same)
        assert np.abs(x[1:4, 0] - x0[1:4, 0].mean()).max() <= 1e-4
        ref = spla.spsolve(a.tocsc(), b[:, 0])
        assert np.abs(ref[1:4] - x0[1:4, 0].mean()).max() <= 1e-4

    def test_grounded_chain_matches_spsolve(self):
        a, b, x0 = self._system()
        x, _, _ = ChainElimination(a).solve(b, x0, 1e-12, 100)
        ref = spla.spsolve(a.tocsc(), b[:, 0])
        assert np.allclose(x[4:, 0], ref[4:], rtol=1e-10, atol=0)
        assert np.allclose(x[4:, 0], 100.0, atol=1e-5)

    def test_placer_keeps_unconnected_cell_at_start(self, tiny_netlist, small_dev, monkeypatch):
        lone = tiny_netlist.add_cell("lone", CellType.LUT)
        solved = []
        solve = ChainElimination.solve

        def spy_solve(self, b, x0, rtol, maxiter, shift=0.0):
            assert (rtol, maxiter) == (analytical.CG_RTOL, analytical.CG_MAXITER)
            out = solve(self, b, x0, rtol, maxiter, shift=shift)
            solved.append((x0.copy(), out[0].copy()))  # the placer jitters x in place
            return out

        monkeypatch.setattr(analytical.ChainElimination, "solve", spy_solve)
        QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=0)).place(tiny_netlist, small_dev)
        row = np.searchsorted(np.flatnonzero(~get_csr(tiny_netlist).is_fixed), lone)
        [(x0, x)] = solved
        assert np.abs(x[row] - x0[row]).max() <= 1e-6

    def test_jacobi_pcg_keeps_lone_cell(self):
        a, b, x0 = self._system()
        x, _, _ = jacobi_pcg(*_csr(a), b[:, 0], x0[:, 0], inverse_diagonal(a), 1e-12, 100)
        assert abs(x[0] - x0[0, 0]) <= 1e-6


class TestSolveContract:
    def test_every_clique_solve_meets_rtol_on_full_system(self, mini_accel, small_dev, monkeypatch):
        """Each clique solve: ‖b − A x‖ ≤ CG_RTOL·‖b‖ per axis on the full system."""
        systems = {}
        checked = []
        init, solve = ChainElimination.__init__, ChainElimination.solve

        def spy_init(self, a):
            systems[id(self)] = a
            init(self, a)

        def spy_solve(self, b, x0, rtol, maxiter, shift=0.0):
            assert (rtol, maxiter) == (analytical.CG_RTOL, analytical.CG_MAXITER)
            out = solve(self, b, x0, rtol, maxiter, shift=shift)
            for j, res in enumerate(_full_residuals(systems[id(self)], shift, b, out[0])):
                assert res <= rtol * np.linalg.norm(b[:, j])
            checked.append(shift)
            return out

        monkeypatch.setattr(analytical.ChainElimination, "__init__", spy_init)
        monkeypatch.setattr(analytical.ChainElimination, "solve", spy_solve)
        cfg = GlobalPlaceConfig()
        QuadraticGlobalPlacer(cfg).place(mini_accel, small_dev)
        assert len(checked) == 1 + cfg.n_iterations
