"""Spreading kernel vs its ``np.histogram``/``np.interp`` loop oracle,
plus the slab-boundary regression.

``_spread`` historically selected slab members with ``>= edge[s] & <
edge[s+1]`` scans, so a cell sitting at (or, via the ``_equalize``
monotonicity epsilon, just above) the last slab edge matched no slab and
its y coordinate was never equalized. The placer and its per-slab loop
oracle (``tests.oracles.ReferenceSpreadPlacer``) share clipped
``np.digitize`` membership. With the placer's own cell areas the kernel
must equal the oracle bit for bit; with arbitrary areas (whose sums depend
on their order) it must match to 1e-9. The cases draw the spreading grid
and set the module constants ``N_BINS``/``N_SLABS``, which product and
oracle both read at call time.
"""

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import small_device
from repro.placers import GlobalPlaceConfig, QuadraticGlobalPlacer, analytical
from repro.placers.analytical import _AREA_OF, _equalize, _slab_of
from tests.oracles import ReferenceSpreadPlacer
from tests.oracles.placers import _equalize as _equalize_reference

DEV = small_device(n_dsp_cols=3, dsp_rows=12)


@contextmanager
def spread_grid(n_bins: int, n_slabs: int):
    """Set the spreading grid for one example; a function-scoped
    ``monkeypatch`` would trip hypothesis's health check."""
    with patch.object(analytical, "N_BINS", n_bins), patch.object(analytical, "N_SLABS", n_slabs):
        yield


@st.composite
def spread_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(0, 300))
    # include out-of-fabric positions: the solver can overshoot before clipping
    pos = np.column_stack(
        [
            rng.uniform(-10.0, DEV.width + 10.0, n),
            rng.uniform(-10.0, DEV.height + 10.0, n),
        ]
    )
    areas = rng.uniform(0.5, 12.0, n)
    n_slabs = draw(st.integers(1, 6))
    n_bins = draw(st.integers(2, 40))
    return pos, areas, n_slabs, n_bins


@st.composite
def cell_area_case(draw):
    """Areas drawn from ``_AREA_OF``; per axis, coords uniform in and
    around the (scaled) fabric, on a bin edge, one ULP either side of one,
    or exactly at the far edge; few cells leave slabs of two or fewer."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.one_of(st.integers(0, 8), st.integers(9, 300)))
    n_bins = draw(st.integers(2, 40))
    n_slabs = draw(st.integers(1, 6))
    cfg = GlobalPlaceConfig(
        fabric_scale=draw(st.sampled_from([1.0, 1.5])),
        avoid_ps=draw(st.booleans()),
    )
    pos = np.empty((n, 2))
    for axis, extent in enumerate((DEV.width, DEV.height)):
        extent *= cfg.fabric_scale
        kind = rng.integers(0, 5, n)
        edge = rng.choice(np.linspace(0.0, extent, n_bins + 1), n)
        pos[:, axis] = np.select(
            [kind == 1, kind == 2, kind == 3, kind == 4],
            [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf), np.full(n, extent)],
            rng.uniform(-10.0, extent + 10.0, n),
        )
    return pos, rng.choice(_AREA_OF, n), cfg, n_slabs, n_bins


def test_cell_areas_are_multiples_of_half():
    """The kernel's bit-identity rests on exact area sums in any order."""
    assert not np.any(_AREA_OF % 0.5)


class TestVectorizedEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(spread_case())
    def test_spread_matches_reference(self, case):
        pos, areas, n_slabs, n_bins = case
        with spread_grid(n_bins, n_slabs):
            a = QuadraticGlobalPlacer()._spread(pos, areas, DEV)
            b = ReferenceSpreadPlacer()._spread(pos, areas, DEV)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(cell_area_case())
    def test_spread_bitwise_on_cell_areas(self, case):
        pos, areas, cfg, n_slabs, n_bins = case
        with spread_grid(n_bins, n_slabs):
            a = QuadraticGlobalPlacer(cfg)._spread(pos, areas, DEV)
            b = ReferenceSpreadPlacer(cfg)._spread(pos, areas, DEV)
        assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(spread_case())
    def test_grouped_equalize_matches_per_group(self, case):
        pos, areas, n_slabs, n_bins = case
        y = pos[:, 1]
        group = _slab_of(pos[:, 0], DEV.width, n_slabs)
        got = _equalize(y, areas, 0.0, DEV.height, n_bins, group, n_slabs)
        expect = y.copy()
        for g in range(n_slabs):
            sel = group == g
            if sel.sum() > 2:
                expect[sel] = _equalize_reference(y[sel], areas[sel], 0.0, DEV.height, n_bins)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9)

    def test_unknown_method_rejected(self):
        """Spreading has one engine: no ``spread_method`` knob is accepted."""
        with pytest.raises(TypeError, match="spread_method"):
            GlobalPlaceConfig(spread_method="banana")


class TestSlabBoundaryRegression:
    def test_every_x_gets_a_slab(self):
        w = DEV.width
        x = np.array([-1.0, 0.0, w / 2, w - 1e-9, w, w + 1e-6])
        s = _slab_of(x, w, 4)
        assert s.min() >= 0 and s.max() <= 3
        # the old >=/< scan left x >= w unmatched; digitize maps it last
        assert s[-2] == 3 and s[-1] == 3

    @pytest.mark.parametrize(
        "placer_cls",
        [QuadraticGlobalPlacer, ReferenceSpreadPlacer],
        ids=["vectorized", "reference"],
    )
    def test_max_x_cell_is_equalized(self, placer_cls):
        """The x-equalization epsilon pushes the max-x cell just past the
        fabric edge; its y must still be spread with its slab."""
        n = 50
        rng = np.random.default_rng(3)
        pos = np.column_stack(
            [np.linspace(0.0, DEV.width, n), np.full(n, DEV.height / 2)]
        )
        areas = rng.uniform(1.0, 4.0, n)
        placer = placer_cls(GlobalPlaceConfig(avoid_ps=False))
        with spread_grid(32, 4):
            out = placer._spread(pos, areas, DEV)
        top = int(np.argmax(out[:, 0]))
        assert out[top, 0] >= DEV.width - 1.5  # still the edge cell
        # all cells started at y = h/2; equalization moves the slab's
        # marginal, so the boundary cell's y may no longer sit there
        assert out[top, 1] != pytest.approx(DEV.height / 2, abs=1e-12)
