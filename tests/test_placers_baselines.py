"""Baseline placer flows: Vivado-like, AMF-like, refine."""

import numpy as np

from repro.placers import (
    AMFLikePlacer,
    GlobalPlaceConfig,
    Legalizer,
    Placement,
    QuadraticGlobalPlacer,
    VivadoLikePlacer,
    refine_sites,
)
from repro.placers.vivado_like import N_ITERATIONS


class TestVivadoLike:
    def test_produces_legal_placement(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=1, device=small_dev).place(mini_accel)
        assert p.is_legal(), p.legality_violations()[:5]

    def test_deterministic(self, mini_accel, small_dev):
        p1 = VivadoLikePlacer(seed=2, device=small_dev).place(mini_accel)
        p2 = VivadoLikePlacer(seed=2, device=small_dev).place(mini_accel)
        assert np.array_equal(p1.xy, p2.xy)

    def test_beats_random_start(self, mini_accel, small_dev, rng):
        placed = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        random_p = Placement(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        random_p.xy[mov] = rng.uniform(
            [0, 0], [small_dev.width, small_dev.height], (len(mov), 2)
        )
        Legalizer(small_dev).legalize(random_p)
        assert placed.hpwl() < random_p.hpwl()

    def test_respects_movable_mask(self, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        frozen = mini_accel.dsp_indices()
        mask = np.array([not c.is_fixed for c in mini_accel.cells])
        mask[frozen] = False
        p2 = VivadoLikePlacer(seed=1, device=small_dev).place(mini_accel, placement=base, movable_mask=mask)
        assert np.array_equal(p2.site[frozen], base.site[frozen])
        assert p2.is_legal()


class TestAMFLike:
    def test_produces_legal_placement(self, mini_accel, small_dev):
        p = AMFLikePlacer(seed=1, device=small_dev).place(mini_accel)
        assert p.is_legal(), p.legality_violations()[:5]

    def test_macros_compact(self, mini_accel, small_dev, monkeypatch):
        """Centroid collapse ⇒ the legalizer receives every macro on one
        point, and each macro lands minimal-height (legal cascades are
        consecutive) in one of the two DSP columns nearest that point."""
        handed = []
        real = Legalizer.legalize

        def spy(self, placement, movable_mask=None):
            handed.append(placement.xy.copy())
            return real(self, placement, movable_mask)

        monkeypatch.setattr(Legalizer, "legalize", spy)
        p = AMFLikePlacer(seed=1, device=small_dev).place(mini_accel)
        assert p.is_legal()
        (xy,) = handed
        col_x = np.array(sorted({s.x for s in small_dev.sites("DSP")}))
        site_col = small_dev.site_col("DSP")
        assert mini_accel.macros
        for macro in mini_accel.macros:
            members = list(macro.dsps)
            point = xy[members[0]]
            assert (xy[members] == point).all()
            nearest = np.argsort(np.abs(col_x - point[0]))[:2]
            (col,) = {int(site_col[p.site[i]]) for i in members}
            assert col in nearest

    def test_worse_or_equal_wirelength_than_vivado(self, mini_accel, small_dev):
        """The VCU108-tuned flow should not beat the calibrated one."""
        hv = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel).hpwl()
        ha = AMFLikePlacer(seed=0, device=small_dev).place(mini_accel).hpwl()
        assert ha >= hv * 0.95  # allow a little noise on tiny designs


class TestRefineSites:
    def test_refine_never_degrades(self, mini_accel, small_dev):
        # the Vivado-like flow's legal placement before its refinement
        p = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=N_ITERATIONS, seed=3)).place(
            mini_accel, small_dev
        )
        Legalizer(small_dev).legalize(p)
        before = p.hpwl(weighted=True)
        refine_sites(p, passes=2)
        assert p.hpwl(weighted=True) <= before + 1e-6
        assert p.is_legal()

    def test_refine_reports_moves(self, mini_accel, small_dev, rng):
        p = Placement(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        p.xy[mov] = rng.uniform([0, 0], [small_dev.width, small_dev.height], (len(mov), 2))
        Legalizer(small_dev).legalize(p)
        moves = refine_sites(p, passes=3)
        assert moves >= 0
        assert p.is_legal()
