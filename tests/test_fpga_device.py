"""Unit tests for the device model."""

import numpy as np
import pytest

from repro.fpga import PSBlock, SiteColumn


class TestSiteOrdering:
    def test_sites_column_major_ascending(self, small_dev):
        for kind in ("CLB", "DSP", "BRAM"):
            sites = small_dev.sites(kind)
            for a, b in zip(sites, sites[1:]):
                assert (a.x, a.y) < (b.x, b.y)

    def test_same_column_consecutive_ids(self, small_dev):
        """The paper's eq. (5) precondition: vertical neighbours have
        consecutive indices."""
        sites = small_dev.sites("DSP")
        for a, b in zip(sites, sites[1:]):
            if a.col == b.col:
                assert b.sid == a.sid + 1
                assert b.row == a.row + 1

    def test_column_site_ids_consecutive(self, small_dev):
        for c in range(small_dev.n_dsp_columns):
            ids = small_dev.column_site_ids("DSP", c)
            assert ids == list(range(ids[0], ids[0] + len(ids)))

    def test_capacity_sums(self, small_dev):
        total = sum(c.n_sites for c in small_dev.kind_columns("DSP"))
        assert total == small_dev.n_dsp


class TestQueries:
    def test_site_xy_shape(self, small_dev):
        xy = small_dev.site_xy("DSP")
        assert xy.shape == (small_dev.n_dsp, 2)

    def test_nearest_site_is_nearest(self, small_dev, rng):
        xy = small_dev.site_xy("DSP")
        for _ in range(20):
            p = rng.uniform([0, 0], [small_dev.width, small_dev.height])
            got = small_dev.nearest_sites("DSP", p[0], p[1], k=1)[0]
            d = ((xy - p) ** 2).sum(axis=1)
            assert d[got] == pytest.approx(d.min())

    def test_nearest_sites_sorted(self, small_dev):
        cand = small_dev.nearest_sites("DSP", 100.0, 100.0, k=5)
        xy = small_dev.site_xy("DSP")
        d = ((xy[cand] - [100.0, 100.0]) ** 2).sum(axis=1)
        assert np.all(np.diff(d) >= 0)

    def test_nearest_more_than_available(self, small_dev):
        cand = small_dev.nearest_sites("BRAM", 0, 0, k=10_000)
        assert len(cand) == small_dev.n_sites("BRAM")

    def test_clock_region_corners(self, small_dev):
        assert small_dev.clock_region_of(0.0, 0.0) == (0, 0)
        cx, cy = small_dev.clock_region_of(small_dev.width - 1, small_dev.height - 1)
        ncx, ncy = small_dev.clock_region_shape
        assert (cx, cy) == (ncx - 1, ncy - 1)

    def test_clock_regions_of_matches_scalar(self, small_dev, rng):
        xs = rng.uniform(-20.0, small_dev.width + 20.0, 200)
        ys = rng.uniform(-20.0, small_dev.height + 20.0, 200)
        cx, cy = small_dev.clock_regions_of(xs, ys)
        for i in range(xs.size):
            assert (int(cx[i]), int(cy[i])) == small_dev.clock_region_of(
                float(xs[i]), float(ys[i])
            )

    def test_clock_regions_of_boundaries(self, small_dev):
        ncx, ncy = small_dev.clock_region_shape
        w, h = small_dev.width, small_dev.height
        xs = np.array([0.0, w, w + 5.0, -3.0, w / 2.0])
        ys = np.array([0.0, h, h + 5.0, -3.0, h / 2.0])
        cx, cy = small_dev.clock_regions_of(xs, ys)
        # x == width lands in (and overshoots clamp to) the last region
        assert cx[1] == ncx - 1 and cy[1] == ncy - 1
        assert cx[2] == ncx - 1 and cy[2] == ncy - 1
        # negative coordinates clamp to region 0
        assert cx[3] == 0 and cy[3] == 0
        assert cx[0] == 0 and cy[0] == 0
        assert cx.dtype == np.int64 and cy.dtype == np.int64

    def test_clock_regions_of_empty(self, small_dev):
        cx, cy = small_dev.clock_regions_of(np.zeros(0), np.zeros(0))
        assert cx.size == 0 and cy.size == 0

    def test_has_cascades_default(self, small_dev):
        assert small_dev.has_cascades is True
        assert small_dev.clock_tree is None

    def test_validate_passes(self, small_dev):
        small_dev.validate()


class TestPSBlock:
    def test_ps_attachment_points(self, small_dev):
        ps = small_dev.ps
        x, y = ps.ps_to_pl_xy
        assert y == ps.y1  # PS→PL buses enter above the PS
        x2, y2 = ps.pl_to_ps_xy
        assert x2 == ps.x1  # PL→PS buses exit on the right

    def test_contains(self):
        ps = PSBlock(0, 0, 10, 20)
        assert ps.contains(5, 5)
        assert not ps.contains(10, 5)
        assert not ps.contains(5, 20)

    def test_no_sites_inside_ps(self, small_dev):
        ps = small_dev.ps
        for kind in ("CLB", "DSP", "BRAM"):
            for s in small_dev.sites(kind):
                assert not ps.contains(s.x, s.y)

    def test_no_ps_device(self, no_ps_dev):
        assert no_ps_dev.ps is None
        no_ps_dev.validate()


class TestSiteColumn:
    def test_non_monotone_ys_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            SiteColumn(kind="DSP", col=0, x=10.0, ys=np.array([1.0, 1.0, 2.0]))
