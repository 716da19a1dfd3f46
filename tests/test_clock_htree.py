"""H-tree synthesis: determinism, geometry, balance, and vectorized skew_at."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.accelgen import generate_suite
from repro.clock import (
    ClockTree,
    HTreeConfig,
    clock_report_section,
    get_skew_model,
    synthesize_htree,
)
from repro.errors import ConfigurationError
from repro.fpga import slot_fabric, small_device
from repro.placers import Placement
from repro.timing.delay_model import SEQUENTIAL_KINDS

DEV = small_device(n_dsp_cols=3, dsp_rows=12)


class TestSynthesis:
    def test_deterministic(self):
        a = synthesize_htree(DEV, HTreeConfig(depth=3))
        b = synthesize_htree(DEV, HTreeConfig(depth=3))
        np.testing.assert_array_equal(a.taps, b.taps)
        np.testing.assert_array_equal(a.tap_delay, b.tap_delay)
        assert a.total_wire_um == b.total_wire_um

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_tap_count_is_4_pow_depth(self, depth):
        tree = synthesize_htree(DEV, HTreeConfig(depth=depth))
        assert tree.n_taps == 4**depth

    def test_depth0_is_die_centre(self):
        tree = synthesize_htree(DEV, HTreeConfig(depth=0))
        np.testing.assert_allclose(tree.taps, [[DEV.width / 2, DEV.height / 2]])
        assert tree.tap_delay[0] == 0.0
        assert tree.total_wire_um == 0.0

    def test_taps_form_regular_grid(self):
        depth = 2
        tree = synthesize_htree(DEV, HTreeConfig(depth=depth))
        side = 2**depth
        ex = (np.arange(side) + 0.5) * DEV.width / side
        ey = (np.arange(side) + 0.5) * DEV.height / side
        np.testing.assert_allclose(sorted(set(tree.taps[:, 0].tolist())), ex)
        np.testing.assert_allclose(sorted(set(tree.taps[:, 1].tolist())), ey)

    def test_balanced_without_jitter(self):
        tree = synthesize_htree(DEV, HTreeConfig(depth=3))
        assert float(tree.tap_delay.max() - tree.tap_delay.min()) == 0.0
        # insertion delay = depth buffers + the geometric wire series
        assert tree.tap_delay[0] > 3 * 0.05

    def test_jitter_is_deterministic_and_bounded(self):
        cfg = HTreeConfig(depth=2, jitter_ns=0.02, seed=7)
        a = synthesize_htree(DEV, cfg)
        b = synthesize_htree(DEV, cfg)
        np.testing.assert_array_equal(a.tap_delay, b.tap_delay)
        ideal = synthesize_htree(DEV, HTreeConfig(depth=2))
        spread = a.tap_delay - ideal.tap_delay
        assert (spread >= 0.0).all() and (spread <= 0.02).all()
        assert float(spread.max() - spread.min()) > 0.0

    def test_segments_and_wire_length(self):
        tree = synthesize_htree(DEV, HTreeConfig(depth=2))
        # depth-d tree: 3 segment batches per level
        assert tree.segments.shape[1] == 4
        lens = np.abs(tree.segments[:, 2] - tree.segments[:, 0]) + np.abs(
            tree.segments[:, 3] - tree.segments[:, 1]
        )
        assert tree.total_wire_um == pytest.approx(float(lens.sum()))

    def test_slot_fabric_taps_at_region_centres(self):
        dev = slot_fabric(0.05)
        tree = dev.clock_tree
        assert isinstance(tree, ClockTree)
        ncx, ncy = dev.clock_region_shape
        assert tree.n_taps == ncx * ncy
        centres = sorted(
            (
                ((j + 0.5) * dev.height / ncy),
                ((i + 0.5) * dev.width / ncx),
            )
            for i in range(ncx)
            for j in range(ncy)
        )
        taps = sorted((y, x) for x, y in tree.taps)
        np.testing.assert_allclose(np.array(taps), np.array(centres))


class TestSkewAt:
    def _naive(self, tree, xs, ys):
        local = tree.config.local_delay_per_um_ns
        out = []
        for x, y in zip(xs, ys):
            d = np.abs(tree.taps[:, 0] - x) + np.abs(tree.taps[:, 1] - y)
            j = int(np.argmin(d))
            out.append(tree.tap_delay[j] + local * d[j])
        return np.array(out)

    def test_matches_naive_loop(self, rng):
        tree = synthesize_htree(DEV, HTreeConfig(depth=3, jitter_ns=0.01, seed=3))
        xs = rng.uniform(-10.0, DEV.width + 10.0, 257)
        ys = rng.uniform(-10.0, DEV.height + 10.0, 257)
        np.testing.assert_allclose(
            tree.skew_at(xs, ys), self._naive(tree, xs, ys), rtol=0, atol=0
        )

    def test_scalar_inputs(self):
        tree = synthesize_htree(DEV, HTreeConfig(depth=2))
        out = tree.skew_at(10.0, 20.0)
        assert out.shape == (1,)

    def test_shape_mismatch_rejected(self):
        tree = synthesize_htree(DEV, HTreeConfig(depth=1))
        with pytest.raises(ValueError, match="shape"):
            tree.skew_at(np.zeros(3), np.zeros(4))

    def test_10k_sinks_chunked_no_python_loop(self, rng):
        """10k sinks span multiple chunks and finish in array-op time."""
        tree = synthesize_htree(DEV, HTreeConfig(depth=4))
        n = 10_000
        xs = rng.uniform(0.0, DEV.width, n)
        ys = rng.uniform(0.0, DEV.height, n)
        t0 = time.perf_counter()
        out = tree.skew_at(xs, ys)
        elapsed = time.perf_counter() - t0
        assert out.shape == (n,)
        # generous bound: a per-sink Python loop over 10k × 256 taps is
        # orders of magnitude slower than the chunked argmin
        assert elapsed < 2.0
        sample = rng.choice(n, 64, replace=False)
        np.testing.assert_allclose(
            out[sample], self._naive(tree, xs[sample], ys[sample]), rtol=0, atol=0
        )

    def test_worst_skew(self):
        tree = synthesize_htree(DEV, HTreeConfig(depth=2))
        xs = np.array([DEV.width / 8, 0.0])  # on-tap-ish vs far corner
        ys = np.array([DEV.height / 8, 0.0])
        assert tree.worst_skew_ns(xs, ys) >= 0.0
        assert tree.worst_skew_ns(np.zeros(0), np.zeros(0)) == 0.0


class TestConfigValidation:
    @pytest.mark.parametrize("depth", [-1, 9, 2.5, "3"])
    def test_bad_depth(self, depth):
        with pytest.raises(ConfigurationError, match="depth"):
            HTreeConfig(depth=depth)

    @pytest.mark.parametrize(
        "field", ["buffer_delay_ns", "wire_delay_per_um_ns",
                  "local_delay_per_um_ns", "jitter_ns"]
    )
    def test_negative_delay(self, field):
        with pytest.raises(ConfigurationError, match=field):
            HTreeConfig(**{field: -0.1})

    def test_nan_delay(self):
        with pytest.raises(ConfigurationError, match="buffer_delay_ns"):
            HTreeConfig(buffer_delay_ns=float("nan"))

    def test_describe_keys(self):
        tree = synthesize_htree(DEV, HTreeConfig(depth=1))
        doc = tree.describe()
        for key in ("depth", "n_taps", "total_wire_um",
                    "tap_delay_min_ns", "tap_delay_max_ns"):
            assert key in doc


class TestReportSection:
    def test_sinks_match_a_walk_over_the_cells(self, rng):
        """The H-tree ``clock`` section reads its sinks from the kind codes;
        it equals the section of the cells a walk over the rows calls
        sequential."""
        device = slot_fabric(0.05)
        netlist = generate_suite("skynet", scale=0.05, device=device, seed=0)
        placement = Placement(netlist, device)
        n = len(placement.xy)
        placement.xy[:] = rng.uniform(0.0, [device.width, device.height], (n, 2))
        model = get_skew_model("htree", device)
        walk = np.array([c.ctype in SEQUENTIAL_KINDS for c in netlist.cells])
        assert 0 < walk.sum() < n
        sinks = SimpleNamespace(xy=placement.xy[walk], device=device)
        expected = clock_report_section(model, sinks)
        assert expected["n_sinks"] == walk.sum()
        assert clock_report_section(model, placement, netlist) == expected
