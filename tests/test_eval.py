"""Evaluation harness tests: tables, visualization, profiling, experiments."""

import numpy as np
import pytest

from repro import obs
from repro.core.extraction import build_dsp_graph, iddfs_dsp_paths, prune_control_dsps
from repro.eval import ExperimentSettings, render_table, run_table1
from repro.eval.profiling import RuntimeBreakdown, traced
from repro.obs import Span, trace
from repro.eval.tables import render_csv
from repro.eval.visualization import layout_metrics, placement_to_svg
from repro.placers import VivadoLikePlacer


class TestTables:
    def test_render_basic(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["x", 3.0]])
        lines = out.splitlines()
        assert "a" in lines[0] and "bb" in lines[0]
        assert len(lines) == 4

    def test_render_with_title(self):
        out = render_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_alignment(self):
        out = render_table(["col"], [[123456], [1]])
        rows = out.splitlines()[2:]
        assert len(rows[0]) == len(rows[1])

    def test_csv(self):
        out = render_csv(["a", "b"], [[1, 2]])
        assert out.splitlines()[1] == "1,2"

    def test_float_formatting(self):
        out = render_table(["x"], [[0.123456]])
        assert "0.123" in out


class TestVisualization:
    @pytest.fixture(scope="class")
    def placed(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        paths = iddfs_dsp_paths(mini_accel)
        g = build_dsp_graph(mini_accel, paths)
        flags = {i: bool(mini_accel.cells[i].is_datapath) for i in mini_accel.dsp_indices()}
        return p, prune_control_dsps(g, flags)

    def test_svg_written(self, placed, tmp_path):
        p, g = placed
        path = tmp_path / "layout.svg"
        svg = placement_to_svg(p, g, path=path, title="test")
        assert path.exists()
        assert svg.startswith("<svg")
        assert "</svg>" in svg
        assert "test" in svg

    def test_svg_contains_dsp_marks(self, placed):
        p, g = placed
        svg = placement_to_svg(p, g)
        assert svg.count("#d62728") >= p.netlist.stats().n_dsp  # datapath color used

    def test_layout_metrics_ranges(self, placed):
        p, g = placed
        m = layout_metrics(p, g)
        assert 0.0 <= m.cascade_adjacent_frac <= 1.0
        assert -1.0 <= m.angle_monotonicity <= 1.0
        assert m.mean_datapath_edge_um >= 0
        assert 0.0 <= m.dsp_bbox_area_frac <= 1.0

    def test_legal_placement_cascades_adjacent(self, placed):
        p, g = placed
        assert layout_metrics(p, g).cascade_adjacent_frac == 1.0


class TestProfiling:
    def test_percentages_sum_to_100(self):
        rb = RuntimeBreakdown("x", {"a": 1.0, "b": 3.0})
        assert sum(rb.percentages.values()) == pytest.approx(100.0)

    def test_rows_sorted(self):
        rb = RuntimeBreakdown("x", {"a": 1.0, "b": 3.0, "c": 2.0})
        rows = rb.rows()
        assert [r[0] for r in rows] == ["b", "c", "a"]

    def test_total(self):
        assert RuntimeBreakdown("x", {"a": 1.5, "b": 0.5}).total == 2.0

    @staticmethod
    def _span(name, wall_s, *children):
        sp = Span(name)
        sp.wall_s = wall_s
        sp.children = list(children)
        return sp

    def test_from_spans_folds_a_hand_built_tree(self):
        s = self._span
        place = s(
            "place",
            10.0,
            s("place.validation", 0.25),
            s("place.prototype", 3.0, s("placer.vivado", 2.5)),
            s("place.extraction", 0.5, s("extraction.dsp_graph", 0.125)),
            *(
                s(
                    "place.outer",
                    wall,
                    s("place.assignment", a),
                    s("place.legalization", lg),
                    s("place.incremental", inc),
                )
                for wall, a, lg, inc in ((2.5, 0.5, 0.25, 1.5), (2.75, 0.75, 0.5, 1.25))
            ),
            s("place.selection", 0.125),
        )
        rb = RuntimeBreakdown.from_spans("x", place, s("route", 0.75))
        # assignment, legalization and incremental sum over both outer spans;
        # the nested placer.vivado / extraction.dsp_graph spans are not rows
        assert rb.seconds == {
            "validation": 0.25,
            "prototype": 3.0,
            "extraction": 0.5,
            "assignment": 1.25,
            "legalization": 0.75,
            "incremental": 2.75,
            "selection": 0.125,
            "unattributed": 1.375,
            "routing": 0.75,
        }
        assert rb.total == 10.75

    def test_from_spans_skipped_stages_read_zero(self):
        s = self._span
        place = s("place", 2.0, s("place.validation", 0.5), s("place.prototype", 1.0))
        rb = RuntimeBreakdown.from_spans("x", place, s("route", 0.5))
        assert rb.seconds["assignment"] == rb.seconds["selection"] == 0.0
        assert rb.seconds["unattributed"] == 0.5

    def test_traced_reads_the_active_observation(self):
        def run(i):
            with trace.span("place", i=i):
                pass
            return i

        with obs.observe() as outer:
            out, place = traced("place", run, 1)
            _, later = traced("place", run, 2)
        # the enclosing observation keeps both spans; each call gets its own
        assert outer.tracer.find("place") == [place, later]
        assert (out, place.attrs, later.attrs) == (1, {"i": 1}, {"i": 2})
        # with none active, traced observes the call itself
        _, alone = traced("place", run, 3)
        assert alone.attrs == {"i": 3} and obs.active() is None


class TestExperimentRunners:
    def test_table1_full_scale_counts(self):
        rows = run_table1()
        assert len(rows) == 5
        by_name = {r["design"]: r for r in rows}
        assert by_name["iSmartDNN"]["dsp"] == 197
        assert by_name["SkrSkr-3"]["dsp"] == 1431
        assert by_name["SkrSkr-1"]["freq_mhz"] == 195.0
        # DSP% ascends across the SkrSkr family like the paper's 37/68/83
        assert (
            by_name["SkrSkr-1"]["dsp_pct"]
            < by_name["SkrSkr-2"]["dsp_pct"]
            < by_name["SkrSkr-3"]["dsp_pct"]
        )

    def test_settings_env_defaults(self):
        s = ExperimentSettings()
        assert 0 < s.scale <= 1.0
        assert len(s.suites) == 5
