"""End-to-end experiment-runner smoke tests at tiny scale.

The real experiments run at REPRO_SCALE (default 0.25) in benchmarks/;
these tests exercise the same code paths at scale 0.04 with oracle
identification so the whole harness stays covered by `pytest tests/`.
"""

import dataclasses
import time

import pytest

from repro.core.extraction.identification import DatapathIdentifier
from repro.eval import ExperimentSettings, experiments
from repro.eval.experiments import run_fig8, run_fig9, run_suite_tool, run_table2
from repro.eval.profiling import FIG8_STAGES


@pytest.fixture(scope="module")
def tiny_settings():
    return ExperimentSettings(
        scale=0.04,
        suites=("ismartdnn", "skynet"),
        identification="oracle",
        gcn_epochs=5,
    )


class TestRunSuiteTool:
    @pytest.mark.parametrize("tool", ["vivado", "amf", "dsplacer"])
    def test_tools_produce_legal(self, tiny_settings, tool):
        placement, seconds = run_suite_tool(tiny_settings, "ismartdnn", tool)
        assert placement.is_legal()
        assert seconds > 0

    def test_runtime_excludes_identifier_construction(self, tiny_settings, monkeypatch):
        """Training the GCN identifier on first use is not placement time."""
        delay = 0.5

        def slow_identifier(settings, suite):
            time.sleep(delay)
            return DatapathIdentifier(method="oracle", seed=settings.seed)

        monkeypatch.setattr(experiments, "_identifier_for", slow_identifier)
        t0 = time.perf_counter()
        _, seconds = run_suite_tool(tiny_settings, "ismartdnn", "dsplacer")
        assert time.perf_counter() - t0 - seconds >= delay

    def test_unknown_tool(self, tiny_settings):
        with pytest.raises(ValueError):
            run_suite_tool(tiny_settings, "ismartdnn", "quartus")


class TestTable2Runner:
    def test_rows_and_normalization(self, tiny_settings):
        result = run_table2(tiny_settings)
        assert len(result.rows) == len(tiny_settings.suites) * 3
        norm = result.normalize()
        assert norm["dsplacer"]["wns"] == pytest.approx(1.0)
        assert norm["dsplacer"]["hpwl"] == pytest.approx(1.0)
        for tool in ("vivado", "amf"):
            assert norm[tool]["wns"] > 0
        # protocol: vivado is negative at the eval clock
        for r in result.tool_rows("vivado"):
            assert r.wns_ns < 0

    def test_cached_across_calls(self, tiny_settings):
        r1 = run_table2(tiny_settings)
        r2 = run_table2(tiny_settings)
        assert r1 is r2


class TestFig7Runner:
    def test_leave_one_out_tiny(self):
        settings = ExperimentSettings(
            scale=0.05, suites=("ismartdnn", "skynet", "skrskr1"), gcn_epochs=8
        )
        from repro.eval.experiments import run_fig7

        res = run_fig7(settings)
        assert set(res.gcn_accuracy) == set(res.svm_accuracy)
        assert len(res.gcn_accuracy) == 3
        for name in res.gcn_accuracy:
            assert 0.0 <= res.gcn_accuracy[name] <= 1.0
            assert len(res.test_curves[name]) == 8
        # trained identifiers are reusable
        ident = res.identifiers[list(res.identifiers)[0]]
        assert ident.method == "gcn"


class TestFigRunners:
    def test_fig8_breakdowns(self, tiny_settings):
        (rb,) = run_fig8(tiny_settings, suites=("ismartdnn",))
        assert set(rb.seconds) == {*FIG8_STAGES, "unattributed", "routing"}
        assert rb.seconds["unattributed"] >= 0
        assert rb.seconds["prototype"] > 0 and rb.seconds["routing"] > 0

    def test_fig9_svgs(self, tiny_settings, tmp_path):
        res = run_fig9(tiny_settings, suite="skynet", out_dir=str(tmp_path))
        assert set(res.metrics) == {"vivado", "amf", "dsplacer"}
        for path in res.svg_paths.values():
            assert (tmp_path / path.split("/")[-1]).exists()
