"""RunReport schema: validation, round-trip, and the full observed flow."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.core import DSPlacer
from repro.errors import ReportSchemaError
from repro.obs import (
    REPORT_KIND,
    SCHEMA_VERSION,
    RunReport,
    aggregate_spans,
    render_trace,
    validate_report,
)
from repro.obs.report import _main as validate_cli


def _sample_doc() -> dict:
    return {
        "kind": REPORT_KIND,
        "schema_version": SCHEMA_VERSION,
        "meta": {"tool": "dsplacer"},
        "spans": [
            {
                "name": "place",
                "wall_s": 1.5,
                "cpu_s": 1.0,
                "attrs": {"ok": True},
                "counters": {"n": 2},
                "children": [
                    {"name": "place.extraction", "wall_s": 0.5, "cpu_s": 0.4, "children": []}
                ],
            }
        ],
        "metrics": {
            "counters": {"mcf.solves": 3},
            "gauges": {"placement.hpwl_um": 100.0},
            "histograms": {
                "assignment.objective": {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0}
            },
        },
        "health": {"degraded": False, "events": []},
        "quality": {"legal": True},
    }


def _job_section() -> dict:
    return {
        "id": "job-0001",
        "submitted_unix": 100.0,
        "started_unix": 100.5,
        "finished_unix": 103.0,
        "cache": "miss",
        "race": {
            "k": 2,
            "policy": "best",
            "winner_seed": 1,
            "attempts": [
                {"seed": 0, "status": "ok", "hpwl_um": 10.0},
                {"seed": 1, "status": "ok", "hpwl_um": 9.0},
            ],
            "cancelled": 0,
        },
    }


def _clock_section() -> dict:
    return {
        "model": "htree",
        "htree": {"depth": 2, "n_taps": 16, "total_wire_um": 4000.0},
        "n_sinks": 128,
        "worst_skew_ns": 0.093,
        "mean_abs_skew_ns": 0.041,
    }


class TestValidation:
    def test_valid_document(self):
        assert validate_report(_sample_doc()) == []

    def test_not_a_dict(self):
        assert validate_report([1, 2]) != []

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(kind="wrong.kind"),
            lambda d: d.update(schema_version="1"),
            lambda d: d.update(schema_version=SCHEMA_VERSION + 1),
            lambda d: d["spans"][0].pop("name"),
            lambda d: d["spans"][0].update(wall_s=-1.0),
            lambda d: d["spans"][0].update(counters={"n": "two"}),
            lambda d: d["metrics"].update(gauges={"g": "high"}),
            lambda d: d["metrics"]["histograms"].update(bad={"count": 1}),
            lambda d: d["health"].update(degraded="no"),
            lambda d: d["health"].update(events=[{"stage": "s"}]),
        ],
    )
    def test_broken_documents_rejected(self, mutate):
        doc = _sample_doc()
        mutate(doc)
        assert validate_report(doc) != []

    def test_from_dict_strict_raises(self):
        doc = _sample_doc()
        doc["kind"] = "nope"
        with pytest.raises(ReportSchemaError):
            RunReport.from_dict(doc)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(job=[]),
            lambda d: d["job"].pop("id"),
            lambda d: d["job"].update(id=""),
            lambda d: d["job"].update(cache="warm"),
            lambda d: d["job"].update(submitted_unix="now"),
            lambda d: d["job"].update(race={"k": 0, "policy": "best"}),
            lambda d: d["job"].update(race={"k": 2, "policy": "best", "cancelled": -1}),
            lambda d: d["job"].update(
                race={"k": 2, "policy": "best", "attempts": [{"seed": 1}]}
            ),
        ],
    )
    def test_broken_job_sections_rejected(self, mutate):
        doc = _sample_doc()
        doc["job"] = _job_section()
        mutate(doc)
        assert validate_report(doc) != []

    def test_valid_job_section(self):
        doc = _sample_doc()
        doc["job"] = _job_section()
        assert validate_report(doc) == []

    def test_job_section_requires_v2(self):
        doc = _sample_doc()
        doc["schema_version"] = 1
        doc["job"] = _job_section()
        problems = validate_report(doc)
        assert any("schema_version >= 2" in p for p in problems)

    def test_valid_clock_section(self):
        doc = _sample_doc()
        doc["clock"] = _clock_section()
        assert validate_report(doc) == []

    def test_clock_section_requires_v3(self):
        doc = _sample_doc()
        doc["schema_version"] = 2
        doc["clock"] = _clock_section()
        problems = validate_report(doc)
        assert any("schema_version >= 3" in p for p in problems)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(clock=[]),
            lambda d: d["clock"].pop("model"),
            lambda d: d["clock"].update(model=""),
            lambda d: d["clock"].update(n_sinks=-1),
            lambda d: d["clock"].update(n_sinks=2.5),
            lambda d: d["clock"].update(worst_skew_ns="big"),
            lambda d: d["clock"].update(mean_abs_skew_ns=True),
            lambda d: d["clock"].update(htree="deep"),
        ],
    )
    def test_broken_clock_sections_rejected(self, mutate):
        doc = _sample_doc()
        doc["clock"] = _clock_section()
        mutate(doc)
        assert validate_report(doc) != []

    def test_clock_section_config_only_is_valid(self):
        doc = _sample_doc()
        doc["clock"] = {"model": "region", "skew_per_region_ns": 0.03}
        assert validate_report(doc) == []

    def test_v1_documents_stay_valid(self):
        doc = _sample_doc()
        doc["schema_version"] = 1
        assert validate_report(doc) == []

    def test_cli_validator(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_sample_doc()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        assert validate_cli([str(good)]) == 0
        assert validate_cli([str(good), str(bad)]) == 1

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        """``python -m repro.obs FILE...``, as CI runs it, with runpy's
        RuntimeWarnings turned into errors."""
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_sample_doc()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}

        def run(*paths):
            cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.obs", *paths]
            return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

        ok = run(str(good))
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.strip() == f"{good}: ok (schema v{SCHEMA_VERSION})"
        assert ok.stderr == ""
        invalid = run(str(good), str(bad))
        assert invalid.returncode == 1, invalid.stderr
        assert f"{bad}: INVALID" in invalid.stdout


class TestRoundTrip:
    def test_to_dict_from_dict(self):
        rep = RunReport.from_dict(_sample_doc())
        again = RunReport.from_dict(rep.to_dict())
        assert again.to_dict() == rep.to_dict()
        assert again.span_names() == {"place", "place.extraction"}
        assert "mcf.solves" in again.metric_names()

    def test_job_section_round_trips(self):
        doc = _sample_doc()
        doc["job"] = _job_section()
        rep = RunReport.from_dict(doc)
        assert rep.job["id"] == "job-0001"
        assert rep.to_dict()["job"]["race"]["winner_seed"] == 1
        # a job-less report omits the key entirely
        assert "job" not in RunReport.from_dict(_sample_doc()).to_dict()

    def test_clock_section_round_trips(self):
        doc = _sample_doc()
        doc["clock"] = _clock_section()
        rep = RunReport.from_dict(doc)
        assert rep.clock["model"] == "htree"
        assert rep.to_dict()["clock"]["htree"]["depth"] == 2
        # a clock-less report omits the key entirely
        assert "clock" not in RunReport.from_dict(_sample_doc()).to_dict()

    def test_stage_seconds_and_aggregate(self):
        rep = RunReport.from_dict(_sample_doc())
        agg = aggregate_spans(rep.spans)
        assert agg["place"]["count"] == 1
        assert rep.stage_seconds()["place.extraction"] == pytest.approx(0.5)

    def test_render_trace_mentions_every_span(self):
        rep = RunReport.from_dict(_sample_doc())
        text = render_trace(rep.spans)
        assert "place" in text and "place.extraction" in text


class TestObservedFlow:
    """End-to-end: the full DSPlacer flow emits a schema-valid report."""

    def test_dsplacer_run_report(self, small_dev, mini_accel):
        with obs.observe():
            result = DSPlacer(small_dev).place(mini_accel)
        rep = result.report
        assert rep is not None
        names = rep.span_names()
        # every flow stage is covered, down to per-iteration spans
        for required in (
            "place",
            "place.prototype",
            "place.extraction",
            "extraction.identify",
            "extraction.iddfs",
            "place.outer",
            "place.assignment",
            "assignment.iterate",
            "place.legalization",
            "place.incremental",
            "place.validation",
        ):
            assert required in names, required
        assert len(rep.metric_names()) >= 10
        assert validate_report(rep.to_dict()) == []
        assert rep.quality["legal"] is True
        # the report survives a JSON round-trip
        again = RunReport.from_dict(json.loads(rep.to_json()))
        assert again.span_names() == names

    def test_skewed_run_attaches_clock_section(self, mini_accel):
        from repro.core import DSPlacerConfig
        from repro.fpga import slot_fabric

        dev = slot_fabric(0.05)
        cfg = DSPlacerConfig(skew_model="htree", outer_iterations=1)
        with obs.observe():
            result = DSPlacer(dev, cfg).place(mini_accel)
        rep = result.report
        assert rep is not None and rep.clock is not None
        assert rep.clock["model"] == "htree"
        assert rep.clock["n_sinks"] > 0
        assert validate_report(rep.to_dict()) == []
        # the default configuration keeps reports clock-less
        with obs.observe():
            plain = DSPlacer(dev).place(mini_accel)
        assert plain.report.clock is None

    def test_unobserved_run_attaches_no_report(self, small_dev, mini_accel):
        assert DSPlacer(small_dev).place(mini_accel).report is None

    def test_one_dsp_graph_span_per_place(self, small_dev, mini_accel):
        """``build_dsp_graph`` opens the only ``extraction.dsp_graph`` span:
        a second one around it would count the stage twice in
        ``aggregate_spans`` and ``RunReport.stage_seconds``."""
        with obs.observe():
            result = DSPlacer(small_dev).place(mini_accel)
        agg = aggregate_spans(result.report.spans)
        assert agg["place"]["count"] == 1
        assert agg["extraction.dsp_graph"]["count"] == 1
