"""CLI smoke tests."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import SCHEMA_VERSION, RunReport, validate_report
from repro.placers.vivado_like import VivadoLikePlacer


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_place_defaults(self):
        args = build_parser().parse_args(["place"])
        assert args.tool == "dsplacer"
        assert args.scale == 0.1

    def test_bad_suite_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "--suite", "resnet"])


class TestCommands:
    def test_generate_writes_json(self, tmp_path, capsys):
        out = tmp_path / "n.json"
        rc = main(["generate", "--suite", "ismartdnn", "--scale", "0.02", "-o", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["name"] == "iSmartDNN@0.02"
        assert len(doc["cells"]) > 100

    def test_place_vivado(self, capsys):
        rc = main(["place", "--suite", "ismartdnn", "--scale", "0.02", "--tool", "vivado"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "legal=True" in out
        assert "fmax=" in out

    def test_place_dsplacer_with_svg(self, tmp_path, capsys):
        svg = tmp_path / "x.svg"
        rc = main(
            [
                "place",
                "--suite",
                "ismartdnn",
                "--scale",
                "0.02",
                "--tool",
                "dsplacer",
                "--svg",
                str(svg),
            ]
        )
        assert rc == 0
        assert svg.exists()
        assert "legal=True" in capsys.readouterr().out

    def test_report_prints_paths(self, capsys):
        rc = main(["report", "--suite", "ismartdnn", "--scale", "0.02", "--paths", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "path 1" in out

    def test_experiment_table1_hint(self, capsys):
        rc = main(["experiment", "table2"])
        assert rc == 1  # points at the benchmark harness


PLACE_SMALL = ["place", "--suite", "ismartdnn", "--scale", "0.02", "--tool", "dsplacer"]


class TestObservabilityOutput:
    def test_json_emits_valid_runreport_on_stdout(self, capsys):
        rc = main(PLACE_SMALL + ["--json"])
        assert rc == 0
        out, err = capsys.readouterr()
        doc = json.loads(out)  # stdout is pure JSON
        assert validate_report(doc) == []
        assert doc["meta"]["tool"] == "dsplacer"
        rep = RunReport.from_dict(doc)
        assert {"run", "place", "route", "sta.analyze"} <= rep.span_names()
        assert len(rep.metric_names()) >= 10
        # the human summary moved to stderr
        assert "legal=True" in err

    def test_quiet_silences_health_summary(self, capsys):
        rc = main(PLACE_SMALL + ["--json", "--quiet"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert validate_report(json.loads(out)) == []
        assert err.strip() == ""

    def test_trace_prints_span_tree(self, capsys):
        rc = main(PLACE_SMALL + ["--trace", "--quiet"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "run" in err and "place" in err and "wall" in err
        assert "legal=True" in out  # summary stays on stdout without --json

    def test_without_flags_no_report_and_no_overheads(self, capsys):
        rc = main(PLACE_SMALL)
        assert rc == 0
        out, _ = capsys.readouterr()
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)  # plain text, not a report


class TestConfigFile:
    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "outer_iterations": 1}))
        rc = main(PLACE_SMALL + ["--json", "--quiet", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["config"]["seed"] == 9
        assert doc["meta"]["config"]["outer_iterations"] == 1

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # "turbo" never existed; the rest are retired knobs, which must not
        # be accepted and silently ignored
        for key, value in [
            ("turbo", True),
            ("assignment_engine", "lsa"),
            ("candidate_k", 48),
            ("iddfs_max_depth", 6),
        ]:
            cfg.write_text(json.dumps({key: value}))
            rc = main(PLACE_SMALL + ["--config", str(cfg)])
            assert rc == 2, key
            err = capsys.readouterr().err
            assert "ConfigurationError: unknown DSPlacer config key" in err, key
            assert repr(key) in err, key

    def test_non_finite_knob_exits_2_before_placing(self, tmp_path, capsys, monkeypatch):
        """``json`` reads NaN and Infinity; the config refuses them, and an
        outer-iteration count below 1, before the prototype placement runs."""

        def _unreachable(*args, **kwargs):
            raise AssertionError("the prototype ran on a bad config")

        monkeypatch.setattr(VivadoLikePlacer, "place", _unreachable)
        cfg = tmp_path / "cfg.json"
        for key, value, message in [
            ("lam", float("nan"), "lam must be finite"),
            ("eta", float("inf"), "eta must be finite"),
            ("outer_iterations", 0, "outer_iterations must be an integer >= 1"),
            ("stage_budget_s", float("nan"), "stage_budget_s must be None or a finite"),
        ]:
            cfg.write_text(json.dumps({key: value}))
            rc = main(PLACE_SMALL + ["--config", str(cfg)])
            assert rc == 2, key
            assert f"ConfigurationError: {message}" in capsys.readouterr().err

    def test_unknown_assignment_engine_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for knob, value in [
            ("identification", "banana"),
            ("base_placer", "banana"),
            ("skew_model", "banana"),
        ]:
            cfg.write_text(json.dumps({knob: value}))
            rc = main(PLACE_SMALL + ["--config", str(cfg)])
            assert rc == 2, knob
            assert f"ConfigurationError: unknown {knob}" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        rc = main(PLACE_SMALL + ["--config", "/nonexistent/cfg.json"])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


SERVE_SMALL = [
    "serve", "submit", "--suite", "ismartdnn", "--scale", "0.02", "--workers", "2",
]


class TestServeSubcommand:
    def test_submit_runs_and_reports(self, tmp_path, capsys):
        report_dir = tmp_path / "reports"
        rc = main(SERVE_SMALL + ["--report-dir", str(report_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "job-0001" in out and "status=ok" in out and "cache=miss" in out
        reports = list(report_dir.glob("*.json"))
        assert len(reports) == 1
        doc = json.loads(reports[0].read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert validate_report(doc) == []
        assert doc["job"]["id"] == "job-0001"

    def test_duplicate_suite_hits_cache(self, capsys):
        rc = main(SERVE_SMALL + ["--suite", "ismartdnn", "--json", "--quiet"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        caches = [j["cache"] for j in doc["jobs"]]
        assert sorted(caches) == ["hit", "miss"]
        assert all(j["status"] == "ok" for j in doc["jobs"])

    def test_place_and_serve_share_request_flags(self):
        place_args = build_parser().parse_args(
            ["place", "--race-k", "3", "--race-policy", "first", "--no-cache"]
        )
        serve_args = build_parser().parse_args(
            ["serve", "submit", "--race-k", "3", "--race-policy", "first", "--no-cache"]
        )
        from repro.placers.api import PlacementRequest

        place_req = PlacementRequest.from_args(place_args)
        serve_args.suite = serve_args.suite or ["skynet"]
        serve_args.suite = serve_args.suite[0]
        serve_req = PlacementRequest.from_args(serve_args)
        assert place_req == serve_req
        assert place_req.race_k == 3 and not place_req.use_cache

    def test_serve_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestPlaceRacing:
    def test_place_race_k_uses_the_pool(self, capsys):
        rc = main(PLACE_SMALL + ["--race-k", "2", "--json", "--quiet"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_report(doc) == []
        assert doc["job"]["race"]["k"] == 2
        assert doc["quality"]["legal"] is True


class TestBenchSubcommand:
    """The wall-time gate behind ``bench`` is gone; perfbench is the benchmark."""

    def test_bench_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--", "--help"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: repro")
        assert "invalid choice: 'bench'" in err


class TestFlatFlagShim:
    """The one-release shim that rewrote bare flags to ``place`` is gone."""

    def test_flat_flags_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "ismartdnn", "--scale", "0.02", "--tool", "vivado"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: repro")

    def test_subcommand_form_emits_no_warning(self, capsys):
        rc = main(["place", "--suite", "ismartdnn", "--scale", "0.02", "--tool", "vivado"])
        assert rc == 0
        assert "deprecated" not in capsys.readouterr().err
