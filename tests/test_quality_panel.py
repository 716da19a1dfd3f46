"""``benchmarks/quality_panel.py --compare``: per-case equality and deltas
of two panel runs, exit status 1 on any difference."""

import json
import subprocess
import sys
from pathlib import Path

PANEL = Path(__file__).resolve().parent.parent / "benchmarks" / "quality_panel.py"

ROW = {
    "netlist_sha256": "ff", "site_sha256": "aa", "xy_sha256": "bb", "hpwl_um": 1.5, "legal": True,
    "fmax_mhz": 250.0, "wns_ns": 0.1, "tns_ns": 0.0, "slack_sha256": "dd",
}


def _write(path: Path, rows: dict[str, dict]) -> str:
    path.write_text("".join(json.dumps({"case": c, **r}) + "\n" for c, r in rows.items()))
    return str(path)


def _compare(tmp_path, a: dict, b: dict) -> subprocess.CompletedProcess:
    args = [_write(tmp_path / "a.jsonl", a), _write(tmp_path / "b.jsonl", b)]
    return subprocess.run(
        [sys.executable, str(PANEL), "--compare", *args],
        capture_output=True, text=True, check=False,
    )


def test_identical_runs_compare_equal(tmp_path):
    rows = {"x@0.05/seed0": ROW, "y@0.05/seed1": ROW}
    out = _compare(tmp_path, rows, rows)
    assert out.returncode == 0, out.stdout
    assert "2 of 2 cases equal" in out.stdout


def test_any_field_difference_fails(tmp_path):
    for field, value in (
        ("netlist_sha256", "fe"), ("xy_sha256", "cc"), ("hpwl_um", 1.25), ("legal", False),
        ("fmax_mhz", 249.5), ("wns_ns", -0.1), ("tns_ns", -0.1), ("slack_sha256", "ee"),
    ):
        out = _compare(tmp_path, {"x": ROW}, {"x": {**ROW, field: value}})
        assert out.returncode == 1
        assert f"x: DIFFERENT ({field})" in out.stdout


def test_missing_case_fails(tmp_path):
    out = _compare(tmp_path, {"x": ROW, "y": ROW}, {"x": ROW})
    assert out.returncode == 1
    assert "y: missing from" in out.stdout
    assert "1 of 2 cases equal" in out.stdout


def test_deltas_printed(tmp_path):
    """A case that differs prints its HPWL and fmax change and its change in
    passes and ``degraded``; the last line summarises every case, with each
    run's degraded count, rollback total and geomean fmax."""
    path = {
        "passes": 2, "dsps_moved": [3, 1], "outer_hpwl_um": [1.25, 1.5],
        "degraded": True, "rollbacks": 1,
    }
    before = {"x": {**ROW, **path}, "y": {**ROW, **path}}
    after = {
        "x": {**ROW, **path},
        "y": {
            **ROW, "site_sha256": "ab", "hpwl_um": 1.515, "fmax_mhz": 245.0,
            "passes": 1, "dsps_moved": [3, 0], "outer_hpwl_um": [1.25, 1.515],
            "degraded": False, "rollbacks": 0,
        },
    }
    same = _compare(tmp_path, before, before)
    assert same.returncode == 0, same.stdout
    assert "x: equal\ny: equal\n2 of 2 cases equal\n" in same.stdout
    assert same.stdout.endswith(
        "HPWL change over 2 cases: median +0.0000%, mean +0.0000%; "
        "fmax moved on 0; degraded 2 → 2; rollbacks 2 → 2; geomean fmax 250.00 → 250.00 MHz\n"
    )
    out = _compare(tmp_path, before, after)
    assert out.returncode == 1, out.stdout
    assert "x: equal\n" in out.stdout
    assert (
        "y: DIFFERENT (site_sha256, hpwl_um, fmax_mhz); HPWL +1.0000%, fmax -2.0000%; "
        "passes 2 → 1, degraded True → False\n"
    ) in out.stdout
    assert "1 of 2 cases equal\n" in out.stdout
    assert out.stdout.endswith(
        "HPWL change over 2 cases: median +0.5000%, mean +0.5000%; "
        "fmax moved on 1; degraded 2 → 1; rollbacks 2 → 1; geomean fmax 250.00 → 247.49 MHz\n"
    )
