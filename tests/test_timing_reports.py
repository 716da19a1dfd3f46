"""Timing report utilities."""

import pytest

from repro.placers import VivadoLikePlacer
from repro.timing import (
    StaticTimingAnalyzer,
    format_timing_report,
    top_critical_paths,
)


@pytest.fixture(scope="module")
def analyzed(mini_accel, small_dev):
    p = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
    rep = StaticTimingAnalyzer(mini_accel).analyze(p, period_ns=6.0)
    return rep, mini_accel


class TestTopCriticalPaths:
    def test_worst_first(self, analyzed):
        rep, nl = analyzed
        paths = top_critical_paths(rep, nl, k=5)
        slacks = [p.slack_ns for p in paths]
        assert slacks == sorted(slacks)
        assert slacks[0] == pytest.approx(rep.wns_ns)

    def test_path_matches_critical_path(self, analyzed):
        rep, nl = analyzed
        paths = top_critical_paths(rep, nl, k=1)
        assert list(paths[0].cells) == rep.critical_path

    def test_k_clamped(self, analyzed):
        rep, nl = analyzed
        paths = top_critical_paths(rep, nl, k=10**9)
        assert len(paths) == rep.n_endpoints

    def test_names_match_cells(self, analyzed):
        rep, nl = analyzed
        entry = top_critical_paths(rep, nl, k=1)[0]
        assert entry.names == tuple(nl.cells[i].name for i in entry.cells)

    def test_paths_start_sequential(self, analyzed):
        rep, nl = analyzed
        from repro.timing.delay_model import SEQUENTIAL_KINDS

        for entry in top_critical_paths(rep, nl, k=8):
            assert nl.cells[entry.cells[0]].ctype in SEQUENTIAL_KINDS
            assert nl.cells[entry.cells[-1]].ctype in SEQUENTIAL_KINDS
            # interior is combinational
            for i in entry.cells[1:-1]:
                assert nl.cells[i].ctype not in SEQUENTIAL_KINDS


class TestFormat:
    def test_contains_headline_numbers(self, analyzed):
        rep, nl = analyzed
        text = format_timing_report(rep, nl, k_paths=2)
        assert f"{rep.wns_ns:+.3f}" in text
        assert "path 1" in text and "path 2" in text
