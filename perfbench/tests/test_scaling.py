"""Host-speed scaling of an operation's times."""

from __future__ import annotations

import os

import pytest

import flow


def _speed(samples):
    speed = object.__new__(flow.HostSpeed)
    speed.samples = sorted(samples)
    return speed


NOM = flow.NOMINAL_SAMPLE_S


def test_factor_is_nominal_over_the_mean_sample_inside_the_interval():
    speed = _speed([(1.0, 4 * NOM), (2.0, 2 * NOM), (3.0, 3 * NOM), (9.0, 100 * NOM)])
    assert speed.factor(0.5, 3.5) == pytest.approx(1 / 3)


def test_factor_drops_samples_that_timed_a_wait_for_the_cpu():
    speed = _speed([(1.0, 2 * NOM), (2.0, 2 * NOM), (3.0, 2 * NOM), (4.0, 9 * NOM)])
    assert speed.factor(0.0, 5.0) == pytest.approx(0.5)


def test_an_interval_without_samples_takes_the_nearest():
    speed = _speed([(1.0, 2 * NOM), (5.0, 4 * NOM)])
    assert speed.factor(4.0, 4.5) == pytest.approx(0.25)


def test_scale_multiplies_each_time_by_its_own_interval():
    speed = _speed([(1.0, 2 * NOM), (3.0, 4 * NOM)])
    result = {
        "setup_s": 1.0,
        "place_s": [2.0],
        "flow_s": [3.0],
        "job_s": [5.0],
        "makespan_s": 5.0,
        "peak_rss_mb": 100.0,
        "intervals": {"setup": (0, 2), "place": (2, 4), "flow": (2, 4), "job": (0, 4)},
    }
    out = speed.scale(result)
    assert out["setup_s"] == pytest.approx(0.5)
    assert out["place_s"] == pytest.approx([0.5])
    assert out["flow_s"] == pytest.approx([0.75])
    assert out["job_s"] == pytest.approx([5.0 / 3])
    assert out["makespan_s"] == pytest.approx(5.0 / 3)
    assert out["host_scale"] == pytest.approx(1 / 3)
    assert out["peak_rss_mb"] == 100.0
    assert out["unscaled"] == {
        "setup_s": 1.0,
        "place_s": [2.0],
        "flow_s": [3.0],
        "job_s": [5.0],
        "makespan_s": 5.0,
    }


def test_samplers_start_and_stop():
    speed = flow.HostSpeed([min(os.sched_getaffinity(0))])
    speed.close()
    assert speed.samples
    assert all(p.returncode == 0 for p in speed.procs)
