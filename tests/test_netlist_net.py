"""Unit tests for repro.netlist.net."""

import math

import pytest

from repro.netlist.net import Net


class TestNet:
    def test_basic(self):
        n = Net(index=0, name="n0", driver=1, sinks=(2, 3))
        assert n.degree == 3
        assert n.cells == (1, 2, 3)

    def test_no_sinks_rejected(self):
        with pytest.raises(ValueError, match="no sinks"):
            Net(index=0, name="n0", driver=1, sinks=())

    def test_self_drive_rejected(self):
        with pytest.raises(ValueError, match="drives itself"):
            Net(index=0, name="n0", driver=1, sinks=(1,))

    def test_duplicate_sinks_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Net(index=0, name="n0", driver=1, sinks=(2, 2))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            Net(index=0, name="n0", driver=1, sinks=(2,), weight=0.0)

    def test_default_weight(self):
        assert Net(index=0, name="n0", driver=0, sinks=(1,)).weight == 1.0


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_weight_rejected(weight):
    with pytest.raises(ValueError, match="finite and positive"):
        Net(index=0, name="n0", driver=1, sinks=(2,), weight=weight)
