"""The Hungarian oracle vs scipy's linear_sum_assignment."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from tests.oracles import hungarian


class TestHungarian:
    def test_identity(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        cols, total = hungarian(cost)
        assert list(cols) == [0, 1]
        assert total == 2.0

    def test_rectangular(self):
        cost = np.array([[5.0, 1.0, 3.0]])
        cols, total = hungarian(cost)
        assert cols[0] == 1
        assert total == 1.0

    def test_rows_exceed_cols_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.zeros((3, 2)))

    def test_negative_costs(self):
        cost = np.array([[-5.0, 0.0], [0.0, -5.0]])
        _, total = hungarian(cost)
        assert total == -10.0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_hungarian_matches_scipy(data):
    n = data.draw(st.integers(1, 7))
    m = data.draw(st.integers(n, 8))
    cost = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(-50, 50, allow_nan=False), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )
    cols, total = hungarian(cost)
    r, c = linear_sum_assignment(cost)
    assert total == pytest.approx(float(cost[r, c].sum()), abs=1e-6)
    assert len(set(cols.tolist())) == n
