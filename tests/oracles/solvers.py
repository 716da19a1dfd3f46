"""Assignment oracle: a dense O(n³) Hungarian solver in pure Python."""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SolverInputError


def hungarian(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the rectangular assignment problem.

    Args:
        cost: ``(n_rows, n_cols)`` cost matrix with ``n_rows <= n_cols``.

    Returns:
        ``(col_of_row, total_cost)`` where ``col_of_row[i]`` is the column
        assigned to row ``i``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n > m:
        raise SolverInputError("hungarian() requires n_rows <= n_cols")
    INF = math.inf
    # 1-based potentials over rows (u) and columns (v); p[j] = row matched to col j
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [INF] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = INF
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    col_of_row = np.full(n, -1, dtype=np.int64)
    for j in range(1, m + 1):
        if p[j]:
            col_of_row[p[j] - 1] = j - 1
    total = float(sum(cost[i, col_of_row[i]] for i in range(n)))
    return col_of_row, total
