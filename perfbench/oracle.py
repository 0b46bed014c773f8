"""Reference answers that never call wlpcert.

- Covering programs min sum(x), A x >= b, x in {0,1}^n: enumeration of
  all 2^n vectors in fixed-size chunks for n <= 20, scipy's HiGHS MILP
  above that.
- Maximum independent set: the closed form floor(n/2) on cycles,
  chunked enumeration of vertex subsets for n <= 20, and the MILP on
  the edge formulation above that.

Chunking keeps memory at CHUNK * max(n, m) entries whatever n is.
"""

from __future__ import annotations

import math

import numpy as np

ENUM_LIMIT = 20
CHUNK = 1 << 14
FEAS_TOL = 1e-9


def _bit_rows(start: int, stop: int, n: int) -> np.ndarray:
    codes = np.arange(start, stop, dtype=np.int64)
    return ((codes[:, None] >> np.arange(n)) & 1).astype(np.int8)


def min_cover(A, b) -> float:
    """Minimum of sum(x) over binary x with A x >= b; inf if none."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    if n > ENUM_LIMIT:
        return _min_cover_milp(A, b)
    best = math.inf
    for start in range(0, 1 << n, CHUNK):
        X = _bit_rows(start, min(start + CHUNK, 1 << n), n)
        feasible = np.all(X @ A.T >= b - FEAS_TOL, axis=1)
        if feasible.any():
            best = min(best, int(X[feasible].sum(axis=1).min()))
    return best


def _min_cover_milp(A, b) -> float:
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = A.shape[1]
    res = milp(
        c=np.ones(n),
        constraints=LinearConstraint(A, lb=b, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if res.status == 2:
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"MILP oracle ended with status {res.status}")
    x = np.rint(res.x)
    if np.any(A @ x < b - FEAS_TOL):
        raise RuntimeError("MILP oracle returned an infeasible point")
    return int(x.sum())


def is_independent(members, edges) -> bool:
    chosen = set(members)
    return all(not (u in chosen and v in chosen) for u, v in edges)


def max_independent_set(vertex_count: int, edges, is_cycle: bool = False) -> int:
    """Size of a maximum independent set (vertices numbered from 1)."""
    if is_cycle:
        return vertex_count // 2
    if vertex_count > ENUM_LIMIT:
        return _mis_milp(vertex_count, edges)
    u = np.array([e[0] - 1 for e in edges])
    v = np.array([e[1] - 1 for e in edges])
    best = 0
    total = 1 << vertex_count
    for start in range(0, total, CHUNK):
        X = _bit_rows(start, min(start + CHUNK, total), vertex_count)
        independent = ~np.any(X[:, u] & X[:, v], axis=1)
        best = max(best, int(X[independent].sum(axis=1).max(initial=0)))
    return best


def _mis_milp(vertex_count: int, edges) -> int:
    A = np.zeros((len(edges), vertex_count))
    for row, (u, v) in enumerate(edges):
        A[row, u - 1] = A[row, v - 1] = 1.0
    # A maximum independent set is the complement of a minimum vertex cover.
    return vertex_count - _min_cover_milp(A, np.ones(len(edges)))
