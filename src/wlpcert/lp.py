"""Dense linear-programming core.

Two-phase primal simplex with Bland's rule (lowest-index tie-breaking,
deterministic) and optimal-face probing for uniqueness analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

COST_TOL = 1e-9
PIVOT_TOL = 1e-9
# Phase 1 declares the problem infeasible above this artificial sum.
PHASE1_TOL = 1e-7
UNIQUE_TOL = 1e-7
INF = math.inf


class LpError(RuntimeError):
    """A probe or subproblem solve failed unexpectedly."""


class Status(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective @ x  s.t.  eq_matrix x = eq_rhs, ineq_matrix x <= ineq_rhs,
    0 <= x <= upper (+inf allowed)."""

    objective: np.ndarray
    eq_matrix: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    upper: np.ndarray | None = None  # default +inf

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        n = c.size
        eqM, eqr = _as_rows(self.eq_matrix, self.eq_rhs, n, "eq")
        inM, inr = _as_rows(self.ineq_matrix, self.ineq_rhs, n, "ineq")
        up = (
            np.full(n, INF)
            if self.upper is None
            else np.asarray(self.upper, dtype=float).reshape(-1)
        )
        if up.size != n:
            raise ValueError("bound vector must match variable count")
        if np.any(up < 0):
            raise ValueError("negative upper bound")
        if np.isnan(c).any() or np.isnan(up).any():
            raise ValueError("NaN in problem data")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", eqM)
        object.__setattr__(self, "eq_rhs", eqr)
        object.__setattr__(self, "ineq_matrix", inM)
        object.__setattr__(self, "ineq_rhs", inr)
        object.__setattr__(self, "upper", up)

    @property
    def nvars(self) -> int:
        return self.objective.size


def _as_rows(M, r, n, kind):
    if M is None:
        return np.zeros((0, n)), np.zeros(0)
    M = np.asarray(M, dtype=float).reshape(-1, n)
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != M.shape[0]:
        raise ValueError(f"{kind} rhs length mismatch")
    if np.isnan(M).any() or np.isnan(r).any():
        raise ValueError(f"NaN in {kind} constraints")
    return M, r


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: Status
    x: np.ndarray | None
    value: float | None
    basis: tuple
    residual: float
    iterations: int = 0


def _standardize(lp: LinearProgram):
    """Rewrite as min c z, A z = b, z >= 0, where z is x followed by one
    slack per inequality row and per finite upper bound."""
    finite = np.isfinite(lp.upper)
    ubM = np.vstack([lp.ineq_matrix, np.eye(lp.nvars)[finite]])
    ubr = np.concatenate([lp.ineq_rhs, lp.upper[finite]])
    n_ub = ubM.shape[0]
    A = np.vstack(
        [
            np.hstack([lp.eq_matrix, np.zeros((lp.eq_matrix.shape[0], n_ub))]),
            np.hstack([ubM, np.eye(n_ub)]),
        ]
    )
    b = np.concatenate([lp.eq_rhs, ubr])
    neg = b < 0
    A[neg] *= -1
    b[neg] *= -1
    c = np.concatenate([lp.objective, np.zeros(n_ub)])
    return A, b, c


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 1e-13:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _iterate(T, basis, cost, max_iters):
    """Bland's rule loop on a tableau whose basic columns are identified."""
    used = 0
    ncols = T.shape[1] - 1
    while used < max_iters:
        reduced = cost - cost[basis] @ T[:, :ncols]
        basic = set(basis)
        entering = -1
        for j in range(ncols):
            if j not in basic and reduced[j] < -COST_TOL:
                entering = j
                break
        if entering < 0:
            return Status.OPTIMAL, used
        col = T[:, entering]
        best_ratio = None
        leave = -1
        for i in range(T.shape[0]):
            if col[i] > PIVOT_TOL:
                ratio = T[i, -1] / col[i]
                if (
                    best_ratio is None
                    or ratio < best_ratio - PIVOT_TOL
                    or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return Status.UNBOUNDED, used
        _pivot(T, basis, leave, entering)
        used += 1
    return Status.ITERATION_LIMIT, used


def solve(lp: LinearProgram, max_iters: int | None = None) -> LpSolution:
    """Two-phase simplex; deterministic for fixed input."""
    A, b, c = _standardize(lp)
    m, N = A.shape
    if max_iters is None:
        max_iters = 50 * (m + N + m)

    # Phase 1: artificials on every row.
    T = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(N, N + m))
    c1 = np.concatenate([np.zeros(N), np.ones(m)])
    status, it1 = _iterate(T, basis, c1, max_iters)
    if status is Status.ITERATION_LIMIT:
        return LpSolution(status, None, None, (), INF, it1)
    if c1[basis] @ T[:, -1] > PHASE1_TOL:
        return LpSolution(Status.INFEASIBLE, None, None, (), INF, it1)

    # Drive remaining artificials out of the basis; drop redundant rows.
    drop = []
    for r in range(len(basis)):
        if basis[r] >= N:
            piv = next(
                (j for j in range(N) if abs(T[r, j]) > PIVOT_TOL), None
            )
            if piv is None:
                drop.append(r)
            else:
                _pivot(T, basis, r, piv)
    if drop:
        keep = [i for i in range(len(basis)) if i not in drop]
        T = T[keep]
        basis = [basis[i] for i in keep]
    T = np.hstack([T[:, :N], T[:, -1:]])

    status, it2 = _iterate(T, basis, c, max_iters - it1)
    iters = it1 + it2
    if status is not Status.OPTIMAL:
        return LpSolution(status, None, None, (), INF, iters)

    z = np.zeros(N)
    z[basis] = T[:, -1]
    x = z[: lp.nvars]
    value = float(lp.objective @ x)
    return LpSolution(
        Status.OPTIMAL,
        x,
        value,
        tuple(sorted(basis)),
        _residual(lp, x),
        iters,
    )


def _residual(lp: LinearProgram, x: np.ndarray) -> float:
    res = 0.0
    if lp.eq_matrix.shape[0]:
        res = max(res, float(np.max(np.abs(lp.eq_matrix @ x - lp.eq_rhs))))
    if lp.ineq_matrix.shape[0]:
        res = max(res, float(np.max(lp.ineq_matrix @ x - lp.ineq_rhs, initial=0.0)))
    finite_up = np.isfinite(lp.upper)
    if finite_up.any():
        res = max(res, float(np.max(x[finite_up] - lp.upper[finite_up], initial=0.0)))
    return res


def optimal_face_range(lp: LinearProgram, opt_value: float, var: int) -> tuple:
    """Range of one variable over the set of optimal solutions.

    Minimizes and maximizes the variable with the objective pinned to
    opt_value as an extra equality row.
    """
    eq_matrix = np.vstack([lp.eq_matrix, lp.objective[None, :]])
    eq_rhs = np.concatenate([lp.eq_rhs, [opt_value]])
    e = np.zeros(lp.nvars)
    e[var] = 1.0
    probes = [
        solve(replace(lp, objective=obj, eq_matrix=eq_matrix, eq_rhs=eq_rhs))
        for obj in (e, -e)
    ]
    for s in probes:
        if s.status not in (Status.OPTIMAL, Status.UNBOUNDED):
            raise LpError(f"face probe ended with status {s.status.value}")
    lo_sol, hi_sol = probes
    lo = -INF if lo_sol.status is Status.UNBOUNDED else float(lo_sol.value)
    hi = INF if hi_sol.status is Status.UNBOUNDED else float(-hi_sol.value)
    return lo, hi
