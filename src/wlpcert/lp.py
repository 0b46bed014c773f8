"""Dense linear-programming core.

Two-phase primal simplex with Bland's rule (lowest-index tie-breaking,
deterministic) and optimal-face probing for uniqueness analysis. Phase 1
starts from a tableau, either each inequality and bound row on its own
slack or one the caller builds on another basis, and puts an artificial
only on the rows whose right-hand side that basis leaves negative. A
re-solve of the same LP under another cost starts from its earlier
optimal basis, which is feasible, so phase 1 has nothing to do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

COST_TOL = 1e-9
PIVOT_TOL = 1e-9
# A pivot leaves alone the rows whose pivot-column entry is at most this.
ELIM_TOL = 1e-13
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
    """min objective @ x  s.t.  ineq_matrix x <= ineq_rhs,
    0 <= x <= upper (+inf allowed)."""

    objective: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    upper: np.ndarray | None = None  # default +inf

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        n = c.size
        inM, inr = _as_rows(self.ineq_matrix, self.ineq_rhs, n)
        up = (
            np.full(n, INF)
            if self.upper is None
            else np.asarray(self.upper, dtype=float).reshape(-1)
        )
        if up.size != n:
            raise ValueError("bound vector must match variable count")
        if np.any(up < 0):
            raise ValueError("negative upper bound")
        if not np.isfinite(c).all():
            raise ValueError("non-finite entry in the objective")
        if np.isnan(up).any():
            raise ValueError("NaN in the upper bounds")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "ineq_matrix", inM)
        object.__setattr__(self, "ineq_rhs", inr)
        object.__setattr__(self, "upper", up)

    @property
    def nvars(self) -> int:
        return self.objective.size


def _as_rows(M, r, n):
    if M is None:
        return np.zeros((0, n)), np.zeros(0)
    M = np.asarray(M, dtype=float).reshape(-1, n)
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != M.shape[0]:
        raise ValueError("ineq rhs length mismatch")
    if not np.isfinite(M).all():
        raise ValueError("non-finite entry in the ineq matrix")
    if not np.isfinite(r).all():
        raise ValueError("non-finite entry in the ineq rhs")
    return M, r


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: Status
    x: np.ndarray | None
    value: float | None
    basis: tuple
    iterations: int = 0
    # (tableau, basis, cost) of the optimal basis that `solve` ended on,
    # read by `optimal_face_range` and by a solve started from it; None
    # unless the status is OPTIMAL.
    _optimum: tuple | None = field(default=None, repr=False)
    # The LP solved, set with _optimum: a solve started from this solution
    # checks that only the cost differs from it.
    _lp: LinearProgram | None = field(default=None, repr=False)


def _standardize(lp: LinearProgram):
    """The tableau [G | I | b] of min c z, [G | I] z = b, z >= 0, where z
    is x followed by one slack per inequality row and per finite upper
    bound: G is the inequality rows over the finite-bound rows and b their
    right-hand side, re-signed nowhere. Returns (tableau, basis), basis the
    slack of each row."""
    finite = np.isfinite(lp.upper)
    G = np.vstack([lp.ineq_matrix, np.eye(lp.nvars)[finite]])
    b = np.concatenate([lp.ineq_rhs, lp.upper[finite]])
    m = G.shape[0]
    T = np.hstack([G, np.eye(m), b[:, None]])
    return T, np.arange(lp.nvars, lp.nvars + m)


def _pivot(T, basis, row, col):
    """Make column col basic in row: one masked rank-1 update of T in
    place, over the rows whose column-col entry exceeds ELIM_TOL in
    magnitude. The other rows are left byte for byte."""
    T[row] /= T[row, col]
    rows = np.abs(T[:, col]) > ELIM_TOL
    rows[row] = False
    np.subtract(T, np.outer(T[:, col], T[row]), out=T, where=rows[:, None])
    basis[row] = col


def _iterate(T, basis, cost, max_iters):
    """Bland's rule loop on a tableau whose basic columns are identified."""
    used = 0
    ncols = T.shape[1] - 1
    while used < max_iters:
        reduced = cost - cost[basis] @ T[:, :ncols]
        candidates = reduced < -COST_TOL
        candidates[basis] = False
        entering = int(candidates.argmax())
        if not candidates[entering]:
            return Status.OPTIMAL, used
        col = T[:, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return Status.UNBOUNDED, used
        ratios = (T[rows, -1] / col[rows]).tolist()
        keys = basis[rows].tolist()
        # Bland's sequential scan: a ratio within PIVOT_TOL of the best so
        # far ties, and a tie goes to the lower basic variable index.
        best, best_ratio = 0, ratios[0]
        for k in range(1, len(ratios)):
            ratio = ratios[k]
            if ratio < best_ratio - PIVOT_TOL or (
                abs(ratio - best_ratio) <= PIVOT_TOL and keys[k] < keys[best]
            ):
                best_ratio = ratio
                best = k
        _pivot(T, basis, int(rows[best]), entering)
        used += 1
    return Status.ITERATION_LIMIT, used


def _phase1(T, basis, max_iters):
    """Composite phase 1 (Chvátal, Linear Programming, 1983) from the basis
    of the tableau T, whose basic columns are unit columns: each row whose
    right-hand side is below -PIVOT_TOL is negated and gets an artificial,
    and phase 1 minimizes the sum of the artificials. With no such row it
    returns T and basis at once.

    Returns (status, iterations, tableau, basis). On Status.OPTIMAL the
    tableau holds a feasible basis, without the artificial columns;
    otherwise tableau and basis are None. T and basis are overwritten.
    Raises LpError when an artificial left basic at level 0 has no entry to
    pivot on.
    """
    neg = T[:, -1] < -PIVOT_TOL
    k = np.count_nonzero(neg)
    if not k:
        return Status.OPTIMAL, 0, T, basis
    m, N = T.shape[0], T.shape[1] - 1
    T[neg] *= -1
    T = np.hstack([T[:, :N], np.eye(m)[:, neg], T[:, N:]])
    basis[neg] = np.arange(N, N + k)
    c1 = np.concatenate([np.zeros(N), np.ones(k)])
    status, used = _iterate(T, basis, c1, max_iters)
    if status is Status.ITERATION_LIMIT:
        return status, used, None, None
    if c1[basis] @ T[:, -1] > PHASE1_TOL:
        return Status.INFEASIBLE, used, None, None
    for r in (basis >= N).nonzero()[0]:
        piv = (np.abs(T[r, :N]) > PIVOT_TOL).nonzero()[0]
        if not piv.size:
            raise LpError(f"phase 1 cannot drive the artificial of row {r} out")
        _pivot(T, basis, r, piv[0])
    return Status.OPTIMAL, used, np.hstack([T[:, :N], T[:, -1:]]), basis


def _phase2(T, basis, cost, max_iters):
    """Phase 2 from phase 1's tableau, which it overwrites.

    Returns (status, iterations, z), z the optimal point or None."""
    status, used = _iterate(T, basis, cost, max_iters)
    if status is not Status.OPTIMAL:
        return status, used, None
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:, -1]
    return status, used, z


def _iteration_budget(A) -> int:
    m, N = A.shape
    return 50 * (m + N + m)


def solve(
    lp: LinearProgram,
    max_iters: int | None = None,
    start: LpSolution | tuple | None = None,
) -> LpSolution:
    """Two-phase simplex; deterministic for fixed input.

    Every solve runs phase 1 and then phase 2 from a start tableau, which
    start selects:
    - None: _standardize's tableau on the slack basis;
    - a (tableau, basis) pair that the caller built in closed form:
      _standardize's tableau with basis[r] made basic in row r, one
      column index of z per row (z is x, then the slack of each
      inequality row, then the slack of each finite upper bound). solve
      takes the pair over and overwrites it; it checks only the shapes
      (ValueError otherwise; _check_start);
    - an earlier OPTIMAL solution of an LP with lp's constraint matrix,
      right-hand side and upper bounds (ValueError otherwise): a copy of
      its optimal tableau (_start_tableau). Only the cost may differ, so
      that tableau is feasible for lp.
    Phase 1 gives an artificial only to the rows the start leaves
    negative, so a start that is feasible for lp goes to phase 2 with no
    pivot. iterations counts the pivots of phases 1 and 2 alone, which
    share max_iters.
    """
    if start is None:
        T, basis = _standardize(lp)
    elif isinstance(start, LpSolution):
        T, basis = _start_tableau(lp, start)
    else:
        T, basis = _check_start(lp, *start)
    if max_iters is None:
        max_iters = _iteration_budget(T[:, :-1])
    status, it1, T, basis = _phase1(T, basis, max_iters)
    if status is not Status.OPTIMAL:
        return LpSolution(status, None, None, (), it1)
    c = np.concatenate([lp.objective, np.zeros(T.shape[1] - 1 - lp.nvars)])
    status, it2, z = _phase2(T, basis, c, max_iters - it1)
    iters = it1 + it2
    if status is not Status.OPTIMAL:
        return LpSolution(status, None, None, (), iters)
    x = z[: lp.nvars]
    return LpSolution(
        Status.OPTIMAL,
        x,
        float(lp.objective @ x),
        tuple(sorted(basis.tolist())),
        iters,
        (T, basis, c),
        lp,
    )


def _check_shape(lp: LinearProgram, T):
    """ValueError unless T has the shape of lp's _standardize tableau."""
    rows = lp.ineq_rhs.size + int(np.isfinite(lp.upper).sum())
    if T.shape != (rows, lp.nvars + rows + 1):
        raise ValueError(
            f"start tableau has {T.shape[0]} rows and {T.shape[1] - 1} columns, "
            f"the LP needs {rows} and {lp.nvars + rows}"
        )


def _check_start(lp: LinearProgram, T, basis):
    """The (tableau, basis) start of lp, with basis as an index array;
    ValueError unless the tableau has lp's shape and basis lists one
    column per row. The basic columns themselves are taken as built."""
    _check_shape(lp, T)
    basis = np.asarray(basis, dtype=np.intp)
    if basis.shape != T.shape[:1]:
        raise ValueError(
            f"start basis lists {basis.size} columns, the LP has {T.shape[0]} rows"
        )
    return T, basis


def _start_tableau(lp: LinearProgram, start: LpSolution):
    """Copies of start's optimal tableau and basis, for lp, which must be
    start's LP under another cost.

    Its constraint matrix, right-hand side and upper bounds must be
    start's, or ValueError is raised. An optimal tableau's right-hand side
    is nonnegative up to rounding far below PIVOT_TOL, so phase 1 negates
    no row of the copy and phase 2 starts at once.
    """
    if start._optimum is None:
        raise ValueError(
            f"no optimal tableau to start from: the LP status is {start.status.value}"
        )
    T, basis, _ = start._optimum
    _check_shape(lp, T)
    prev = start._lp
    if not (
        np.array_equal(lp.ineq_matrix, prev.ineq_matrix)
        and np.array_equal(lp.ineq_rhs, prev.ineq_rhs)
        and np.array_equal(lp.upper, prev.upper)
    ):
        raise ValueError(
            "start LP has another constraint matrix, right-hand side, "
            "or upper-bound pattern or values"
        )
    return T.copy(), basis.copy()


def optimal_face_range(sol: LpSolution, variables) -> list:
    """Range (lo, hi) of each given variable over the optimal solutions.

    At the optimal basis that `solve` ended on every reduced cost d is
    >= 0 and a feasible z costs value + d @ z, so the optimal face is the
    feasible set with z_k = 0 wherever d_k > COST_TOL (basic columns have
    d = 0). When only the basic columns are kept, every nonbasic reduced
    cost exceeds COST_TOL and the face is the basic point alone
    (Mangasarian's uniqueness condition), read off the right-hand side.
    Otherwise each probe minimizes or maximizes its variable by phase 2 on
    the tableau restricted to the kept columns, starting from the optimum.
    A probe whose objective has no improving reduced cost there ends at
    the optimum with no pivot, so its end is read off the right-hand side
    with no copy of the tableau: for a variable basic in row r, the
    minimum when no nonbasic kept entry of row r exceeds COST_TOL and the
    maximum when none is below -COST_TOL; for a nonbasic one, the minimum.
    Every other probe runs on its own copy. A variable whose column is
    dropped has range (0, 0). sol is not modified.
    """
    if sol._optimum is None:
        raise ValueError(f"no optimal face: the LP status is {sol.status.value}")
    T, basis, cost = sol._optimum
    reduced = cost - cost[basis] @ T[:, :-1]
    reduced[basis] = 0.0
    keep = reduced <= COST_TOL
    if keep.sum() == basis.size:
        z = np.zeros(keep.size)
        z[basis] = T[:, -1]
        return [(float(z[var]), float(z[var])) for var in variables]
    face = T[:, np.append(keep, True)]
    position = keep.cumsum() - 1
    face_basis = position[basis]
    max_iters = _iteration_budget(face[:, :-1])
    # The optimum over the kept columns, as phase 2 returns it.
    z = np.zeros(face.shape[1] - 1)
    z[face_basis] = T[:, -1]
    free = keep.copy()
    free[basis] = False
    entries = T[:, :-1][:, free]
    min_stays = ~(entries > COST_TOL).any(axis=1)
    max_stays = ~(entries < -COST_TOL).any(axis=1)
    row_of = np.full(keep.size, -1)
    row_of[basis] = np.arange(basis.size)
    ranges = []
    for var in variables:
        if not keep[var]:
            ranges.append((0.0, 0.0))
            continue
        e = np.zeros(z.size)
        e[position[var]] = 1.0
        row = row_of[var]
        stays = (True, False) if row < 0 else (min_stays[row], max_stays[row])
        ends = []
        for obj, stay in zip((e, -e), stays):
            if stay:
                ends.append(float(obj @ z))
                continue
            status, _, end = _phase2(face.copy(), face_basis.copy(), obj, max_iters)
            if status is Status.OPTIMAL:
                ends.append(float(obj @ end))
            elif status is Status.UNBOUNDED:
                ends.append(-INF)
            else:
                raise LpError(f"face probe ended with status {status.value}")
        ranges.append((ends[0], -ends[1]))
    return ranges
