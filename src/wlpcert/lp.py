"""Dense linear-programming core.

Primal simplex with Bland's rule (lowest-index tie-breaking,
deterministic) and optimal-face probing for uniqueness analysis. Every
solve runs from a start that the caller supplies: a tableau built in
closed form on a basis, or the optimal tableau of an earlier solve of the
same LP under another cost. A feasible start goes straight to the
simplex; a start that leaves a row negative is not a basic feasible
solution, and the solve ends INFEASIBLE with no pivot.
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


def _pivot(T, basis, row, col):
    """Make column col basic in row: one masked rank-1 update of T in
    place, over the rows whose column-col entry exceeds ELIM_TOL in
    magnitude. The other rows are left byte for byte."""
    T[row] /= T[row, col]
    rows = np.abs(T[:, col]) > ELIM_TOL
    rows[row] = False
    np.subtract(T, T[:, col, None] * T[row], out=T, where=rows[:, None])
    basis[row] = col


def _phase2(T, basis, cost, max_iters):
    """Bland's rule phase 2 from the feasible basis of the tableau T, with
    basis[r] basic in row r; T and basis are overwritten.

    Returns (status, pivots, z), z the point read off the right-hand side
    at the optimum, or None unless the status is OPTIMAL."""
    used = 0
    body, rhs = T[:, :-1], T[:, -1]
    while used < max_iters:
        reduced = cost - cost[basis] @ body
        reduced[basis] = 0.0
        eligible = (reduced < -COST_TOL).nonzero()[0]
        if not eligible.size:
            z = np.zeros(body.shape[1])
            z[basis] = rhs
            return Status.OPTIMAL, used, z
        entering = int(eligible[0])
        col = body[:, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return Status.UNBOUNDED, used, None
        best = 0
        if rows.size > 1:
            ratios = (rhs[rows] / col[rows]).tolist()
            keys = basis[rows].tolist()
            # Bland's sequential scan: a ratio within PIVOT_TOL of the best
            # so far ties, and a tie goes to the lower basic variable index.
            best_ratio = ratios[0]
            for k in range(1, len(ratios)):
                ratio = ratios[k]
                if ratio < best_ratio - PIVOT_TOL or (
                    abs(ratio - best_ratio) <= PIVOT_TOL and keys[k] < keys[best]
                ):
                    best_ratio = ratio
                    best = k
        _pivot(T, basis, int(rows[best]), entering)
        used += 1
    return Status.ITERATION_LIMIT, used, None


def _iteration_budget(A) -> int:
    m, N = A.shape
    return 50 * (m + N + m)


def solve(
    cost: np.ndarray,
    start: LpSolution | tuple,
    max_iters: int | None = None,
) -> LpSolution:
    """Primal simplex from a start; deterministic for fixed input.

    The LP is min cost @ x over z >= 0 of a tableau [G | I | b], z being
    x, then the slack of each inequality row, then the slack of each
    finite upper bound; x is the first cost.size entries of z. start is
    - a (tableau, basis) pair that the caller built in closed form: that
      tableau with basis[r] made basic in row r. solve overwrites it;
    - or an earlier OPTIMAL solution: a copy of its optimal tableau, which
      holds the constraints; only the cost is new.
    Only the shapes are checked (ValueError otherwise): one basis entry
    per row, and a cost no longer than the columns. A start with a
    right-hand side entry below -PIVOT_TOL is infeasible, and the solve
    ends INFEASIBLE with 0 iterations. From x = 1 (ones_tableau) that is
    exact, as A >= 0 makes x = 1 the point that covers the most; an
    optimal tableau's right-hand side is nonnegative up to rounding far
    below PIVOT_TOL. iterations counts the pivots, at most max_iters.
    """
    if isinstance(start, LpSolution):
        if start._optimum is None:
            raise ValueError(
                "no optimal tableau to start from: "
                f"the LP status is {start.status.value}"
            )
        T, basis = start._optimum[0].copy(), start._optimum[1].copy()
    else:
        T, basis = start[0], np.asarray(start[1], dtype=np.intp)
    cost = np.asarray(cost, dtype=float)
    if basis.shape != T.shape[:1] or cost.size > T.shape[1] - 1:
        raise ValueError(
            f"start tableau has {T.shape[0]} rows and {T.shape[1] - 1} "
            f"columns, its basis lists {basis.size} columns and the cost "
            f"has {cost.size} entries"
        )
    if np.any(T[:, -1] < -PIVOT_TOL):
        return LpSolution(Status.INFEASIBLE, None, None, (), 0)
    if max_iters is None:
        max_iters = _iteration_budget(T[:, :-1])
    c = np.concatenate([cost, np.zeros(T.shape[1] - 1 - cost.size)])
    status, iters, z = _phase2(T, basis, c, max_iters)
    if status is not Status.OPTIMAL:
        return LpSolution(status, None, None, (), iters)
    x = z[: cost.size]
    return LpSolution(
        Status.OPTIMAL,
        x,
        float(cost @ x),
        tuple(sorted(basis.tolist())),
        iters,
        (T, basis, c),
    )


def optimal_face_range(sol: LpSolution, variables) -> list:
    """Range (lo, hi) of each given variable over the optimal solutions.

    variables is any iterable of indices into sol.x; any other index
    raises ValueError. At the optimal basis that `solve` ended on every
    reduced cost d is >= 0 and a feasible z costs value + d @ z, so the
    optimal face is the feasible set with z_k = 0 wherever d_k > COST_TOL;
    the other columns are kept (basic columns have d = 0). Each end is
    read once off the right-hand side as the optimum's z[var], and then
    probed where it can move: a probe minimizes or maximizes its variable
    by phase 2 on the tableau restricted to the kept columns, from the
    optimal basis. For a variable basic in row r its reduced costs there
    are -T[r, k] (minimum) or T[r, k] (maximum) on the kept nonbasic
    columns k, so a probe pivots or ends UNBOUNDED exactly for the minimum
    of a basic variable whose row has a kept nonbasic entry above
    COST_TOL, its maximum when one is below -COST_TOL, and the maximum of
    a kept nonbasic variable; only those ends are probed. With no kept
    nonbasic column no end moves, and the face is the optimum alone
    (Mangasarian's uniqueness condition). A dropped column has range
    (0, 0). The face tableau is built only when some end is probed, and
    each probe runs on its own copy. sol is not modified.
    """
    if sol._optimum is None:
        raise ValueError(f"no optimal face: the LP status is {sol.status.value}")
    variables = list(variables)
    for var in variables:
        if not 0 <= var < sol.x.size:
            raise ValueError(f"variable index {var} out of range")
    T, basis, cost = sol._optimum
    reduced = cost - cost[basis] @ T[:, :-1]
    reduced[basis] = 0.0
    keep = reduced <= COST_TOL
    z = np.zeros(keep.size)
    z[basis] = T[:, -1]
    z = z.tolist()
    ranges = [[z[var], z[var]] for var in variables]
    free = keep.copy()
    free[basis] = False
    entries = T[:, :-1][:, free]
    # The (index into variables, side) of each end that a kept nonbasic
    # column can move, side 0 the minimum and 1 the maximum; with no
    # such column there is none.
    probes = []
    if entries.size:
        moves = np.zeros((keep.size, 2), dtype=bool)
        moves[basis, 0] = (entries > COST_TOL).any(axis=1)
        moves[basis, 1] = (entries < -COST_TOL).any(axis=1)
        moves[free, 1] = True
        probes = np.argwhere(moves[variables]).tolist()
    if probes:
        position = keep.cumsum() - 1
        face = T[:, np.append(keep, True)]
        face_basis = position[basis]
        max_iters = _iteration_budget(face[:, :-1])
    for i, side in probes:
        col = position[variables[i]]
        obj = np.zeros(face.shape[1] - 1)
        obj[col] = -1.0 if side else 1.0
        status, _, end = _phase2(face.copy(), face_basis.copy(), obj, max_iters)
        if status is Status.OPTIMAL:
            ranges[i][side] = float(end[col])
        elif status is Status.UNBOUNDED:
            ranges[i][side] = INF if side else -INF
        else:
            raise LpError(f"face probe ended with status {status.value}")
    return [tuple(r) for r in ranges]
