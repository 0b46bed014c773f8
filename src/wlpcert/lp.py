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


def _iterate(T, basis, cost, max_iters):
    """Bland's rule loop on a tableau whose basic columns are identified."""
    used = 0
    body, rhs = T[:, :-1], T[:, -1]
    while used < max_iters:
        reduced = cost - cost[basis] @ body
        reduced[basis] = 0.0
        eligible = (reduced < -COST_TOL).nonzero()[0]
        if not eligible.size:
            return Status.OPTIMAL, used
        entering = int(eligible[0])
        col = body[:, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return Status.UNBOUNDED, used
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
    return Status.ITERATION_LIMIT, used


def _phase2(T, basis, cost, max_iters):
    """Phase 2 from the feasible basis of the tableau T, which it overwrites.

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
    Every other probe runs on its own copy of the face tableau, which is
    built only when some probe must pivot. A variable whose column is
    dropped has range (0, 0). sol is not modified.
    """
    if sol._optimum is None:
        raise ValueError(f"no optimal face: the LP status is {sol.status.value}")
    T, basis, cost = sol._optimum
    reduced = cost - cost[basis] @ T[:, :-1]
    reduced[basis] = 0.0
    keep = reduced <= COST_TOL
    kept = int(keep.sum())
    if kept == basis.size:
        z = np.zeros(keep.size)
        z[basis] = T[:, -1]
        return [(float(z[var]), float(z[var])) for var in variables]
    position = keep.cumsum() - 1
    face_basis = position[basis]
    # The optimum over the kept columns, as phase 2 returns it.
    z = np.zeros(kept)
    z[face_basis] = T[:, -1]
    face = None
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
            if face is None:
                face = T[:, np.append(keep, True)]
                max_iters = _iteration_budget(face[:, :-1])
            status, _, end = _phase2(face.copy(), face_basis.copy(), obj, max_iters)
            if status is Status.OPTIMAL:
                ends.append(float(obj @ end))
            elif status is Status.UNBOUNDED:
                ends.append(-INF)
            else:
                raise LpError(f"face probe ended with status {status.value}")
        ranges.append((ends[0], -ends[1]))
    return ranges
