"""Dense linear-programming core.

Primal simplex with Bland's rule (lowest-index tie-breaking,
deterministic) and optimal-face probing for uniqueness analysis. Every
solve, face probes included, runs from a start that the caller
supplies: a tableau built in closed form on a basis, the optimal tableau
of an earlier solve of the same LP under another cost, or, for a probe,
that optimal tableau restricted to its face. A feasible start goes
straight to the simplex; a start that leaves a row negative is not a
basic feasible solution, and the solve ends INFEASIBLE with no pivot.
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
    iterations: int = 0
    # (tableau, basis) that `solve` ended on, reduced costs in the last
    # row, read by `optimal_face_range` and by a solve started from it;
    # None unless the status is OPTIMAL.
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


def _price(T, basis, cost):
    """T with the row c - c_B T of reduced costs appended, basis[r] basic
    in row r and c the cost padded with zeros; basic entries read 0."""
    c = np.zeros(T.shape[1])
    c[: cost.size] = cost
    # C order whatever the layout of T (a face is column-major): pivots use rows.
    priced = np.empty((T.shape[0] + 1, T.shape[1]))
    priced[:-1] = T
    priced[-1] = c - c[basis] @ T
    priced[-1, basis] = 0.0
    return priced


def _iteration_budget(A) -> int:
    m, N = A.shape
    return 50 * (m + N + m)


def solve(cost: np.ndarray, start: LpSolution | tuple) -> LpSolution:
    """Primal simplex from a start; deterministic for fixed input.

    The LP is min cost @ x over z >= 0 of a tableau [G | I | b], z being
    x, then the slack of each inequality row, then the slack of each
    finite upper bound; x is the first cost.size entries of z. start is
    - a (tableau, basis) pair that the caller built in closed form: that
      tableau with basis[r] made basic in row r, or the optimal tableau
      restricted to its face (optimal_face_range's probes);
    - or an earlier OPTIMAL solution: its optimal tableau, which holds the
      constraints; only the cost is new.
    Only the shapes are checked (ValueError otherwise): one basis entry
    per row, and a cost no longer than the columns. A start with a
    right-hand side entry below -PIVOT_TOL is infeasible, and the solve
    ends INFEASIBLE with 0 iterations. From x = 1 (ones_tableau) that is
    exact, as A >= 0 makes x = 1 the point that covers the most; an
    optimal tableau's right-hand side is nonnegative up to rounding far
    below PIVOT_TOL. Otherwise Bland's rule runs on a copy of the start
    with the cost priced into a last row (_price), kept current by each
    pivot; the start is not modified. A nonbasic column may enter when its
    reduced cost is below -COST_TOL. iterations counts the pivots within
    the budget, the same for every solve: _iteration_budget of the
    constraint rows, 50 (2m + N) pivots for m rows over N columns, after
    which the status is ITERATION_LIMIT. An OPTIMAL solution keeps the
    tableau and basis it ended on in _optimum.
    """
    if isinstance(start, LpSolution):
        if start._optimum is None:
            raise ValueError(
                "no optimal tableau to start from: "
                f"the LP status is {start.status.value}"
            )
        start = (start._optimum[0][:-1], start._optimum[1])
    T, basis = start[0], np.array(start[1], dtype=np.intp)
    cost = np.asarray(cost, dtype=float)
    if basis.shape != T.shape[:1] or cost.size > T.shape[1] - 1:
        raise ValueError(
            f"start tableau has {T.shape[0]} rows and {T.shape[1] - 1} "
            f"columns, its basis lists {basis.size} columns and the cost "
            f"has {cost.size} entries"
        )
    if (T[:, -1] < -PIVOT_TOL).any():
        return LpSolution(Status.INFEASIBLE, None, None, 0)
    T = _price(T, basis, cost)
    used = 0
    max_iters = _iteration_budget(T[:-1, :-1])
    reduced, rhs = T[-1, :-1], T[:-1, -1]
    while used < max_iters:
        reduced[basis] = 0.0
        eligible = (reduced < -COST_TOL).nonzero()[0]
        if not eligible.size:
            z = np.zeros(reduced.size)
            z[basis] = rhs
            x = z[: cost.size]
            return LpSolution(Status.OPTIMAL, x, float(cost @ x), used, (T, basis))
        entering = int(eligible[0])
        col = T[:-1, entering]
        rows = (col > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return LpSolution(Status.UNBOUNDED, None, None, used)
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
    return LpSolution(Status.ITERATION_LIMIT, None, None, used)


def optimal_face_range(sol: LpSolution) -> list:
    """Range (lo, hi) of each entry of sol.x over the optimal solutions.

    At the optimal basis that `solve` ended on, every reduced cost d in
    the tableau's last row is >= 0 and a feasible z costs value + d @ z,
    so the optimal face is the feasible set with z_k = 0 wherever
    d_k > COST_TOL; the other columns are kept (basic ones read d = 0).
    Each range starts at sol.x and each end is probed where it can move:
    solve, within its pivot budget, minimizes or maximizes the variable
    on the tableau restricted to the kept columns, from the optimal
    basis, under the one-hot cost that solve prices. For a
    variable basic in row r those reduced costs are -T[r, k] (minimum) or
    T[r, k] (maximum) on the kept nonbasic columns k, so a probe moves
    exactly the minimum of a basic variable whose row has a kept nonbasic
    entry above COST_TOL, its maximum when one is below -COST_TOL, and the
    maximum of a kept nonbasic variable; only those ends are probed. With
    no kept nonbasic column the face is the optimum alone (Mangasarian's
    uniqueness condition). A dropped column has range (0, 0). sol is not
    modified.
    """
    if sol._optimum is None:
        raise ValueError(f"no optimal face: the LP status is {sol.status.value}")
    T, basis = sol._optimum
    # The face's columns, its right-hand side among them.
    columns = T[-1] <= COST_TOL
    columns[-1] = True
    keep = columns[:-1]
    T = T[:-1]
    ranges = [[v, v] for v in sol.x.tolist()]
    free = keep.copy()
    free[basis] = False
    # The (variable, side) of each end that a kept nonbasic column can
    # move, side 0 the minimum and 1 the maximum; with no such column
    # there is none.
    probes = []
    if free.any():
        entries = T[:, :-1][:, free]
        moves = np.zeros((keep.size, 2), dtype=bool)
        moves[basis, 0] = (entries > COST_TOL).any(axis=1)
        moves[basis, 1] = (entries < -COST_TOL).any(axis=1)
        moves[free, 1] = True
        variables, sides = moves[: sol.x.size].nonzero()
        probes = list(zip(variables.tolist(), sides.tolist()))
    if probes:
        position = keep.cumsum() - 1
        face = T[:, columns]
        face_basis = position[basis]
    for var, side in probes:
        col = position[var]
        obj = np.zeros(face.shape[1] - 1)
        obj[col] = -1.0 if side else 1.0
        probe = solve(obj, (face, face_basis))
        if probe.status is Status.OPTIMAL:
            ranges[var][side] = float(probe.x[col])
        elif probe.status is Status.UNBOUNDED:
            ranges[var][side] = INF if side else -INF
        else:
            raise LpError(f"face probe ended with status {probe.status.value}")
    return [tuple(r) for r in ranges]
