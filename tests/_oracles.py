"""Independent oracles for the test suite.

The brute-force oracles deliberately avoid the package's simplex path:
LP minima come from enumerating candidate vertices as solutions of n
active constraints chosen from the stacked constraint rows.
`LinearProgram` is a plain LP description, which the package no longer
has: `wlpcert.solve` takes a cost and a start tableau. `covering_lp` is
the weighted relaxation, and `eta_lp` the LP that `wlpcert.eta_j`
solves, each written out as a `LinearProgram`. `reference_solve` is a
row-by-row two-phase simplex on a `LinearProgram`, checked against
vertex enumeration on general LPs; `wlpcert.lp.solve` must reproduce
its pivots from a basis (listed here, built in closed form there) and
from an earlier optimal tableau of the same LP under another cost. It
builds its own tableau and shares no code with `wlpcert.lp`. An optimal
result keeps its final tableau and basis in `_optimum`, as
`wlpcert.solve`'s does, and `final_basis` reads the basis off either.
`loaded_start` is its tableau on a listed basis, as a start for
`wlpcert.solve`.
`all_artificial_solve` starts the same simplex with an artificial on
every row. `residual` is the largest constraint violation of a point.
`reference_loaded_tableau` is that simplex's start tableau on a listed
basis, loaded by pivots. `reference_face_range` probes the optimal face
on the LP with its objective pinned to the optimal value, from a fresh
phase 1; `face_probes` runs every probe of `wlpcert.optimal_face_range`
from the optimal tableau, on the face columns that `face_columns` finds
by pricing the LP's cost afresh (`fresh_reduced_costs`), and
`probe_every_face_range` reads the ranges off them.
`gamma_hat_exact` re-derives `wlpcert.gamma_hat_closed_form` by one
simplex LP per support pattern. `eager_certify` runs the certify loop in
its earlier order, with the full verdict on every pass; its weighted LP
starts from x = 1, as certify's first pass does.
`full_loop_certify` is `wlpcert.certify` as it was before the loop
stopped at a weight fixed point: it solves every pass.
`verify_certificate` checks a certified recovery against exhaustive
enumeration.
"""

import math
from dataclasses import dataclass, replace
from itertools import combinations, product

import numpy as np

from wlpcert.certify import (
    CaseKind,
    Certificate,
    CertifyConfig,
    Pass,
    PassReason,
    adjust_weights,
    branch_and_bound_ip,
    brute_force_ip,
    classify_case,
    ones_tableau,
    solve_weighted_lp,
)
from wlpcert.goodness import beta_bar, sufficient_verdict
from wlpcert.instance import (
    ZERO_TOL,
    Weights,
    ceil_recover,
    to_standard_form,
)
from wlpcert.lp import (
    COST_TOL,
    INF,
    PIVOT_TOL,
    UNIQUE_TOL,
    LpError,
    LpSolution,
    Status,
    solve,
)

TOL = 1e-9
# The reference phase 1 declares the problem infeasible above this
# artificial sum.
PHASE1_TOL = 1e-7
ENUM_GUARD = 10**6
# Candidate vertices solved per np.linalg.solve call.
CHUNK = 4096


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min objective @ x  s.t.  ineq_matrix x <= ineq_rhs,
    0 <= x <= upper (+inf allowed, the default)."""

    objective: np.ndarray
    ineq_matrix: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float).reshape(-1)
        n = c.size
        if self.ineq_matrix is None:
            M, r = np.zeros((0, n)), np.zeros(0)
        else:
            M = np.asarray(self.ineq_matrix, dtype=float).reshape(-1, n)
            r = np.asarray(self.ineq_rhs, dtype=float).reshape(-1)
        up = np.full(n, INF) if self.upper is None else self.upper
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "ineq_matrix", M)
        object.__setattr__(self, "ineq_rhs", r)
        object.__setattr__(self, "upper", np.asarray(up, dtype=float).reshape(-1))

    @property
    def nvars(self) -> int:
        return self.objective.size


def covering_lp(A, b, c) -> LinearProgram:
    """min c^T x over A x >= b, 0 <= x <= 1: the weighted relaxation, and
    each branch-and-bound node's LP."""
    return LinearProgram(
        objective=c, ineq_matrix=-A, ineq_rhs=-b, upper=np.ones(len(c))
    )


def enumerate_lp_minimum(objective, ineq_matrix, ineq_rhs, lower, upper):
    """Minimum of a box-bounded LP by exhaustive vertex enumeration.

    Returns None when no feasible vertex exists (infeasible, given
    finite boxes make the region a polytope).
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    ineq_matrix = np.asarray(ineq_matrix, dtype=float).reshape(-1, n)
    ineq_rhs = np.asarray(ineq_rhs, dtype=float).reshape(-1)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    optional = [(ineq_matrix[i], ineq_rhs[i]) for i in range(ineq_matrix.shape[0])]
    # bound_rows[i]: the rows of variable i's finite bounds.
    bound_rows = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        bound_rows.append([])
        for bound in (lower[i], upper[i]):
            if np.isfinite(bound):
                bound_rows[i].append(len(optional))
                optional.append((e.copy(), bound))

    opt_M = np.array([r for r, _ in optional]).reshape(-1, n)
    opt_rhs = np.array([v for _, v in optional]).reshape(-1)
    # Rows with equal coefficients share a key. A system that repeats a
    # key is singular in exact arithmetic, so it has no vertex of its own
    # and is not solved. The two bounds of a variable share a key, so no
    # system lists both.
    _, row_key = np.unique(opt_M, axis=0, return_inverse=True)

    best = None
    for systems in _vertex_systems(ineq_matrix.shape[0], bound_rows):
        for first in range(0, len(systems), CHUNK):
            idx = systems[first : first + CHUNK]
            k = idx.shape[0]
            M = opt_M[idx]
            rhs = opt_rhs[idx]
            keys = np.sort(row_key.reshape(-1)[idx], axis=1)
            repeated = np.any(keys[:, 1:] == keys[:, :-1], axis=1)
            X = np.full((k, n), np.nan)
            X[~repeated] = _solve_each(M[~repeated], rhs[~repeated])
            ok = np.all(np.isfinite(X), axis=1)
            if ineq_matrix.shape[0]:
                ok &= np.max(X @ ineq_matrix.T - ineq_rhs, axis=1) <= 1e-7
            ok &= np.all((X >= lower - 1e-7) & (X <= upper + 1e-7), axis=1)
            if ok.any():
                val = float(np.min(X[ok] @ c))
                if best is None or val < best:
                    best = val
    return best


def _vertex_systems(ineq_count, bound_rows):
    """The candidate vertex systems: every n-subset of the rows that takes
    at most one bound row of each variable, in blocks, each an array with
    one system per row, its row indices ascending. Inequality rows come
    first, then each variable's lower and upper bound rows, in variable
    order."""
    n = len(bound_rows)
    by_size = {}
    for bounds in product(*([None] + rows for rows in bound_rows)):
        chosen = [row for row in bounds if row is not None]
        by_size.setdefault(len(chosen), []).append(chosen)
    for k, chosen in by_size.items():
        ineq = list(combinations(range(ineq_count), n - k))
        ineq = np.array(ineq, dtype=np.intp).reshape(len(ineq), n - k)
        chosen = np.array(chosen, dtype=np.intp).reshape(len(chosen), k)
        yield np.hstack(
            [np.repeat(ineq, len(chosen), axis=0), np.tile(chosen, (len(ineq), 1))]
        )


def _solve_each(M, rhs):
    """Solve a stack of square systems; rows of singular ones are NaN.

    The stack is solved in one call; when it holds a singular system,
    each system is solved on its own, so the candidate set is the same as
    solving them one at a time.
    """
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        X = np.full(rhs.shape, np.nan)
        for i in range(M.shape[0]):
            try:
                X[i] = np.linalg.solve(M[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return X


def enumerate_binary_minimum(A, b):
    """Minimum cardinality binary cover by direct 2^n enumeration: every
    point of {0, 1}^n at once, checked by one matrix product. Returns
    (value, set of optima), (None, empty set) when none covers."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    X = np.array(list(product((0.0, 1.0), repeat=A.shape[1])))
    X = X[np.all(X @ A.T >= b - 1e-9, axis=1)]
    if not X.size:
        return None, set()
    sums = X.sum(axis=1)
    best = int(sums.min())
    return best, set(map(tuple, X[sums == best].astype(int).tolist()))


def _reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and abs(T[i, col]) > 1e-13:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _reference_iterate(T, basis, cost, max_iters):
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
        _reference_pivot(T, basis, leave, entering)
        used += 1
    return Status.ITERATION_LIMIT, used


def _reference_tableau(lp):
    """[G | I | b] and its slack basis, built one row at a time: each
    inequality row, then x_k <= upper_k for each finite upper bound, each
    row with its own slack column and its right-hand side as given."""
    n = lp.nvars
    rows = [(lp.ineq_matrix[i], lp.ineq_rhs[i]) for i in range(lp.ineq_matrix.shape[0])]
    for k in range(n):
        if math.isfinite(lp.upper[k]):
            e = np.zeros(n)
            e[k] = 1.0
            rows.append((e, lp.upper[k]))
    m = len(rows)
    T = np.zeros((m, n + m + 1))
    for i, (g, r) in enumerate(rows):
        T[i, :n] = g
        T[i, n + i] = 1.0
        T[i, -1] = r
    return T, list(range(n, n + m))


def _reference_phase1(T, basis, art_rows, max_iters):
    """Phase 1 with an artificial column on each row in art_rows, negated
    first when its right-hand side is negative; every other row keeps its
    basic column. Returns (status, iterations, tableau, basis), the
    tableau without the artificial columns."""
    if not art_rows:
        return Status.OPTIMAL, 0, T, basis
    m, N = T.shape[0], T.shape[1] - 1
    art = np.zeros((m, len(art_rows)))
    for k, i in enumerate(art_rows):
        if T[i, -1] < 0:
            T[i] = -T[i]
        art[i, k] = 1.0
        basis[i] = N + k
    T = np.hstack([T[:, :N], art, T[:, -1:]])
    c1 = np.concatenate([np.zeros(N), np.ones(len(art_rows))])
    status, used = _reference_iterate(T, basis, c1, max_iters)
    if status is Status.ITERATION_LIMIT:
        return status, used, None, None
    if c1[basis] @ T[:, -1] > PHASE1_TOL:
        return Status.INFEASIBLE, used, None, None
    for r in range(m):
        if basis[r] >= N:
            piv = next((j for j in range(N) if abs(T[r, j]) > PIVOT_TOL), None)
            if piv is None:
                raise LpError(f"phase 1 cannot drive the artificial of row {r} out")
            _reference_pivot(T, basis, r, piv)
    return Status.OPTIMAL, used, np.hstack([T[:, :N], T[:, -1:]]), basis


def _reference_phase2(T, basis, cost, max_iters):
    status, used = _reference_iterate(T, basis, cost, max_iters)
    if status is not Status.OPTIMAL:
        return status, used, None
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:, -1]
    return status, used, z


def _budget(T):
    m, N = T.shape[0], T.shape[1] - 1
    return 50 * (m + N + m)


def reference_loaded_tableau(lp, start):
    """(T, basis, loaded): _reference_tableau with each column listed in
    start pivoted, row by row, into its row where it is not already
    basic; loaded counts those pivots."""
    T, basis = _reference_tableau(lp)
    loaded = 0
    for row, col in enumerate(start):
        if basis[row] != col:
            _reference_pivot(T, basis, row, int(col))
            loaded += 1
    return T, basis, loaded


def loaded_start(lp, listed):
    """(tableau, basis) that `wlpcert.solve` can start from:
    reference_loaded_tableau's tableau with the listed columns basic."""
    T, basis, _ = reference_loaded_tableau(lp, listed)
    return T, np.array(basis)


def reference_solve(lp, max_iters=None, start=None):
    """Two-phase simplex with Bland's rule, one tableau row at a time.

    Without start, phase 1 starts on _reference_tableau's slack basis. With
    start a list of one column per row, it starts on
    reference_loaded_tableau's tableau; those loading pivots count as
    iterations and spend max_iters. With start an earlier optimal solution
    of lp under another cost, it starts on a copy of start's optimal
    tableau and basis. Either way each row whose entry is below -PIVOT_TOL
    is negated and gets an artificial, and phase 2 runs under lp's cost."""
    loaded = 0
    if isinstance(start, LpSolution):
        T, basis = _reference_start(start)
    elif start is not None:
        T, basis, loaded = reference_loaded_tableau(lp, start)
    else:
        T, basis = _reference_tableau(lp)
    if max_iters is None:
        max_iters = _budget(T)
    art_rows = [i for i in range(T.shape[0]) if T[i, -1] < -PIVOT_TOL]
    status, it1, T, basis = _reference_phase1(
        T, basis, art_rows, max_iters - loaded
    )
    it1 += loaded
    if status is not Status.OPTIMAL:
        return LpSolution(status, None, None, it1)
    c = np.concatenate([lp.objective, np.zeros(T.shape[1] - 1 - lp.nvars)])
    status, it2, z = _reference_phase2(T, basis, c, max_iters - it1)
    iters = it1 + it2
    if status is not Status.OPTIMAL:
        return LpSolution(status, None, None, iters)
    x = z[: lp.nvars]
    # The final tableau with its reduced costs in a last row, and the basis,
    # as wlpcert.solve keeps them.
    reduced = np.append(c, 0.0) - c[basis] @ T
    reduced[basis] = 0.0
    optimum = (np.vstack([T, reduced]), np.array(basis))
    return LpSolution(Status.OPTIMAL, x, float(lp.objective @ x), iters, optimum)


def final_basis(sol):
    """The sorted basis that sol, a solution of wlpcert.solve or of
    reference_solve, ended on; () unless it is OPTIMAL."""
    return () if sol._optimum is None else tuple(sorted(sol._optimum[1].tolist()))


def all_artificial_solve(lp):
    """(status, value) of the two-phase simplex that starts every row on an
    artificial, whatever slack it has."""
    T, basis = _reference_tableau(lp)
    max_iters = _budget(T)
    status, it1, T, basis = _reference_phase1(
        T, basis, list(range(T.shape[0])), max_iters
    )
    if status is not Status.OPTIMAL:
        return status, None
    c = np.concatenate([lp.objective, np.zeros(T.shape[1] - 1 - lp.nvars)])
    status, _, z = _reference_phase2(T, basis, c, max_iters - it1)
    return status, None if z is None else float(lp.objective @ z[: lp.nvars])


def _reference_start(start):
    """Copies of start's optimal tableau, without its row of reduced
    costs, and of its basis."""
    T, basis = start._optimum
    return T[:-1].copy(), basis.tolist()


def eta_lp(A1, c: Weights, beta: float, col: int) -> LinearProgram:
    """The LP that `wlpcert.eta_j(A1, c, beta, col)` solves over (u, t):
    min t s.t. (A^T u)_k - t <= beta for k != col,
    (A^T u)_col - t <= beta + c_col, -(A^T u)_col - t <= -c_col and
    0 <= u <= beta, with t unbounded above. eta_j builds the tableau of
    its (u = 0, t = c_col) start in closed form instead."""
    n = A1.shape[1]
    m = A1.shape[0] - n
    At = A1[:m].T
    cj = float(c.c[col])
    ineq = np.hstack([np.vstack([At, -At[col]]), -np.ones((n + 1, 1))])
    rhs = np.full(n + 1, beta)
    rhs[col] += cj
    rhs[n] = -cj
    objective = np.zeros(m + 1)
    objective[m] = 1.0
    upper = np.full(m + 1, beta)
    upper[m] = INF
    return LinearProgram(
        objective=objective, ineq_matrix=ineq, ineq_rhs=rhs, upper=upper
    )


def residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of lp's inequality rows and upper bounds at x."""
    res = 0.0
    if lp.ineq_matrix.shape[0]:
        res = max(res, float(np.max(lp.ineq_matrix @ x - lp.ineq_rhs, initial=0.0)))
    finite_up = np.isfinite(lp.upper)
    if finite_up.any():
        res = max(res, float(np.max(x[finite_up] - lp.upper[finite_up], initial=0.0)))
    return res


def pin_objective(lp: LinearProgram, value: float) -> LinearProgram:
    """lp with objective @ x = value added as the pair of inequality rows
    objective @ x <= value and -objective @ x <= -value."""
    return replace(
        lp,
        ineq_matrix=np.vstack([lp.ineq_matrix, lp.objective, -lp.objective]),
        ineq_rhs=np.concatenate([lp.ineq_rhs, [value, -value]]),
    )


def reference_face_range(lp: LinearProgram, opt_value: float, variables) -> list:
    """Range (lo, hi) of each given variable over the optimal solutions.

    Minimizes and maximizes each variable with the objective pinned to
    opt_value by pin_objective. Phase 1 does not read the objective, so it
    runs once, as in reference_solve; each probe runs phase 2 on a copy of
    its tableau, exactly as reference_solve would on the probe's LP.
    """
    T, basis = _reference_tableau(pin_objective(lp, opt_value))
    max_iters = _budget(T)
    art_rows = [i for i in range(T.shape[0]) if T[i, -1] < -PIVOT_TOL]
    status, it1, T, basis = _reference_phase1(T, basis, art_rows, max_iters)
    if status is not Status.OPTIMAL:
        raise LpError(f"face probe ended with status {status.value}")
    slack_costs = np.zeros(T.shape[1] - 1 - lp.nvars)
    ranges = []
    for var in variables:
        e = np.zeros(lp.nvars)
        e[var] = 1.0
        ends = []
        for obj in (e, -e):
            status, _, z = _reference_phase2(
                T.copy(), list(basis), np.concatenate([obj, slack_costs]),
                max_iters - it1,
            )
            if status is Status.OPTIMAL:
                ends.append(float(obj @ z[: lp.nvars]))
            elif status is Status.UNBOUNDED:
                ends.append(-INF)
            else:
                raise LpError(f"face probe ended with status {status.value}")
        ranges.append((ends[0], -ends[1]))
    return ranges


def fresh_reduced_costs(T, basis, cost):
    """c - c_B T over the columns of the tableau T without its right-hand
    side, c being cost padded with zeros; basic columns read 0."""
    c = np.zeros(T.shape[1] - 1)
    c[: len(cost)] = cost
    reduced = c - c[basis] @ T[:, :-1]
    reduced[basis] = 0.0
    return reduced


def face_columns(sol: LpSolution, cost) -> list:
    """The columns of sol's optimal tableau whose reduced cost under cost,
    the cost of the LP that sol solves, is at most COST_TOL: the columns
    of the optimal face, in order. The reduced costs are priced afresh on
    the optimal basis, not read off the tableau's last row."""
    T, basis = sol._optimum
    return (fresh_reduced_costs(T[:-1], basis, cost) <= COST_TOL).nonzero()[0].tolist()


def assert_last_row_is_fresh(sol: LpSolution, cost):
    """The last row of sol's optimal tableau is within 1e-12 of the
    reduced costs of cost priced afresh on its basis, and keeps the same
    face columns."""
    T, basis = sol._optimum
    fresh = fresh_reduced_costs(T[:-1], basis, cost)
    np.testing.assert_allclose(T[-1, :-1], fresh, rtol=0, atol=1e-12)
    assert (T[-1, :-1] <= COST_TOL).nonzero()[0].tolist() == face_columns(sol, cost)


def face_probes(sol: LpSolution, cost) -> dict:
    """{(var, side): (status, pivots, end)} for every probe of
    `wlpcert.optimal_face_range(sol)`, even where the basis already
    proves the end: side 0 minimizes var and side 1 maximizes it, by the
    row-loop phase 2 on a copy of sol's optimal tableau restricted to
    face_columns(sol, cost), from the optimal basis; end is the probe's
    end of var's range. A variable outside the face has no probe."""
    T, basis = sol._optimum
    columns = face_columns(sol, cost)
    face = T[:-1][:, columns + [T.shape[1] - 1]]
    face_basis = [columns.index(k) for k in basis.tolist()]
    probes = {}
    for var in range(sol.x.size):
        if var not in columns:
            continue
        e = np.zeros(len(columns))
        e[columns.index(var)] = 1.0
        for side, obj in enumerate((e, -e)):
            status, used, z = _reference_phase2(
                face.copy(), list(face_basis), obj, _budget(face)
            )
            if status is Status.OPTIMAL:
                end = float(obj @ z)
            elif status is Status.UNBOUNDED:
                end = -INF
            else:
                raise LpError(f"face probe ended with status {status.value}")
            probes[var, side] = (status, used, -end if side else end)
    return probes


def probe_every_face_range(sol: LpSolution, cost) -> list:
    """`wlpcert.optimal_face_range(sol)` from face_probes(sol, cost), with
    every probe run; a variable outside the face has range (0, 0)."""
    probes = face_probes(sol, cost)
    return [
        (probes[var, 0][2], probes[var, 1][2]) if (var, 0) in probes else (0.0, 0.0)
        for var in range(sol.x.size)
    ]


def reference_case(sol: LpSolution, lp: LinearProgram) -> CaseKind:
    """`wlpcert.classify_case(sol)` on the face ranges of
    reference_face_range, which re-solves lp, the weighted LP that sol
    solves."""
    ranges = reference_face_range(lp, sol.value, range(lp.nvars))
    if max(hi - lo for lo, hi in ranges) <= UNIQUE_TOL:
        return CaseKind.UNIQUE_OPTIMUM
    if all((hi > ZERO_TOL) == (lo > ZERO_TOL) for lo, hi in ranges):
        return CaseKind.MULTIPLE_SAME_SPARSITY
    return CaseKind.MULTIPLE_DIFFERENT_SPARSITY


def _inner_gamma_lp(A1: np.ndarray, c: Weights, beta: float, support) -> float:
    """max sum_{i in support} c_i x_i - beta ||A1 x||_1 over the unit
    simplex, via the epigraph form of the 1-norm term, by reference_solve:
    every right-hand side is 0 or 1, so the slack start is feasible."""
    rows, n = A1.shape
    sel = np.zeros(n)
    sel[list(support)] = 1.0
    if math.isinf(beta):
        # Penalty becomes the hard constraint A1 x = 0, which is A1 x <= 0
        # since A1 >= 0 and x >= 0.
        obj = np.concatenate([-(sel * c.c)])
        lp = LinearProgram(
            objective=obj,
            ineq_matrix=np.vstack([A1, np.ones((1, n))]),
            ineq_rhs=np.concatenate([np.zeros(rows), [1.0]]),
        )
    else:
        # Variables (x, r) with r >= |A1 x| coordinatewise.
        obj = np.concatenate([-(sel * c.c), beta * np.ones(rows)])
        ineq = np.vstack(
            [
                np.hstack([A1, -np.eye(rows)]),
                np.hstack([-A1, -np.eye(rows)]),
                np.concatenate([np.ones(n), np.zeros(rows)])[None, :],
            ]
        )
        rhs = np.concatenate([np.zeros(2 * rows), [1.0]])
        lp = LinearProgram(objective=obj, ineq_matrix=ineq, ineq_rhs=rhs)
    sol = reference_solve(lp)
    if sol.status is not Status.OPTIMAL:
        raise LpError(f"inner subproblem ended with status {sol.status.value}")
    return -float(sol.value)


def gamma_hat_exact(A1: np.ndarray, c: Weights, beta: float, s: int) -> float:
    """Relaxed goodness constant by enumerating binary support patterns.

    Over the box-capped simplex of support selectors the objective is
    linear with nonnegative coefficients, so binary selectors with
    exactly min(s, n) ones attain the maximum.
    """
    n = A1.shape[1]
    if not 0 <= s <= n:
        raise ValueError("s out of range")
    if s == 0:
        return 0.0
    k = min(s, n)
    if math.comb(n, k) > ENUM_GUARD:
        raise ValueError("support enumeration guard exceeded")
    best = 0.0
    for support in combinations(range(n), k):
        best = max(best, _inner_gamma_lp(A1, c, beta, support))
    return best


def eager_certify(inst, max_weight_iterations=10):
    """certify at the default config, in its earlier pass order: the full
    verdict (every eta_j) first, then the weighted LP and its face, read
    by reference_case.
    Returns (certified, passes, recovered, case per pass,
    brute_force_value)."""
    A1 = to_standard_form(inst)
    c = Weights(np.ones(inst.n))
    cases = []
    certified = False
    for _ in range(max_weight_iterations):
        ok, report = sufficient_verdict(A1, c, beta_bar(A1, c))
        lp = covering_lp(inst.A, inst.b, c.c)
        sol = solve(c.c, start=ones_tableau(inst.A, inst.b))
        if sol.status is not Status.OPTIMAL:
            cases.append(None)
            break
        x = sol.x
        case = reference_case(sol, lp)
        cases.append(case)
        support = int(np.count_nonzero(x > ZERO_TOL))
        if ok and case is CaseKind.UNIQUE_OPTIMUM and support <= report.s_star:
            certified = True
            break
        c = adjust_weights(x)
    recovered = None
    if sol.status is Status.OPTIMAL:
        recovered = ceil_recover(np.clip(x, 0.0, 1.0))
    value = None
    if certified:
        value, _ = branch_and_bound_ip(inst)
        certified = int(recovered.sum()) == value and bool(
            np.all(inst.A @ recovered >= inst.b - ZERO_TOL)
        )
    recovered = None if recovered is None else [int(v) for v in recovered]
    return certified, len(cases), recovered, cases, value


def full_loop_certify(inst, config=CertifyConfig(), weights=None) -> Certificate:
    """wlpcert.certify with every pass solved, up to max_weight_iterations,
    even after adjust_weights returns the weights a pass already had."""
    c = weights if weights is not None else Weights(c=np.ones(inst.n))
    if c.n != inst.n:
        raise ValueError(
            f"weights have length {c.n}, the instance has {inst.n} columns"
        )
    A1 = to_standard_form(inst)
    discrepancies = []
    iterations = []
    certified = False

    if config.beta_override is not None:
        bb = beta_bar(A1, c)
        if abs(config.beta_override - bb) > ZERO_TOL:
            discrepancies.append(
                f"beta override {config.beta_override:g} differs from "
                f"column-norm default {bb:g}"
            )
    sol = None
    for _ in range(config.max_weight_iterations):
        sol = solve_weighted_lp(inst, c, sol)
        if sol.status is not Status.OPTIMAL:
            discrepancies.append(
                f"weighted relaxation ended with status {sol.status.value}"
            )
            iterations.append(Pass(c, None, None, PassReason.LP_STATUS))
            break
        s_observed = int(np.count_nonzero(sol.x > ZERO_TOL))
        case = classify_case(sol)
        report = None
        reason = PassReason.NON_UNIQUE
        if case is CaseKind.UNIQUE_OPTIMUM:
            certified, report = sufficient_verdict(
                A1, c, config.beta_override, s_observed=s_observed
            )
            if certified:
                reason = PassReason.CERTIFIED
            elif report.s_star < s_observed:
                reason = PassReason.SUPPORT_GT_S_STAR
            else:
                reason = PassReason.BOUND_NOT_STRICT
        iterations.append(Pass(c, report, case, reason))
        if certified:
            break
        c = adjust_weights(sol.x)
    else:
        discrepancies.append("weight-adjustment iteration budget exhausted")

    recovered = None
    if sol.status is Status.OPTIMAL:
        recovered = ceil_recover(np.clip(sol.x, 0.0, 1.0))

    bf_verified = None
    bf_value = None
    optimum = None
    if certified:
        bf_value, optimum = branch_and_bound_ip(inst)
        bf_verified = int(recovered.sum()) == bf_value and bool(
            np.all(inst.A @ recovered >= inst.b - ZERO_TOL)
        )
        if not bf_verified:
            certified = False
            iterations[-1] = iterations[-1]._replace(reason=PassReason.REFUTED)
            discrepancies.append(
                f"certificate refuted: the recovery has {int(recovered.sum())} "
                f"ones, the 0-1 optimum is {bf_value}"
            )

    return Certificate(
        iterations=tuple(iterations),
        lp_solution=sol,
        certified=certified,
        recovered=recovered,
        brute_force_verified=bf_verified,
        discrepancies=tuple(discrepancies),
        brute_force_value=bf_value,
        brute_force_optimum=optimum,
    )


def verify_certificate(inst, cert) -> bool:
    """The certificate's recovery is feasible and its size is the
    exhaustive 0-1 optimum."""
    if cert.recovered is None or cert.lp_solution is None:
        return False
    rec = np.asarray(cert.recovered)
    if np.any(inst.A @ rec < inst.b - ZERO_TOL):
        return False
    value, _optima = brute_force_ip(inst)
    return int(rec.sum()) == value
