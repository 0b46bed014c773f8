"""Independent oracles for the test suite.

The brute-force oracles deliberately avoid the package's simplex path:
LP minima come from enumerating candidate vertices as solutions of n
active constraints chosen from the stacked constraint rows.
`reference_solve` is the row-by-row two-phase simplex that the
vectorised `wlpcert.lp.solve` must reproduce pivot for pivot.
`reference_face_range` probes the optimal face on the LP with its
objective pinned to the optimal value, from a fresh phase 1.
`gamma_hat_exact` re-derives `wlpcert.gamma_hat_closed_form` by one
simplex LP per support pattern. `eager_certify` runs the certify loop in
its earlier order, with the full verdict on every pass.
`verify_certificate` checks a certified recovery against exhaustive
enumeration.
"""

import math
from dataclasses import replace
from itertools import combinations, islice

import numpy as np

from wlpcert.certify import (
    CaseKind,
    adjust_weights,
    branch_and_bound_ip,
    brute_force_ip,
    covering_lp,
)
from wlpcert.goodness import beta_bar, sufficient_verdict
from wlpcert.instance import (
    ZERO_TOL,
    StandardForm,
    Weights,
    ceil_recover,
    to_standard_form,
)
from wlpcert.lp import (
    COST_TOL,
    INF,
    PHASE1_TOL,
    PIVOT_TOL,
    UNIQUE_TOL,
    LinearProgram,
    LpError,
    LpSolution,
    Status,
    _iteration_budget,
    _phase1,
    _phase2,
    _residual,
    _standardize,
    solve,
)

TOL = 1e-9
ENUM_GUARD = 10**6
# Candidate vertices solved per np.linalg.solve call.
CHUNK = 4096


def enumerate_lp_minimum(objective, eq_matrix, eq_rhs, ineq_matrix, ineq_rhs,
                         lower, upper):
    """Minimum of a box-bounded LP by exhaustive vertex enumeration.

    Returns None when no feasible vertex exists (infeasible, given
    finite boxes make the region a polytope).
    """
    c = np.asarray(objective, dtype=float)
    n = c.size
    eq_matrix = np.asarray(eq_matrix, dtype=float).reshape(-1, n)
    eq_rhs = np.asarray(eq_rhs, dtype=float).reshape(-1)
    ineq_matrix = np.asarray(ineq_matrix, dtype=float).reshape(-1, n)
    ineq_rhs = np.asarray(ineq_rhs, dtype=float).reshape(-1)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)

    rows = [(eq_matrix[i], eq_rhs[i]) for i in range(eq_matrix.shape[0])]
    optional = [(ineq_matrix[i], ineq_rhs[i]) for i in range(ineq_matrix.shape[0])]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        if np.isfinite(lower[i]):
            optional.append((e.copy(), lower[i]))
        if np.isfinite(upper[i]):
            optional.append((e.copy(), upper[i]))

    n_eq = len(rows)
    if n_eq > n:
        return None
    n_active = n - n_eq

    fixed_M = np.array([r for r, _ in rows]).reshape(n_eq, n)
    fixed_rhs = np.array([v for _, v in rows]).reshape(n_eq)
    opt_M = np.array([r for r, _ in optional]).reshape(-1, n)
    opt_rhs = np.array([v for _, v in optional]).reshape(-1)
    # Rows with equal coefficients share a key. A system that repeats a
    # key is singular in exact arithmetic and mostly raises in
    # np.linalg.solve, so such systems are stacked apart from the rest:
    # mixed in, they would send every stack to one-at-a-time solves.
    _, row_key = np.unique(opt_M, axis=0, return_inverse=True)

    best = None
    combos = combinations(range(len(optional)), n_active)
    while chunk := list(islice(combos, CHUNK)):
        idx = np.array(chunk, dtype=np.intp).reshape(len(chunk), n_active)
        k = idx.shape[0]
        M = np.concatenate(
            [np.broadcast_to(fixed_M, (k, n_eq, n)), opt_M[idx]], axis=1
        )
        rhs = np.concatenate(
            [np.broadcast_to(fixed_rhs, (k, n_eq)), opt_rhs[idx]], axis=1
        )
        keys = np.sort(row_key.reshape(-1)[idx], axis=1)
        repeated = np.any(keys[:, 1:] == keys[:, :-1], axis=1)
        X = np.empty((k, n))
        for part in (~repeated, repeated):
            X[part] = _solve_each(M[part], rhs[part])
        ok = np.all(np.isfinite(X), axis=1)
        if eq_matrix.shape[0]:
            ok &= np.max(np.abs(X @ eq_matrix.T - eq_rhs), axis=1) <= 1e-7
        if ineq_matrix.shape[0]:
            ok &= np.max(X @ ineq_matrix.T - ineq_rhs, axis=1) <= 1e-7
        ok &= np.all((X >= lower - 1e-7) & (X <= upper + 1e-7), axis=1)
        if ok.any():
            val = float(np.min(X[ok] @ c))
            if best is None or val < best:
                best = val
    return best


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
    """Minimum cardinality binary cover by direct 2^n enumeration."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    best = None
    optima = set()
    for code in range(2**n):
        x = np.array([(code >> i) & 1 for i in range(n)], dtype=float)
        if np.all(A @ x >= b - 1e-9):
            val = int(x.sum())
            if best is None or val < best:
                best = val
                optima = {tuple(int(v) for v in x)}
            elif val == best:
                optima.add(tuple(int(v) for v in x))
    return best, optima


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


def reference_solve(lp, max_iters=None):
    """Two-phase simplex with Bland's rule, one tableau row at a time.

    Phase 1 starts each row on its own slack where `_standardize` names
    one, and on a new artificial column otherwise."""
    A, b, c, start = _standardize(lp)
    m, N = A.shape
    if max_iters is None:
        max_iters = 50 * (m + N + m)

    basis = []
    art_rows = []
    for i in range(m):
        if start[i] >= 0:
            basis.append(int(start[i]))
        else:
            basis.append(N + len(art_rows))
            art_rows.append(i)
    T = np.hstack([A, np.eye(m)[:, art_rows], b[:, None]])
    c1 = np.concatenate([np.zeros(N), np.ones(len(art_rows))])
    status, it1 = _reference_iterate(T, basis, c1, max_iters)
    if status is Status.ITERATION_LIMIT:
        return LpSolution(status, None, None, (), INF, it1)
    if c1[basis] @ T[:, -1] > PHASE1_TOL:
        return LpSolution(Status.INFEASIBLE, None, None, (), INF, it1)

    drop = []
    for r in range(len(basis)):
        if basis[r] >= N:
            piv = next((j for j in range(N) if abs(T[r, j]) > PIVOT_TOL), None)
            if piv is None:
                drop.append(r)
            else:
                _reference_pivot(T, basis, r, piv)
    if drop:
        keep = [i for i in range(len(basis)) if i not in drop]
        T = T[keep]
        basis = [basis[i] for i in keep]
    T = np.hstack([T[:, :N], T[:, -1:]])

    status, it2 = _reference_iterate(T, basis, c, max_iters - it1)
    iters = it1 + it2
    if status is not Status.OPTIMAL:
        return LpSolution(status, None, None, (), INF, iters)
    z = np.zeros(N)
    z[basis] = T[:, -1]
    x = z[: lp.nvars]
    return LpSolution(
        Status.OPTIMAL,
        x,
        float(lp.objective @ x),
        tuple(sorted(basis)),
        _residual(lp, x),
        iters,
    )


def reference_face_range(lp: LinearProgram, opt_value: float, variables) -> list:
    """Range (lo, hi) of each given variable over the optimal solutions.

    Minimizes and maximizes each variable with the objective pinned to
    opt_value as an extra equality row. Phase 1 does not read the
    objective, so it runs once; each probe runs phase 2 on a copy of its
    tableau, exactly as `solve` would on the probe's LP.
    """
    pinned = replace(
        lp,
        eq_matrix=np.vstack([lp.eq_matrix, lp.objective[None, :]]),
        eq_rhs=np.concatenate([lp.eq_rhs, [opt_value]]),
    )
    A, b, _, start = _standardize(pinned)
    max_iters = _iteration_budget(A)
    status, it1, T, basis = _phase1(A, b, start, max_iters)
    if status is not Status.OPTIMAL:
        raise LpError(f"face probe ended with status {status.value}")
    slack_costs = np.zeros(A.shape[1] - lp.nvars)
    ranges = []
    for var in variables:
        e = np.zeros(lp.nvars)
        e[var] = 1.0
        ends = []
        for obj in (e, -e):
            status, _, z = _phase2(
                T.copy(), basis.copy(), np.concatenate([obj, slack_costs]),
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


def _inner_gamma_lp(sf: StandardForm, c: Weights, beta: float, support) -> float:
    """max sum_{i in support} c_i x_i - beta ||A1 x||_1 over the unit
    simplex, via the epigraph form of the 1-norm term."""
    n = sf.n
    rows = sf.A1.shape[0]
    sel = np.zeros(n)
    sel[list(support)] = 1.0
    if math.isinf(beta):
        # Penalty becomes the hard constraint A1 x = 0.
        obj = np.concatenate([-(sel * c.c)])
        lp = LinearProgram(
            objective=obj,
            eq_matrix=sf.A1,
            eq_rhs=np.zeros(rows),
            ineq_matrix=np.ones((1, n)),
            ineq_rhs=np.array([1.0]),
        )
    else:
        # Variables (x, r) with r >= |A1 x| coordinatewise.
        obj = np.concatenate([-(sel * c.c), beta * np.ones(rows)])
        ineq = np.vstack(
            [
                np.hstack([sf.A1, -np.eye(rows)]),
                np.hstack([-sf.A1, -np.eye(rows)]),
                np.concatenate([np.ones(n), np.zeros(rows)])[None, :],
            ]
        )
        rhs = np.concatenate([np.zeros(2 * rows), [1.0]])
        lp = LinearProgram(objective=obj, ineq_matrix=ineq, ineq_rhs=rhs)
    sol = solve(lp)
    if sol.status is not Status.OPTIMAL:
        raise LpError(f"inner subproblem ended with status {sol.status.value}")
    return -float(sol.value)


def gamma_hat_exact(sf: StandardForm, c: Weights, beta: float, s: int) -> float:
    """Relaxed goodness constant by enumerating binary support patterns.

    Over the box-capped simplex of support selectors the objective is
    linear with nonnegative coefficients, so binary selectors with
    exactly min(s, n) ones attain the maximum.
    """
    n = sf.n
    if not 0 <= s <= n:
        raise ValueError("s out of range")
    if s == 0:
        return 0.0
    k = min(s, n)
    if math.comb(n, k) > ENUM_GUARD:
        raise ValueError("support enumeration guard exceeded")
    best = 0.0
    for support in combinations(range(n), k):
        best = max(best, _inner_gamma_lp(sf, c, beta, support))
    return best


def eager_certify(inst, max_weight_iterations=10):
    """certify at the default config, in its earlier pass order: the full
    verdict (every eta_j) first, then the weighted LP and its face, read
    by reference_case.
    Returns (certified, passes, recovered, case per pass,
    brute_force_value)."""
    sf = to_standard_form(inst)
    c = Weights(np.ones(inst.n))
    cases = []
    certified = False
    for _ in range(max_weight_iterations):
        ok, report = sufficient_verdict(sf, c, beta_bar(sf, c))
        lp = covering_lp(inst.A, inst.b, c.c)
        sol = solve(lp)
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
