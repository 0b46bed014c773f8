"""Independent brute-force oracles for the test suite.

These deliberately avoid the package's simplex path: LP minima come
from enumerating candidate vertices as solutions of n active
constraints chosen from the stacked constraint rows.
"""

from itertools import combinations, islice

import numpy as np

TOL = 1e-9
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
