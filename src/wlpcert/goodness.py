"""Verifiable exactness quantities for the weighted relaxation.

Computes the dual-radius default beta_bar, the n per-column residual
bounds eta^j and their maximum eta1, the sparsity budget s_star, the
relaxed goodness constant gamma_hat (in closed form), and the
sufficiency verdict s_star * eta1 < (1/2) min_i c_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import Weights, ZERO_TOL
from .lp import INF, LpError, Status, solve

# Strict-inequality guard band for threshold comparisons.
STRICT_GUARD = 1e-10


@dataclass(frozen=True, eq=False)
class GoodnessReport:
    beta_bar: float
    beta_used: float
    eta_per_column: tuple
    eta1: float
    s_star: int
    eta_s_bound: float
    gamma_hat: float
    threshold: float
    certified: bool
    witnesses: tuple  # eta_j's q for each column solved


def beta_bar(A1: np.ndarray, c: Weights) -> float:
    """(max c + min c / 2) / rho with rho = max column 1-norm of A1.

    The column-norm rho is a heuristic default; callers may override the
    radius entirely when a different beta is wanted.
    """
    rho = float(np.abs(A1).sum(axis=0).max())
    return (float(c.c.max()) + 0.5 * float(c.c.min())) / rho


def eta_j(A1: np.ndarray, c: Weights, beta: float, col: int) -> tuple:
    """(eta_j, q): min ||c_col e_col - A1^T q||_inf over q = (u, v) with
    u in [0, beta]^m and v in [-beta, 0]^n, and a q that attains it.

    A1^T q = A^T u + v, and for fixed u the best v is
    clip(c_col e_col - A^T u, -beta, 0) coordinatewise. So the LP runs over
    (u, t) alone: (A^T u)_k <= beta + t for k != col, and
    c_col - t <= (A^T u)_col <= c_col + beta + t.

    The LP starts from the feasible point (u = 0, t = c_col): every row on
    its slack except row n, where t is basic. Its tableau is built in
    closed form: the slack-basis tableau with row n negated, then added to
    rows 0..n-1, which is the pivot on row n's entry -1 in t's column. Over
    (u | t | slacks | rhs), row k < n is [A_k + A_col | 0 | e_k - e_n |
    beta + c_col, plus c_col if k = col], row n [A_col | 1 | -e_n, zeros
    -0.0 | c_col], row n+1+i [e_i | 0 | e_(n+1+i) | beta]; A_k is column k.
    """
    n = A1.shape[1]
    m = A1.shape[0] - n
    if not 0 <= col < n:
        raise ValueError(f"column index {col} out of range")
    if not 0 < beta < INF:
        raise ValueError("box bound must be positive and finite")
    At = A1[:m].T
    cj = float(c.c[col])
    # Rows: (A^T u)_k - t <= beta (+ c_col in row col), -(A^T u)_col - t <=
    # -c_col in row n, then u <= beta; columns: (u, t), one slack per row,
    # the right-hand side.
    T = np.zeros((n + 1 + m, 2 * m + n + 3))
    np.add(At, At[col], out=T[:n, :m])
    T[n, :m] = At[col]
    T[n, m] = 1.0
    T[n, m + 1 : -1] = -0.0
    # The identity blocks, as np.fill_diagonal writes them: strided, flat.
    flat, step = T.reshape(-1), T.shape[1] + 1
    flat[m + 1 :: step] = 1.0
    flat[(n + 1) * T.shape[1] :: step] = 1.0
    T[: n + 1, m + n + 1] = -1.0
    T[:, -1] = beta
    T[:n, -1] += cj
    T[col, -1] += cj
    T[n, -1] = cj
    basis = np.arange(m + 1, 2 * m + n + 2)
    basis[n] = m
    cost = np.zeros(m + 1)
    cost[m] = 1.0
    sol = solve(cost, start=(T, basis))
    if sol.status is not Status.OPTIMAL:
        raise LpError(f"residual subproblem ended with status {sol.status.value}")
    u = sol.x[:m]
    target = np.zeros(n)
    target[col] = cj
    q = np.concatenate([u, np.minimum(np.maximum(target - At @ u, -beta), 0.0)])
    # A minimum of an inf-norm is >= 0; round-off can leave it just below.
    value = max(0.0, sol.value)
    return value, q


def _s_star_from(eta1: float, threshold: float, n: int) -> int:
    """floor(threshold / eta1), at most n; n when eta1 is zero."""
    if eta1 <= ZERO_TOL:
        return n
    return min(n, int(math.floor(threshold / eta1 + ZERO_TOL)))


def gamma_hat_closed_form(A1: np.ndarray, c: Weights, beta: float) -> float:
    """max(0, max_j c_j - beta * ||A1 e_j||_1); valid because A1 >= 0 and
    x >= 0 make the 1-norm term linear. Independent of s >= 1."""
    col_norms = np.abs(A1).sum(axis=0)
    return float(max(0.0, (c.c - beta * col_norms).max()))


def sufficient_verdict(
    A1: np.ndarray,
    c: Weights,
    beta: float | None = None,
    s_observed: int = 0,
) -> tuple:
    """Certification verdict s_star * eta1 < (1/2) min c and
    s_star >= s_observed, with a report.

    beta = None uses the default radius beta_bar(A1, c), which the report
    records as its beta_bar whatever beta is used.

    eta_j is solved in column order, stopping after the first column
    whose eta_j alone gives s_star < s_observed: eta1 >= eta_j and s_star
    does not grow with eta1, so the verdict is False whatever the other
    columns hold. A stopped report lists only the columns solved; its
    eta1 is a lower bound and its s_star an upper bound. With the default
    s_observed = 0 every column is solved.

    Every eta_j LP starts from (u = 0, t = c_j), so the report depends on
    the arguments alone: certify's verdicts equal standalone ones bit for
    bit.
    """
    n = A1.shape[1]
    if c.n != n:
        raise ValueError(f"weights have length {c.n}, the instance has {n} columns")
    default = beta_bar(A1, c)
    if beta is None:
        beta = default
    threshold = 0.5 * float(c.c.min())
    etas = []
    witnesses = []
    for j in range(n):
        value, q = eta_j(A1, c, beta, j)
        etas.append(value)
        witnesses.append(q)
        if _s_star_from(value, threshold, n) < s_observed:
            break
    eta1 = max(etas)
    star = _s_star_from(eta1, threshold, n)
    bound = star * eta1
    certified = bound < threshold - STRICT_GUARD and star >= s_observed
    report = GoodnessReport(
        beta_bar=default,
        beta_used=beta,
        eta_per_column=tuple(etas),
        eta1=eta1,
        s_star=star,
        eta_s_bound=bound,
        gamma_hat=gamma_hat_closed_form(A1, c, beta),
        threshold=threshold,
        certified=certified,
        witnesses=tuple(witnesses),
    )
    return certified, report
