"""Verifiable exactness quantities for the weighted relaxation.

Computes the dual-radius default beta_bar, the n per-column residual
bounds eta^j and their maximum eta1, the sparsity budget s_star, the
relaxed goodness constant gamma_hat (exact subset enumeration and its
closed form), and the sufficiency verdict s * eta1 < (1/2) min_i c_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .instance import StandardForm, Weights, ZERO_TOL
from .lp import INF, LinearProgram, LpError, Status, solve

# Strict-inequality guard band for threshold comparisons.
STRICT_GUARD = 1e-10
ENUM_GUARD = 10**6


@dataclass(frozen=True, eq=False)
class DualWitness:
    """Candidate multiplier vector for one per-column subproblem."""

    q: np.ndarray
    achieved_residual: float


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
    witnesses: tuple


def beta_bar(sf: StandardForm, c: Weights) -> float:
    """(max c + min c / 2) / rho with rho = max column 1-norm of A1.

    The column-norm rho is a heuristic default; callers may override the
    radius entirely when a different beta is wanted.
    """
    rho = float(np.max(np.abs(sf.A1).sum(axis=0)))
    return (float(np.max(c.c)) + 0.5 * float(np.min(c.c))) / rho


def eta_j(sf: StandardForm, c: Weights, beta: float, col: int) -> tuple:
    """min ||c_col e_col - A1^T q||_inf over q = (u, v) with u in [0, beta]^m
    and v in [-beta, 0]^n.

    A1^T q = A^T u + v, and for fixed u the best v is
    clip(c_col e_col - A^T u, -beta, 0) coordinatewise. So the LP runs over
    (u, t) alone: (A^T u)_k <= beta + t for k != col, and
    c_col - t <= (A^T u)_col <= c_col + beta + t.
    """
    m, n = sf.m, sf.n
    if not 0 <= col < n:
        raise ValueError(f"column index {col} out of range")
    if beta <= 0:
        raise ValueError("box bound must be positive")
    At = sf.A1[:m].T
    cj = float(c.c[col])
    ineq = np.hstack([np.vstack([At, -At[col]]), -np.ones((n + 1, 1))])
    rhs = np.full(n + 1, beta)
    rhs[col] += cj
    rhs[n] = -cj
    objective = np.zeros(m + 1)
    objective[m] = 1.0
    upper = np.full(m + 1, beta)
    upper[m] = INF
    sol = solve(
        LinearProgram(
            objective=objective, ineq_matrix=ineq, ineq_rhs=rhs, upper=upper
        )
    )
    if sol.status is not Status.OPTIMAL:
        raise LpError(f"residual subproblem ended with status {sol.status.value}")
    u = sol.x[:m]
    target = np.zeros(n)
    target[col] = cj
    q = np.concatenate([u, np.clip(target - At @ u, -beta, 0.0)])
    return sol.value, DualWitness(q=q, achieved_residual=sol.value)


def eta_1K(sf: StandardForm, c: Weights, beta: float) -> float:
    return max(eta_j(sf, c, beta, j)[0] for j in range(sf.n))


def s_star(sf: StandardForm, c: Weights, beta: float) -> int:
    """floor(threshold / eta1), clamped to [0, n]; n when eta1 is zero."""
    return _s_star_from(eta_1K(sf, c, beta), float(np.min(c.c)), sf.n)


def _s_star_from(eta1: float, min_c: float, n: int) -> int:
    threshold = 0.5 * min_c
    if eta1 <= ZERO_TOL:
        return n
    return max(0, min(n, int(math.floor(threshold / eta1 + ZERO_TOL))))


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


def gamma_hat_closed_form(sf: StandardForm, c: Weights, beta: float) -> float:
    """max(0, max_j c_j - beta * ||A1 e_j||_1); valid because A1 >= 0 and
    x >= 0 make the 1-norm term linear. Independent of s >= 1."""
    if math.isinf(beta):
        return 0.0
    col_norms = np.abs(sf.A1).sum(axis=0)
    return float(max(0.0, np.max(c.c - beta * col_norms)))


def sufficient_verdict(
    sf: StandardForm,
    c: Weights,
    beta: float,
    s: int | None = None,
    beta_default: float | None = None,
) -> tuple:
    """Certification verdict s * eta1 < (1/2) min c, with a full report.

    When s is None the budget s_star is used. beta_default, when given,
    is recorded as the report's beta_bar (callers that override beta
    still report the default-rule value).
    """
    etas = []
    witnesses = []
    for j in range(sf.n):
        value, witness = eta_j(sf, c, beta, j)
        etas.append(value)
        witnesses.append(witness)
    eta1 = max(etas)
    min_c = float(np.min(c.c))
    threshold = 0.5 * min_c
    star = _s_star_from(eta1, min_c, sf.n)
    s_used = star if s is None else s
    bound = s_used * eta1
    certified = bound < threshold - STRICT_GUARD
    report = GoodnessReport(
        beta_bar=beta if beta_default is None else beta_default,
        beta_used=beta,
        eta_per_column=tuple(etas),
        eta1=eta1,
        s_star=star,
        eta_s_bound=bound,
        gamma_hat=gamma_hat_closed_form(sf, c, beta),
        threshold=threshold,
        certified=certified,
        witnesses=tuple(witnesses),
    )
    return certified, report
