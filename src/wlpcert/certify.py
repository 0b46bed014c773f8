"""Adjust-and-certify driver.

Solves the weighted relaxation, classifies the optimal face, reweights
the objective when the optimum is not unique, certifies exactness via
the s * eta1 threshold test, recovers the binary optimum by ceiling,
and optionally cross-checks against exhaustive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .instance import (
    StandardForm,
    Weights,
    ZERO_TOL,
    ZeroOneInstance,
    ceil_recover,
    to_standard_form,
)
from .goodness import beta_bar, sufficient_verdict
from .lp import (
    UNIQUE_TOL,
    LinearProgram,
    LpSolution,
    Status,
    optimal_face_range,
    solve,
)

BRUTE_FORCE_GUARD = 20
# Codes enumerated per block by brute_force_ip.
BRUTE_FORCE_BLOCK = 1 << 16


class CaseKind(Enum):
    UNIQUE_OPTIMUM = "unique_optimum"
    MULTIPLE_SAME_SPARSITY = "multiple_same_sparsity"
    MULTIPLE_DIFFERENT_SPARSITY = "multiple_different_sparsity"


@dataclass(frozen=True)
class CertifyConfig:
    beta_override: float | None = None
    max_weight_iterations: int = 10
    unique_tol: float = UNIQUE_TOL
    brute_force_verify: bool = True  # applies only when n <= 20

    def __post_init__(self):
        if self.max_weight_iterations < 1:
            raise ValueError("max_weight_iterations must be >= 1")
        if self.unique_tol < 0:
            raise ValueError("unique_tol must be >= 0")


@dataclass(frozen=True, eq=False)
class Certificate:
    final_weights: Weights
    iterations: tuple  # (Weights, GoodnessReport, CaseKind) per pass
    lp_solution: LpSolution | None
    s_observed: int
    certified: bool
    recovered: np.ndarray | None
    brute_force_verified: bool | None
    discrepancies: tuple
    brute_force_value: float | None = None
    brute_force_optima: frozenset | None = None

    @property
    def final_case(self):
        return self.iterations[-1][2] if self.iterations else None

    @property
    def final_report(self):
        return self.iterations[-1][1] if self.iterations else None


def weighted_lp(sf: StandardForm, c: Weights) -> LinearProgram:
    """min c^T x over A1 x + diag(-I_m, I_n) y = b', x >= 0, y >= 0,
    variables (x, y)."""
    m, n = sf.m, sf.n
    slack = np.block(
        [[-np.eye(m), np.zeros((m, n))], [np.zeros((n, m)), np.eye(n)]]
    )
    return LinearProgram(
        objective=np.concatenate([c.c, np.zeros(m + n)]),
        eq_matrix=np.hstack([sf.A1, slack]),
        eq_rhs=sf.bprime,
    )


def solve_weighted_lp(sf: StandardForm, c: Weights) -> LpSolution:
    return solve(weighted_lp(sf, c))


def classify_case(
    sf: StandardForm,
    c: Weights,
    sol: LpSolution,
    unique_tol: float = UNIQUE_TOL,
) -> CaseKind:
    """Uniqueness and support-structure classification of the optimal face.

    Only the x-part is probed: y is determined by x through the
    invertible slack block, so the joint optimum is unique iff the
    x-part is. The same/different-sparsity split compares the always-
    positive support with the possibly-positive support, which is a
    heuristic for faces of dimension > 1.
    """
    lp = weighted_lp(sf, c)
    hi_support = set()
    lo_support = set()
    width = 0.0
    for j in range(sf.n):
        lo, hi = optimal_face_range(lp, sol.value, j)
        width = max(width, hi - lo)
        if hi > ZERO_TOL:
            hi_support.add(j)
        if lo > ZERO_TOL:
            lo_support.add(j)
    if width <= unique_tol:
        return CaseKind.UNIQUE_OPTIMUM
    if hi_support == lo_support:
        return CaseKind.MULTIPLE_SAME_SPARSITY
    return CaseKind.MULTIPLE_DIFFERENT_SPARSITY


def adjust_weights(x_star, beta_bar_value: float) -> Weights:
    """Reweight so larger relaxation components get smaller weights.

    The largest component receives c_lo = min(beta_bar, 1), the smallest
    c_hi = min(1.25 * beta_bar, 1); c_lo is bumped down 10% if clamping
    collapsed the interval. Intermediate components are evenly spaced by
    rank. Ties break toward the lowest index.
    """
    x = np.asarray(x_star, dtype=float).reshape(-1)
    n = x.size
    c_lo = min(beta_bar_value, 1.0)
    c_hi = min(1.25 * beta_bar_value, 1.0)
    if c_hi <= c_lo + 1e-12:
        c_lo = 0.9 * c_lo
    order = sorted(range(n), key=lambda i: (-x[i], i))
    weights = np.empty(n)
    for rank, idx in enumerate(order):
        t = rank / (n - 1) if n > 1 else 0.0
        weights[idx] = c_lo + t * (c_hi - c_lo)
    return Weights(c=np.clip(weights, 1e-12, 1.0))


def brute_force_ip(inst: ZeroOneInstance) -> tuple:
    """Exhaustive 0-1 minimum; (value, set-of-optima), (+inf, empty set)
    when infeasible. Guarded at n <= 20.

    Code k encodes x_i = bit i of k. The 2^n codes are walked in blocks
    of BRUTE_FORCE_BLOCK, so memory is bounded by the block, not by 2^n.
    """
    n = inst.n
    if n > BRUTE_FORCE_GUARD:
        raise ValueError("brute-force dimension guard exceeded")
    value, optima = math.inf, set()
    for start in range(0, 2**n, BRUTE_FORCE_BLOCK):
        stop = min(start + BRUTE_FORCE_BLOCK, 2**n)
        codes = np.arange(start, stop, dtype=np.int64)
        X = ((codes[:, None] >> np.arange(n)) & 1).astype(np.int8)
        feasible = np.all(X @ inst.A.T >= inst.b - ZERO_TOL, axis=1)
        if not feasible.any():
            continue
        sums = X.sum(axis=1)
        block_value = int(sums[feasible].min())
        if block_value > value:
            continue
        if block_value < value:
            value, optima = block_value, set()
        optima.update(map(tuple, X[feasible & (sums == value)].tolist()))
    return value, frozenset(optima)


def verify_certificate(inst: ZeroOneInstance, cert: Certificate) -> bool:
    """Recovered vector is feasible, matches the exhaustive optimum, and
    its objective equals the support count of the relaxation optimum."""
    if cert.recovered is None or cert.lp_solution is None:
        return False
    rec = np.asarray(cert.recovered)
    if np.any(inst.A @ rec < inst.b - ZERO_TOL):
        return False
    value, _optima = brute_force_ip(inst)
    if int(rec.sum()) != value:
        return False
    return int(rec.sum()) == cert.s_observed


def certify(
    inst: ZeroOneInstance,
    config: CertifyConfig = CertifyConfig(),
    weights: Weights | None = None,
) -> Certificate:
    """Run the adjust-and-certify loop.

    Each pass computes the threshold report at the current weights,
    solves the weighted relaxation, and certifies when the optimum is
    unique, its support count is within the budget s_star, and
    s_star * eta1 clears the threshold strictly. Otherwise the weights
    are adjusted and the loop retries, up to max_weight_iterations.
    """
    sf = to_standard_form(inst)
    n = inst.n
    c = weights if weights is not None else Weights(c=np.ones(n))
    discrepancies = []
    iterations = []
    certified = False
    sol = None
    x_part = np.zeros(n)

    for it in range(config.max_weight_iterations):
        bb = beta_bar(sf, c)
        beta_used = (
            config.beta_override if config.beta_override is not None else bb
        )
        if (
            config.beta_override is not None
            and it == 0
            and abs(config.beta_override - bb) > ZERO_TOL
        ):
            discrepancies.append(
                f"beta override {config.beta_override:g} differs from "
                f"column-norm default {bb:g}"
            )
        ok, report = sufficient_verdict(sf, c, beta_used, beta_default=bb)
        sol = solve_weighted_lp(sf, c)
        if sol.status is not Status.OPTIMAL:
            discrepancies.append(
                f"weighted relaxation ended with status {sol.status.value}"
            )
            iterations.append((c, report, None))
            break
        x_part = sol.x[: n]
        s_obs = int(np.count_nonzero(x_part > ZERO_TOL))
        case = classify_case(sf, c, sol, unique_tol=config.unique_tol)
        iterations.append((c, report, case))
        if ok and case is CaseKind.UNIQUE_OPTIMUM and s_obs <= report.s_star:
            certified = True
            break
        c = adjust_weights(x_part, bb)
    else:
        discrepancies.append("weight-adjustment iteration budget exhausted")

    s_observed = (
        int(np.count_nonzero(x_part > ZERO_TOL))
        if sol is not None and sol.status is Status.OPTIMAL
        else 0
    )
    recovered = (
        ceil_recover(np.clip(x_part, 0.0, 1.0))
        if sol is not None and sol.status is Status.OPTIMAL
        else None
    )

    bf_verified = None
    bf_value = None
    optima = None
    if config.brute_force_verify and n <= BRUTE_FORCE_GUARD and recovered is not None:
        bf_value, optima = brute_force_ip(inst)
        if certified:
            bf_verified = (
                tuple(int(v) for v in recovered) in optima
                and int(recovered.sum()) == bf_value
            )

    return Certificate(
        final_weights=iterations[-1][0] if iterations else c,
        iterations=tuple(iterations),
        lp_solution=sol,
        s_observed=s_observed,
        certified=certified,
        recovered=recovered,
        brute_force_verified=bf_verified,
        discrepancies=tuple(discrepancies),
        brute_force_value=bf_value,
        brute_force_optima=optima,
    )
