"""Adjust-and-certify driver.

Solves the weighted relaxation, classifies the optimal face, reweights
the objective when the optimum is not unique, certifies a unique optimum
via the s * eta1 threshold test, recovers the binary optimum by ceiling,
and checks a certified recovery against the 0-1 optimum found by LP
branch-and-bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .instance import (
    Weights,
    ZERO_TOL,
    ZeroOneInstance,
    ceil_recover,
    to_standard_form,
)
from .goodness import GoodnessReport, beta_bar, sufficient_verdict
from .lp import (
    UNIQUE_TOL,
    LpError,
    LpSolution,
    Status,
    optimal_face_range,
    solve,
)

BRUTE_FORCE_GUARD = 20
# Codes enumerated per block by brute_force_ip.
BRUTE_FORCE_BLOCK = 1 << 16
# Nodes branch_and_bound_ip may solve before it raises LpError.
BRANCH_NODE_LIMIT = 20_000
# A node LP value within this of an integer k gives the bound k, not k + 1.
BRANCH_BOUND_TOL = 1e-6


class CaseKind(Enum):
    UNIQUE_OPTIMUM = "unique_optimum"
    MULTIPLE_SAME_SPARSITY = "multiple_same_sparsity"
    MULTIPLE_DIFFERENT_SPARSITY = "multiple_different_sparsity"


class PassReason(Enum):
    """Why a pass of certify ended as it did."""

    LP_STATUS = "lp_status"  # the weighted LP did not reach an optimum
    NON_UNIQUE = "non_unique"
    SUPPORT_GT_S_STAR = "support_gt_s_star"
    BOUND_NOT_STRICT = "bound_not_strict"
    CERTIFIED = "certified"
    REFUTED = "refuted"  # the exact check refuted the pass's certificate


class Pass(NamedTuple):
    weights: Weights
    # None when the verdict did not run (LP failure or a non-unique
    # optimum); a stopped verdict lists only the columns it solved.
    report: GoodnessReport | None
    case: CaseKind | None
    reason: PassReason


@dataclass(frozen=True)
class CertifyConfig:
    beta_override: float | None = None
    max_weight_iterations: int = 10
    # Must be True: certify checks every certified recovery with
    # branch_and_bound_ip. Kept so that callers passing True still work.
    brute_force_verify: bool = True

    def __post_init__(self):
        try:
            budget = operator.index(self.max_weight_iterations)
        except TypeError:
            budget = 0
        if budget < 1:
            raise ValueError("max_weight_iterations must be an integer >= 1")
        beta = self.beta_override
        if beta is not None and not 0 < beta < math.inf:
            raise ValueError("beta override must be positive and finite")
        if self.brute_force_verify is not True:
            raise ValueError("brute_force_verify must be True")


@dataclass(frozen=True, eq=False)
class Certificate:
    iterations: tuple  # one Pass per pass run
    lp_solution: LpSolution
    certified: bool
    recovered: np.ndarray | None
    brute_force_verified: bool | None
    discrepancies: tuple
    brute_force_value: float | None = None
    # The check's 0-1 optimum; None when no check ran.
    brute_force_optimum: tuple | None = None

    @property
    def final_weights(self) -> Weights:
        return self.iterations[-1].weights

    @property
    def final_case(self):
        return self.iterations[-1].case

    @property
    def final_report(self):
        return self.iterations[-1].report


def ones_tableau(A, b) -> tuple:
    """The start (tableau, basis) at x = 1 of the covering LP min c^T x
    over A x >= b, 0 <= x <= 1, in closed form for solve: the covering
    rows -A x <= -b on their slacks, [0 | I_m | A | A 1 - b] with A 1 - b
    summed from -b_i in column order, over the bound rows x <= 1 with x_j
    basic in row j, [I_n | 0 | I_n | 1]. Since A >= 0 this start is
    feasible exactly when the LP is."""
    m, n = A.shape
    T = np.zeros((m + n, 2 * n + m + 1))
    # The identity blocks, as np.fill_diagonal writes them: strided, flat.
    flat, step = T.reshape(-1), T.shape[1] + 1
    flat[n::step] = 1.0
    flat[m * T.shape[1] :: step] = 1.0
    T[:m, n + m : -1] = A
    T[:m, -1] = np.concatenate([-b[:, None], A], axis=1).cumsum(axis=1)[:, -1]
    T[m:, -1] = 1.0
    return T, np.concatenate([np.arange(n, n + m), np.arange(n)])


def solve_weighted_lp(
    inst: ZeroOneInstance, c: Weights, start: LpSolution | None = None
) -> LpSolution:
    """The weighted relaxation min c^T x over inst.A x >= inst.b,
    0 <= x <= 1, solved from start, an earlier optimal solution of it;
    from x = 1 (ones_tableau) when start is None."""
    if start is None:
        start = ones_tableau(inst.A, inst.b)
    return solve(c.c, start=start)


def classify_case(sol: LpSolution) -> CaseKind:
    """Uniqueness and support-structure classification of the optimal face
    of sol, a solution of the weighted LP.

    The same/different-sparsity split compares the always-positive
    support with the possibly-positive support, which is a heuristic for
    faces of dimension > 1.
    """
    ranges = optimal_face_range(sol)
    if max(hi - lo for lo, hi in ranges) <= UNIQUE_TOL:
        return CaseKind.UNIQUE_OPTIMUM
    if all((hi > ZERO_TOL) == (lo > ZERO_TOL) for lo, hi in ranges):
        return CaseKind.MULTIPLE_SAME_SPARSITY
    return CaseKind.MULTIPLE_DIFFERENT_SPARSITY


def adjust_weights(x_star) -> Weights:
    """Reweight so larger relaxation components get smaller weights.

    Weights are evenly spaced by rank, from 0.8 for the largest component
    to 1.0 for the smallest; ties break toward the lowest index. The
    certificate does not depend on the scale of c, and max c = 1 keeps
    every pass clear of the absolute LP tolerances.
    """
    x = np.asarray(x_star, dtype=float).reshape(-1)
    n = x.size
    weights = np.empty(n)
    ranks = np.arange(n) / max(n - 1, 1)
    weights[np.argsort(-x, kind="stable")] = 1.0 + 0.25 * ranks
    return Weights(c=weights / weights.max())


def brute_force_ip(inst: ZeroOneInstance) -> tuple:
    """Exhaustive 0-1 minimum; (value, set-of-optima), (+inf, empty set)
    when infeasible. Guarded at n <= 20. The reference for
    branch_and_bound_ip, which certify uses.

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
        feasible = inst.covers(X)
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


def branch_and_bound_ip(inst: ZeroOneInstance) -> tuple:
    """Exact 0-1 minimum by depth-first LP branch-and-bound; (value,
    optimum) with optimum a 0-1 tuple, (+inf, None) when infeasible.

    A node fixes some variables: x_j = 1 moves column j to the right-hand
    side, x_j = 0 drops it. Its bound is the fixed ones plus
    ceil(LP value - BRANCH_BOUND_TOL), since the 0-1 optimum is an integer
    no smaller than the LP value. A >= 0, so the LP point rounded up is
    feasible and becomes the incumbent when it is better. The node branches
    on its most fractional variable, x_j = 1 first. Each node LP starts
    from x = 1 (ones_tableau), so an infeasible node ends INFEASIBLE with
    no pivot; so does one with no free column, whose kept rows read
    -b_i < -PIVOT_TOL as b_i > ZERO_TOL = PIVOT_TOL. Raises LpError after
    BRANCH_NODE_LIMIT nodes.
    """
    n = inst.n
    best_value, best = math.inf, None
    stack = [np.full(n, -1, dtype=np.int8)]  # -1 free, else the fixed value
    nodes = 0
    while stack:
        if nodes == BRANCH_NODE_LIMIT:
            raise LpError(f"branch-and-bound node budget of {nodes} exhausted")
        nodes += 1
        fixed = stack.pop()
        ones = fixed == 1
        free = (fixed < 0).nonzero()[0]
        rhs = inst.b - inst.A[:, ones].sum(axis=1)
        rows = rhs > ZERO_TOL
        x = np.zeros(free.size)
        bound = int(ones.sum())
        if rows.any():
            A, b = inst.A[np.ix_(rows, free)], rhs[rows]
            sol = solve(np.ones(free.size), start=ones_tableau(A, b))
            if sol.status is Status.INFEASIBLE:
                continue
            if sol.status is not Status.OPTIMAL:
                raise LpError(
                    f"branch-and-bound node ended with status {sol.status.value}"
                )
            x = sol.x
            bound += math.ceil(sol.value - BRANCH_BOUND_TOL)
        if bound >= best_value:
            continue
        point = ones.astype(int)
        point[free] = x > ZERO_TOL
        if point.sum() < best_value and inst.covers(point):
            best_value, best = int(point.sum()), tuple(point.tolist())
        if bound >= best_value:
            continue
        j = free[int(np.argmax(np.minimum(x, 1.0 - x)))]
        for value in (0, 1):
            child = fixed.copy()
            child[j] = value
            stack.append(child)
    return best_value, best


def certify(
    inst: ZeroOneInstance,
    config: CertifyConfig = CertifyConfig(),
    weights: Weights | None = None,
) -> Certificate:
    """Run the adjust-and-certify loop.

    Each pass solves the weighted relaxation and classifies its optimal
    face; pass 1 starts from x = 1 (ones_tableau), and passes 2..k
    start from the previous pass's optimal tableau, which stays feasible
    because only the cost changes. Only a unique optimum reaches
    the verdict, which certifies when the support count is within the
    budget s_star and s_star * eta1 clears the threshold strictly; it
    stops solving eta_j as soon as s_star falls below the support count.
    Each eta_j LP starts from (u = 0, t = c_j), as it does outside certify.
    Otherwise the weights are adjusted and the loop retries, up to
    max_weight_iterations.

    The loop stops at a weight fixed point: when adjust_weights returns
    the weights pass k already had, a discrepancy says so and no later
    pass runs, since it would equal pass k. Its weighted LP would start
    from pass k's optimal tableau under the same cost and take no pivot,
    classify_case would read the same tableau, and each eta_j would be
    solved from the same start under the same c and beta.

    A certified recovery is then checked against branch_and_bound_ip, and
    a refuted one is not certified.
    """
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
    for k in range(1, config.max_weight_iterations + 1):
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
        nxt = adjust_weights(sol.x)
        if np.array_equal(nxt.c, c.c):
            discrepancies.append(f"weights repeat from pass {k}")
            break
        c = nxt
    else:
        discrepancies.append("weight-adjustment iteration budget exhausted")

    recovered = None
    if sol.status is Status.OPTIMAL:
        recovered = ceil_recover(np.minimum(np.maximum(sol.x, 0.0), 1.0))

    bf_verified = None
    bf_value = None
    optimum = None
    if certified:
        bf_value, optimum = branch_and_bound_ip(inst)
        bf_verified = int(recovered.sum()) == bf_value and bool(inst.covers(recovered))
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
