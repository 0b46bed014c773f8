"""Adjust-and-certify driver.

Solves the weighted relaxation, classifies the optimal face, reweights
the objective when the optimum is not unique, certifies a unique optimum
via the s * eta1 threshold test, recovers the binary optimum by ceiling,
and optionally checks a certified recovery against the 0-1 optimum
found by LP branch-and-bound.
"""

from __future__ import annotations

import math
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
    ELIM_TOL,
    UNIQUE_TOL,
    LinearProgram,
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
    # Check a certified recovery with branch_and_bound_ip.
    brute_force_verify: bool = True

    def __post_init__(self):
        if self.max_weight_iterations < 1:
            raise ValueError("max_weight_iterations must be >= 1")
        beta = self.beta_override
        if beta is not None and not 0 < beta < math.inf:
            raise ValueError("beta override must be positive and finite")


@dataclass(frozen=True, eq=False)
class Certificate:
    iterations: tuple  # one Pass per weight-adjustment pass
    lp_solution: LpSolution | None
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


def covering_lp(A, b, c) -> LinearProgram:
    """min c^T x over A x >= b, 0 <= x <= 1: the weighted relaxation, and
    each branch-and-bound node's LP."""
    return LinearProgram(
        objective=c, ineq_matrix=-A, ineq_rhs=-b, upper=np.ones(len(c))
    )


def ones_tableau(A, b) -> tuple:
    """The start (tableau, basis) of covering_lp(A, b, c) at x = 1, built in
    closed form for solve: each covering row stays on its slack, which
    then holds A 1 - b, and x_j is basic in bound row j. Since A >= 0 this
    start is feasible exactly when the LP is.

    It is the slack-basis tableau after pivoting x_0, .., x_{n-1} into
    their bound rows in turn, byte for byte up to the sign of a zero
    entry: the covering rows [0 | I_m | A | A 1 - b] over the bound rows
    [I_n | 0 | I_n | 1]. Each pivot leaves alone an entry A_ij at most
    ELIM_TOL, which keeps -A_ij in column j and 0 in bound slack j, and
    adds the others to the right-hand side -b_i in column order.
    """
    m, n = A.shape
    moved = np.abs(A) > ELIM_TOL
    added = np.where(moved, A, 0.0)
    rhs = -b
    T = np.zeros((m + n, 2 * n + m + 1))
    T[:m, :n] = np.where(moved, 0.0, -A)
    T[:m, n + m : -1] = added
    # A row with no moved entry keeps -b_i, even a -0.0.
    T[:m, -1] = np.where(
        moved.any(axis=1), np.hstack([rhs[:, None], added]).cumsum(axis=1)[:, -1], rhs
    )
    T[m:, :n] = np.eye(n)
    T[m:, n + m : -1] = np.eye(n)
    T[m:, -1] = 1.0
    np.fill_diagonal(T[:m, n:], 1.0)
    return T, np.concatenate([np.arange(n, n + m), np.arange(n)])


def solve_weighted_lp(
    inst: ZeroOneInstance, c: Weights, start: LpSolution | tuple | None = None
) -> LpSolution:
    return solve(covering_lp(inst.A, inst.b, c.c), start=start)


def classify_case(sol: LpSolution) -> CaseKind:
    """Uniqueness and support-structure classification of the optimal face
    of sol, a solution of the weighted LP.

    The same/different-sparsity split compares the always-positive
    support with the possibly-positive support, which is a heuristic for
    faces of dimension > 1.
    """
    hi_support = set()
    lo_support = set()
    width = 0.0
    for j, (lo, hi) in enumerate(optimal_face_range(sol, range(sol.x.size))):
        width = max(width, hi - lo)
        if hi > ZERO_TOL:
            hi_support.add(j)
        if lo > ZERO_TOL:
            lo_support.add(j)
    if width <= UNIQUE_TOL:
        return CaseKind.UNIQUE_OPTIMUM
    if hi_support == lo_support:
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
    order = sorted(range(n), key=lambda i: (-x[i], i))
    weights = np.empty(n)
    for rank, idx in enumerate(order):
        weights[idx] = 1.0 + 0.25 * (rank / (n - 1) if n > 1 else 0.0)
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


def branch_and_bound_ip(inst: ZeroOneInstance) -> tuple:
    """Exact 0-1 minimum by depth-first LP branch-and-bound; (value,
    optimum) with optimum a 0-1 tuple, (+inf, None) when infeasible.

    A node fixes some variables: x_j = 1 moves column j to the right-hand
    side, x_j = 0 drops it. Its bound is the fixed ones plus
    ceil(LP value - BRANCH_BOUND_TOL), since the 0-1 optimum is an integer
    no smaller than the LP value. A >= 0, so the LP point rounded up is
    feasible and becomes the incumbent when it is better. The node branches
    on its most fractional variable, x_j = 1 first. Each node LP starts
    from x = 1 (ones_tableau), so an infeasible node ends INFEASIBLE in
    phase 1. Raises LpError after BRANCH_NODE_LIMIT nodes.
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
            if not free.size:
                continue
            A, b = inst.A[np.ix_(rows, free)], rhs[rows]
            sol = solve(
                covering_lp(A, b, np.ones(free.size)), start=ones_tableau(A, b)
            )
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
        if point.sum() < best_value and np.all(inst.A @ point >= inst.b - ZERO_TOL):
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
    start phase 2 from the previous pass's optimal tableau, which stays
    feasible because only the cost changes. Only a unique optimum reaches
    the verdict, which certifies when the support count is within the
    budget s_star and s_star * eta1 clears the threshold strictly; it
    stops solving eta_j as soon as s_star falls below the support count.
    Each eta_j LP starts from (u = 0, t = c_j), as it does outside certify.
    Otherwise the weights are adjusted and the loop retries, up to
    max_weight_iterations.

    The loop stops at a weight fixed point: when adjust_weights returns
    the weights pass k already had, passes k+1.. are filled with pass k's
    record and a discrepancy says so. This is exact. Under the same
    weights the next weighted LP starts from pass k's own optimal tableau
    with the same cost and right-hand side. An optimal tableau's
    right-hand side is nonnegative up to rounding far below PIVOT_TOL, so
    phase 1 negates no row, and phase 2 computes the same reduced costs
    and takes no pivot; classify_case then reads the same tableau. Each
    eta_j repeats because it is solved from the same start under the same
    c and beta. The next pass therefore equals pass k, and by induction so
    does every later pass.

    With brute_force_verify, a certified recovery is then checked against
    branch_and_bound_ip, and a refuted one is not certified.
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
    budget = config.max_weight_iterations
    for k in range(1, budget + 1):
        sol = solve_weighted_lp(
            inst, c, ones_tableau(inst.A, inst.b) if sol is None else sol
        )
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
        if k < budget and np.array_equal(nxt.c, c.c):
            iterations += [iterations[-1]] * (budget - k)
            discrepancies.append("weight-adjustment iteration budget exhausted")
            discrepancies.append(
                f"weights repeat from pass {k}; passes {k + 1}..{budget} "
                "are identical"
            )
            break
        c = nxt
    else:
        discrepancies.append("weight-adjustment iteration budget exhausted")

    recovered = None
    if sol.status is Status.OPTIMAL:
        recovered = ceil_recover(np.clip(sol.x, 0.0, 1.0))

    bf_verified = None
    bf_value = None
    optimum = None
    if config.brute_force_verify and certified:
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
