"""Property tests of the feasible start bases: x = 1 for covering LPs and
(u = 0, t = c_j) for eta_j LPs, each against vertex enumeration."""

import importlib

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from wlpcert import (
    Status,
    Weights,
    ZeroOneInstance,
    beta_bar,
    covering_lp,
    eta_j,
    solve,
    to_standard_form,
)
from wlpcert.certify import covering_start
from wlpcert.lp import PIVOT_TOL, _load_basis, _standardize

from _oracles import enumerate_lp_minimum

GOODNESS = importlib.import_module("wlpcert.goodness")
# b_i is its row sum times one of these.
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def instances(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    A = np.array(
        draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)),
        dtype=float,
    ).reshape(m, n)
    f = np.array(draw(st.lists(st.sampled_from(FRACTIONS), min_size=m, max_size=m)))
    if draw(st.booleans()):
        # A row that x = 1 does not cover, unless it is all zero.
        f[draw(st.integers(0, m - 1))] = draw(st.sampled_from((1.25, 1.5)))
    c = draw(st.lists(st.sampled_from((0.8, 0.9, 1.0)), min_size=n, max_size=n))
    return ZeroOneInstance(A=A, b=A.sum(axis=1) * f), np.array(c)


def lp_minimum(lp):
    """lp's minimum by vertex enumeration; None when it is infeasible."""
    return enumerate_lp_minimum(
        lp.objective, lp.ineq_matrix, lp.ineq_rhs, np.zeros(lp.nvars), lp.upper
    )


@settings(max_examples=150)
@given(instances())
def test_covering_start_matches_vertex_enumeration(drawn):
    inst, c = drawn
    lp = covering_lp(inst.A, inst.b, c)
    start = covering_start(inst.m, inst.n)
    # The start's point is x = 1, with A 1 - b on the covering slacks.
    T, basis = _standardize(lp)
    assert _load_basis(T, basis, start) == inst.n
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:, -1]
    np.testing.assert_array_equal(z[: inst.n], 1.0)
    np.testing.assert_allclose(
        z[inst.n : inst.n + inst.m], inst.A.sum(axis=1) - inst.b, rtol=0, atol=1e-12
    )
    ones = solve(lp, start=start)
    oracle = lp_minimum(lp)
    # A >= 0, so the LP is feasible exactly when x = 1 is.
    assert (ones.status is Status.OPTIMAL) == (oracle is not None)
    if ones.status is Status.OPTIMAL:
        assert ones.value == pytest.approx(oracle, rel=0, abs=1e-9)
        assert np.all(inst.A @ ones.x >= inst.b - 1e-9)
        assert np.all((ones.x >= -1e-9) & (ones.x <= 1 + 1e-9))
    # x = 1 ends INFEASIBLE, after its n loading pivots, exactly when some
    # row has A_i 1 < b_i - PIVOT_TOL: such a row keeps nonnegative
    # nonbasic entries, so phase 1 stops without a pivot. A drawn row
    # misses b_i by 0 or by at least 0.25, far above PHASE1_TOL.
    uncovered = bool(np.any(inst.A.sum(axis=1) < inst.b - PIVOT_TOL))
    assert (ones.status is Status.INFEASIBLE) == uncovered
    if uncovered:
        assert ones.iterations == inst.n


def _recorded_eta(A1, c, beta, col):
    """(eta_j, q, the LP that eta_j solved)."""
    lps = []

    def record(lp, start=None):
        lps.append(lp)
        return solve(lp, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GOODNESS, "solve", record)
        value, q = eta_j(A1, c, beta, col)
    return value, q, lps[0]


@settings(max_examples=60)
@given(instances())
def test_eta_start_matches_vertex_enumeration(drawn):
    inst, c = drawn
    A1 = to_standard_form(inst)
    weights = Weights(c=c)
    beta = beta_bar(A1, weights)
    for col in range(inst.n):
        value, q, lp = _recorded_eta(A1, weights, beta, col)
        # eta_j clips round-off below 0 to 0.
        assert value == pytest.approx(max(0.0, lp_minimum(lp)), rel=0, abs=1e-9)
        target = np.zeros(inst.n)
        target[col] = c[col]
        attained = np.max(np.abs(target - A1.T @ q))
        assert attained == pytest.approx(value, rel=0, abs=1e-9)
