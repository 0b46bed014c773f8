"""Property tests of the feasible start bases: x = 1 for covering LPs and
(u = 0, t = c_j) for eta_j LPs, each against a solve from the slack
basis."""

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
from wlpcert.lp import _load_basis, _standardize

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


@settings(max_examples=150)
@given(instances())
def test_covering_start_matches_slack_start(drawn):
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
    slack = solve(lp)
    assert ones.status is slack.status
    # A >= 0, so the LP is feasible exactly when x = 1 is.
    coverable = bool(np.all(inst.A.sum(axis=1) >= inst.b))
    assert (ones.status is Status.OPTIMAL) == coverable
    if ones.status is Status.OPTIMAL:
        assert ones.value == pytest.approx(slack.value, rel=0, abs=1e-9)
        assert np.all(inst.A @ ones.x >= inst.b - 1e-9)
        assert np.all((ones.x >= -1e-9) & (ones.x <= 1 + 1e-9))


def _slack_start_eta(sf, c, beta, col):
    """eta_j with its LP solved from the slack basis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GOODNESS, "solve", lambda lp, start=None: solve(lp))
        return eta_j(sf, c, beta, col)


@settings(max_examples=60)
@given(instances())
def test_eta_start_matches_slack_start(drawn):
    inst, c = drawn
    sf = to_standard_form(inst)
    weights = Weights(c=c)
    beta = beta_bar(sf, weights)
    for col in range(inst.n):
        value, q = eta_j(sf, weights, beta, col)
        slack, _ = _slack_start_eta(sf, weights, beta, col)
        assert value == pytest.approx(slack, rel=0, abs=1e-12)
        target = np.zeros(inst.n)
        target[col] = c[col]
        attained = np.max(np.abs(target - sf.T @ q))
        assert attained == pytest.approx(value, rel=0, abs=1e-9)
