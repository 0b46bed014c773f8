"""Property tests of the closed-form start tableaus, x = 1 for covering LPs
and (u = 0, t = c_j) for eta_j LPs: each against the reference row loop's
loaded tableau or its exact closed form, and against vertex enumeration.
Also the in-place pivot's untouched rows, the reduced costs that the
pivots carry in the last row, and the face probes read off the optimum,
and which of those probes run."""

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
    eta_j,
    optimal_face_range,
    solve,
    to_standard_form,
)
from wlpcert.certify import ones_tableau
from wlpcert.lp import ELIM_TOL, PIVOT_TOL, _pivot, _price

from _oracles import (
    _reference_pivot,
    assert_last_row_is_fresh,
    covering_lp,
    enumerate_lp_minimum,
    eta_lp,
    face_columns,
    face_probes,
    probe_every_face_range,
    reference_loaded_tableau,
)

GOODNESS = importlib.import_module("wlpcert.goodness")
LP = importlib.import_module("wlpcert.lp")
# b_i is its row sum times one of these.
FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
# Entries a loading pivot leaves alone (at or below ELIM_TOL), entries it
# eliminates, and sums that round.
ENTRIES = (0.0, 0.5 * ELIM_TOL, ELIM_TOL, 2 * ELIM_TOL, 0.1, 1.0 / 3.0, 1.0, 2.0, 3.0)


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


@st.composite
def tiny_entry_instances(draw):
    """Instances with zero rows, rows with b_i = 0, and entries at and
    below ELIM_TOL."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    A = np.array(
        draw(st.lists(st.sampled_from(ENTRIES), min_size=m * n, max_size=m * n))
    ).reshape(m, n)
    if draw(st.booleans()):
        A[draw(st.integers(0, m - 1))] = 0.0
    f = np.array(draw(st.lists(st.sampled_from(FRACTIONS), min_size=m, max_size=m)))
    return ZeroOneInstance(A=A, b=A.sum(axis=1) * f)


def lp_minimum(lp):
    """lp's minimum by vertex enumeration; None when it is infeasible."""
    return enumerate_lp_minimum(
        lp.objective, lp.ineq_matrix, lp.ineq_rhs, np.zeros(lp.nvars), lp.upper
    )


def assert_is_loaded_tableau(lp, T, basis, loaded):
    """(T, basis) is the reference's tableau after its loading pivots, byte
    for byte after + 0.0; the reference takes loaded pivots. Returns the
    reference's tableau."""
    ref_T, ref_basis, ref_loaded = reference_loaded_tableau(lp, basis.tolist())
    assert ref_loaded == loaded
    assert basis.tolist() == ref_basis
    assert (T + 0.0).tobytes() == (ref_T + 0.0).tobytes()
    return ref_T


@st.composite
def tiny_entry_covers(draw):
    """A tiny_entry_instances draw with costs as instances() draws them."""
    inst = draw(tiny_entry_instances())
    c = draw(st.lists(st.sampled_from((0.8, 0.9, 1.0)), min_size=inst.n, max_size=inst.n))
    return inst, np.array(c)


@settings(max_examples=150)
@given(st.one_of(instances(), tiny_entry_covers()))
def test_covering_start_matches_vertex_enumeration(drawn):
    inst, c = drawn
    lp = covering_lp(inst.A, inst.b, c)
    T, basis = ones_tableau(inst.A, inst.b)
    # The start's point is x = 1, with A 1 - b on the covering slacks.
    z = np.zeros(T.shape[1] - 1)
    z[basis] = T[:, -1]
    np.testing.assert_array_equal(z[: inst.n], 1.0)
    np.testing.assert_allclose(
        z[inst.n : inst.n + inst.m], inst.A.sum(axis=1) - inst.b, rtol=0, atol=1e-12
    )
    ones = solve(c, start=(T, basis))
    oracle = lp_minimum(lp)
    # A >= 0, so the LP is feasible exactly when x = 1 is.
    assert (ones.status is Status.OPTIMAL) == (oracle is not None)
    if ones.status is Status.OPTIMAL:
        assert ones.value == pytest.approx(oracle, rel=0, abs=1e-9)
        assert np.all(inst.A @ ones.x >= inst.b - 1e-9)
        assert np.all((ones.x >= -1e-9) & (ones.x <= 1 + 1e-9))
    # x = 1 ends INFEASIBLE, with no pivot, exactly when some row has
    # A_i 1 < b_i - PIVOT_TOL, which leaves that row's right-hand side
    # negative. A drawn row misses b_i by 0 or by at least 0.25, far above
    # PIVOT_TOL.
    uncovered = bool(np.any(inst.A.sum(axis=1) < inst.b - PIVOT_TOL))
    assert (ones.status is Status.INFEASIBLE) == uncovered
    if uncovered:
        assert ones.iterations == 0


@settings(max_examples=150)
@given(tiny_entry_instances())
def test_ones_tableau_is_the_loaded_tableau(inst):
    # The closed form, byte for byte: the covering rows [0 | I_m | A |
    # A 1 - b], A 1 - b summed from -b_i in column order, over the bound
    # rows [I_n | 0 | I_n | 1].
    m, n = inst.A.shape
    T, basis = ones_tableau(inst.A, inst.b)
    expected = np.zeros((m + n, 2 * n + m + 1))
    for i in range(m):
        expected[i, n + i] = 1.0
        total = -inst.b[i]
        for j in range(n):
            expected[i, n + m + j] = inst.A[i, j]
            total += inst.A[i, j]
        expected[i, -1] = total
    for j in range(n):
        expected[m + j, j] = expected[m + j, n + m + j] = expected[m + j, -1] = 1.0
    assert T.tobytes() == expected.tobytes()
    assert basis.tolist() == list(range(n, n + m)) + list(range(n))
    # Where no loading pivot would leave an entry alone, that is with no
    # entry in (0, ELIM_TOL], it is also the reference's loaded tableau,
    # up to the sign of a zero.
    if not np.any((inst.A > 0) & (inst.A <= ELIM_TOL)):
        lp = covering_lp(inst.A, inst.b, np.ones(inst.n))
        assert_is_loaded_tableau(lp, T, basis, inst.n)


def _recorded_eta(A1, c, beta, col):
    """(eta_j, q, the LP that eta_j solved, a copy of its start). eta_j
    gives solve only the LP's cost, which must be eta_lp's."""
    calls = []

    def record(cost, start=None):
        lp = eta_lp(A1, c, beta, col)
        np.testing.assert_array_equal(cost, lp.objective)
        calls.append((lp, tuple(a.copy() for a in start)))
        return solve(cost, start=start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GOODNESS, "solve", record)
        value, q = eta_j(A1, c, beta, col)
    return (value, q) + calls[0]


@settings(max_examples=60)
@given(instances())
def test_eta_start_matches_vertex_enumeration(drawn):
    inst, c = drawn
    A1 = to_standard_form(inst)
    weights = Weights(c=c)
    beta = beta_bar(A1, weights)
    for col in range(inst.n):
        value, q, lp, _ = _recorded_eta(A1, weights, beta, col)
        # eta_j clips round-off below 0 to 0.
        assert value == pytest.approx(max(0.0, lp_minimum(lp)), rel=0, abs=1e-9)
        target = np.zeros(inst.n)
        target[col] = c[col]
        attained = np.max(np.abs(target - A1.T @ q))
        assert attained == pytest.approx(value, rel=0, abs=1e-9)


@settings(max_examples=60)
@given(tiny_entry_instances(), st.sampled_from((0.3, 0.7, 1.0)))
def test_eta_tableau_is_the_loaded_tableau(inst, cj):
    A1 = to_standard_form(inst)
    weights = Weights(c=np.full(inst.n, cj))
    for col in range(inst.n):
        *_, lp, (T, basis) = _recorded_eta(A1, weights, 0.5, col)
        ref_T = assert_is_loaded_tableau(lp, T, basis, 1)
        # The right-hand side is exact, to the sign of a zero.
        assert T[:, -1].tobytes() == ref_T[:, -1].tobytes()


SMALL = (0.0, -0.0, 0.5 * ELIM_TOL, -ELIM_TOL, ELIM_TOL)


@settings(max_examples=150)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.data(),
)
def test_pivot_leaves_small_rows_alone(rows, cols, data):
    # The pivot column's entries at or below ELIM_TOL in magnitude,
    # signed zeros included, leave their rows byte for byte; every other
    # row is the reference row loop's, byte for byte.
    values = st.sampled_from(SMALL + (1.0, -2.0, 0.1, 1.0 / 3.0, -0.7))
    T = np.array(
        data.draw(st.lists(values, min_size=rows * (cols + 1), max_size=rows * (cols + 1)))
    ).reshape(rows, cols + 1)
    col = data.draw(st.integers(0, cols - 1))
    row = data.draw(st.integers(0, rows - 1))
    T[row, col] = data.draw(st.sampled_from((1.0, 0.5, -3.0, 1.0 / 3.0)))
    basis = np.arange(rows)
    expected, expected_basis = T.copy(), basis.tolist()
    _reference_pivot(expected, expected_basis, row, col)
    small = np.abs(T[:, col]) <= ELIM_TOL
    small[row] = False
    before = T.copy()
    _pivot(T, basis, row, col)
    assert T[small].tobytes() == before[small].tobytes()
    assert T.tobytes() == expected.tobytes()
    assert basis.tolist() == expected_basis


@st.composite
def degenerate_covers(draw):
    """Covering LPs with ties: small integer A, duplicate columns, rows
    with b_i = 0 and costs drawn from two values."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 5))
    A = np.array(
        draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n)),
        dtype=float,
    ).reshape(m, n)
    if draw(st.booleans()):
        A[:, -1] = A[:, 0]
    f = np.array(draw(st.lists(st.sampled_from(FRACTIONS), min_size=m, max_size=m)))
    c = np.array(draw(st.lists(st.sampled_from((0.5, 1.0)), min_size=n, max_size=n)))
    return ZeroOneInstance(A=A, b=A.sum(axis=1) * f), c


def degenerate_optimum(drawn, warm):
    """The optimum of a drawn cover from x = 1, or warm from the optimum
    at unit cost."""
    inst, c = drawn
    start = ones_tableau(inst.A, inst.b)
    if warm:
        start = solve(np.ones(inst.n), start=start)
    sol = solve(c, start=start)
    assert sol.status is Status.OPTIMAL
    return sol


@settings(max_examples=200)
@given(degenerate_covers(), st.booleans())
def test_face_range_matches_every_probe(drawn, warm):
    sol = degenerate_optimum(drawn, warm)
    assert optimal_face_range(sol) == probe_every_face_range(sol, drawn[1])


@settings(max_examples=200)
@given(degenerate_covers(), st.booleans())
def test_last_row_is_fresh_pricing(drawn, warm):
    assert_last_row_is_fresh(degenerate_optimum(drawn, warm), drawn[1])


@settings(max_examples=200)
@given(degenerate_covers(), st.booleans())
def test_face_probe_runs_exactly_where_its_end_moves(drawn, warm):
    # optimal_face_range solves a probe, pricing its one-hot cost, once for
    # each (variable, side) end whose full probe pivots or ends UNBOUNDED,
    # and for no other end. Each probe passes solve's start gate and ends
    # with the status and pivots of the oracle's probe of that end.
    sol = degenerate_optimum(drawn, warm)
    columns = face_columns(sol, drawn[1])

    def end_of(obj):
        [position] = obj.nonzero()[0]
        return columns[position], 0 if obj[position] > 0 else 1

    objectives, probes = [], []

    def recording(T, basis, cost):
        objectives.append(cost.copy())
        return _price(T, basis, cost)

    def solving(cost, start):
        probe = solve(cost, start)
        probes.append((end_of(cost), probe))
        return probe

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LP, "_price", recording)
        mp.setattr(LP, "solve", solving)
        optimal_face_range(sol)
    ran = [end_of(obj) for obj in objectives]
    oracle = face_probes(sol, drawn[1])
    moves = {
        end
        for end, (status, pivots, _) in oracle.items()
        if pivots or status is Status.UNBOUNDED
    }
    assert sorted(ran) == sorted(moves)
    assert [end for end, _ in probes] == ran
    assert not any(probe.status is Status.INFEASIBLE for _, probe in probes)
    assert [(probe.status, probe.iterations) for _, probe in probes] == [
        oracle[end][:2] for end, _ in probes
    ]
