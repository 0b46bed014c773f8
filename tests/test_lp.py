from dataclasses import replace

import numpy as np
import pytest

from wlpcert import (
    LinearProgram,
    LpError,
    Status,
    Weights,
    covering_lp,
    eta_j,
    goodness,
    optimal_face_range,
    random_instance,
    solve,
    solve_weighted_lp,
    to_standard_form,
)

from wlpcert.lp import (
    COST_TOL,
    INF,
    _iteration_budget,
    _phase1,
    _phase2,
    _standardize,
)

from _oracles import enumerate_lp_minimum, reference_face_range, reference_solve
from conftest import cycle_instance


def random_lp(seed):
    """Feasible box-bounded LP with a known feasible point by construction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    upper = rng.uniform(1.0, 3.0, size=n)
    x0 = rng.uniform(0, 1, size=n) * upper
    n_ineq = int(rng.integers(1, 4))
    ineq = rng.uniform(-2, 2, size=(n_ineq, n))
    ineq_rhs = ineq @ x0 + rng.uniform(0, 2, size=n_ineq)
    n_eq = int(rng.integers(0, 2))
    eq = rng.uniform(-2, 2, size=(n_eq, n))
    eq_rhs = eq @ x0
    objective = rng.uniform(-3, 3, size=n)
    return LinearProgram(
        objective=objective,
        eq_matrix=eq,
        eq_rhs=eq_rhs,
        ineq_matrix=ineq,
        ineq_rhs=ineq_rhs,
        upper=upper,
    )


class TestSolve:
    def test_trivial_nonnegativity(self):
        sol = solve(LinearProgram(objective=np.array([1.0])))
        assert sol.status is Status.OPTIMAL
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_example1_weighted_problem(self, ex1, ones3):
        sol = solve_weighted_lp(ex1, ones3)
        assert sol.status is Status.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(sol.x, [0.0, 0.5, 0.5], atol=1e-8)
        assert sol.residual <= 1e-8

    def test_unbounded(self):
        sol = solve(LinearProgram(objective=np.array([-1.0])))
        assert sol.status is Status.UNBOUNDED

    def test_infeasible(self):
        sol = solve(
            LinearProgram(
                objective=np.array([1.0]),
                eq_matrix=np.array([[1.0]]),
                eq_rhs=np.array([2.0]),
                upper=np.array([1.0]),
            )
        )
        assert sol.status is Status.INFEASIBLE

    def test_deterministic_including_basis(self, ex1, ones3):
        lp = covering_lp(ex1.A, ex1.b, ones3.c)
        a, b = solve(lp), solve(lp)
        assert a.basis == b.basis
        np.testing.assert_array_equal(a.x, b.x)
        assert a.value == b.value

    def test_iteration_limit_is_explicit(self, ex1, ones3):
        sol = solve(covering_lp(ex1.A, ex1.b, ones3.c), max_iters=1)
        assert sol.status is Status.ITERATION_LIMIT

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_vertex_enumeration(self, seed):
        lp = random_lp(seed)
        sol = solve(lp)
        oracle = enumerate_lp_minimum(
            lp.objective, lp.eq_matrix, lp.eq_rhs,
            lp.ineq_matrix, lp.ineq_rhs, np.zeros(lp.nvars), lp.upper,
        )
        if oracle is None:
            assert sol.status is Status.INFEASIBLE
        else:
            assert sol.status is Status.OPTIMAL
            assert sol.value == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("seed", range(40))
    def test_optimal_solutions_respect_constraints(self, seed):
        lp = random_lp(seed)
        sol = solve(lp)
        if sol.status is Status.OPTIMAL:
            assert sol.residual <= 1e-8


class TestOptimalFace:
    def test_unique_vertex_has_zero_width(self, ex1, ones3):
        ranges = optimal_face_range(solve_weighted_lp(ex1, ones3), range(3))
        assert len(ranges) == 3
        for lo, hi in ranges:
            assert hi - lo <= 1e-7

    def test_example2_x1_has_positive_width(self, ex2, ones3):
        [(lo, hi)] = optimal_face_range(solve_weighted_lp(ex2, ones3), [0])
        assert hi - lo > 1e-6
        # optimal face is x1 + x2 = 1.5, x3 = 0 with x2 in [0.5, 1]
        assert lo == pytest.approx(0.5, abs=1e-8)
        assert hi == pytest.approx(1.0, abs=1e-8)

    def test_zero_objective_over_polytope_has_positive_width(self):
        lp = LinearProgram(
            objective=np.zeros(2),
            ineq_matrix=np.array([[1.0, 1.0]]),
            ineq_rhs=np.array([1.0]),
            upper=np.array([1.0, 1.0]),
        )
        for lo, hi in optimal_face_range(solve(lp), range(2)):
            assert lo == pytest.approx(0.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)


def _fingerprint(sol):
    x = None if sol.x is None else (sol.x + 0.0).tobytes()
    return (
        sol.status, sol.iterations, sol.basis, repr(sol.value), x, repr(sol.residual)
    )


@pytest.fixture
def certificate_lps(ex1, ex2, ex3, monkeypatch):
    """The weighted LP and every eta_j LP at beta = 1/2 of examples 1-3
    and the 9-cycle, at unit weights."""
    lps = []

    def record(lp):
        lps.append(lp)
        return solve(lp)

    monkeypatch.setattr(goodness, "solve", record)
    for inst in (ex1, ex2, ex3, cycle_instance(9)):
        sf = to_standard_form(inst)
        c = Weights(np.ones(inst.n))
        lps.append(covering_lp(inst.A, inst.b, c.c))
        for j in range(inst.n):
            eta_j(sf, c, 0.5, j)
    return lps


class TestPivotIdentity:
    """The vectorised simplex takes exactly the reference row loop's pivots."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lp(self, seed):
        lp = random_lp(seed)
        assert _fingerprint(solve(lp)) == _fingerprint(reference_solve(lp))

    def test_certificate_lps(self, certificate_lps):
        assert len(certificate_lps) == 4 + 3 + 3 + 3 + 9
        for lp in certificate_lps:
            assert _fingerprint(solve(lp)) == _fingerprint(reference_solve(lp))

    @pytest.mark.parametrize("max_iters", range(1, 6))
    def test_iteration_budgets(self, max_iters, certificate_lps):
        for lp in certificate_lps + [random_lp(seed) for seed in range(40)]:
            assert _fingerprint(solve(lp, max_iters)) == _fingerprint(
                reference_solve(lp, max_iters)
            )


def _all_artificial_solve(lp):
    """(status, value) of the two-phase simplex with an artificial on
    every row, whatever slacks A has."""
    A, b, c, _ = _standardize(lp)
    max_iters = _iteration_budget(A)
    status, it1, T, basis = _phase1(A, b, np.full(A.shape[0], -1), max_iters)
    if status is not Status.OPTIMAL:
        return status, None
    status, _, z = _phase2(T, basis, c, max_iters - it1)
    return status, None if z is None else float(lp.objective @ z[: lp.nvars])


class TestSlackStart:
    """Phase 1 starts each non-re-signed inequality and bound row on its
    own slack, and puts an artificial on every other row."""

    @staticmethod
    def assert_matches_all_artificial(lp):
        sol = solve(lp)
        status, value = _all_artificial_solve(lp)
        assert sol.status is status
        if status is Status.OPTIMAL:
            assert sol.value == pytest.approx(value, rel=0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lp_matches_all_artificial(self, seed):
        self.assert_matches_all_artificial(random_lp(seed))

    def test_certificate_lps_match_all_artificial(self, certificate_lps):
        for lp in certificate_lps:
            self.assert_matches_all_artificial(lp)

    def test_eta_lp_has_one_artificial(self, ex1, ex2, ex3, certificate_lps):
        # Every eta_j LP re-signs its row n. The weighted LP re-signs its
        # covering rows with b_i > 0; its rows with b_i = 0 and its bound
        # rows start on their slacks.
        lps = iter(certificate_lps)
        for inst in (ex1, ex2, ex3, cycle_instance(9)):
            *_, start = _standardize(next(lps))
            assert (start < 0).nonzero()[0].tolist() == (
                (inst.b > 0).nonzero()[0].tolist()
            )
            for _ in range(inst.n):
                lp = next(lps)
                *_, start = _standardize(lp)
                last = lp.ineq_matrix.shape[0] - 1
                assert (start < 0).nonzero()[0].tolist() == [last]
        assert next(lps, None) is None

    def test_slack_start_needs_no_phase1_pivot(self):
        lp = LinearProgram(
            objective=np.array([-1.0, -2.0, 0.5]),
            ineq_matrix=np.array([[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]]),
            ineq_rhs=np.array([4.0, 0.0]),
            upper=np.array([3.0, INF, 1.0]),
        )
        A, b, _, start = _standardize(lp)
        assert np.all(start >= 0)
        status, used, T, basis = _phase1(A, b, start, _iteration_budget(A))
        assert status is Status.OPTIMAL and used == 0
        np.testing.assert_array_equal(basis, start)
        assert solve(lp).status is Status.OPTIMAL


class TestFaceRangeMatchesProbes:
    """Each face range is within 1e-12 of the two standalone solves of the
    pinned-objective LP that it stands for."""

    def check(self, lp):
        sol = solve(lp)
        pinned = replace(
            lp,
            eq_matrix=np.vstack([lp.eq_matrix, lp.objective[None, :]]),
            eq_rhs=np.concatenate([lp.eq_rhs, [sol.value]]),
        )
        ranges = optimal_face_range(sol, range(lp.nvars))
        assert len(ranges) == lp.nvars
        for var, (lo, hi) in enumerate(ranges):
            e = np.zeros(lp.nvars)
            e[var] = 1.0
            lo_sol = solve(replace(pinned, objective=e))
            hi_sol = solve(replace(pinned, objective=-e))
            expected_lo = -INF if lo_sol.status is Status.UNBOUNDED else lo_sol.value
            expected_hi = INF if hi_sol.status is Status.UNBOUNDED else -hi_sol.value
            np.testing.assert_allclose(
                (lo, hi), (expected_lo, expected_hi), rtol=0, atol=1e-12
            )

    def test_examples_and_cycle(self, ex1, ex2, ex3):
        for inst in (ex1, ex2, ex3, cycle_instance(9)):
            self.check(covering_lp(inst.A, inst.b, np.ones(inst.n)))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        inst = random_instance(4, 6, seed)
        self.check(covering_lp(inst.A, inst.b, np.ones(inst.n)))

    def test_unbounded_direction(self):
        # x0 - x1 = 0 with a zero objective: both variables are free upward.
        lp = LinearProgram(
            objective=np.zeros(2),
            eq_matrix=np.array([[1.0, -1.0]]),
            eq_rhs=np.array([0.0]),
        )
        self.check(lp)
        assert optimal_face_range(solve(lp), range(2)) == [(0.0, INF), (0.0, INF)]


class TestFaceFromOptimalTableau:
    """optimal_face_range reads the face off the tableau that solve ended
    on; reference_face_range probes the pinned-objective LP instead."""

    def assert_matches_reference(self, lp, sol, ranges):
        expected = reference_face_range(lp, sol.value, range(lp.nvars))
        np.testing.assert_allclose(ranges, expected, rtol=0, atol=1e-12)

    def test_degenerate_vertex_has_zero_width(self):
        # min x0 + x1 with x0 + x1 >= 1 and x1 <= 0: x1 is basic at 0, so
        # the slack of x1 <= 0 has reduced cost 0 yet cannot enter above 0.
        lp = LinearProgram(
            objective=np.ones(2),
            ineq_matrix=np.array([[-1.0, -1.0], [0.0, 1.0]]),
            ineq_rhs=np.array([-1.0, 0.0]),
        )
        sol = solve(lp)
        T, basis, cost = sol._optimum
        reduced = cost - cost[basis] @ T[:, :-1]
        assert np.setdiff1d((reduced <= COST_TOL).nonzero()[0], basis).size
        ranges = optimal_face_range(sol, range(2))
        assert ranges == [(1.0, 1.0), (0.0, 0.0)]
        self.assert_matches_reference(lp, sol, ranges)

    def test_repeat_call_leaves_solution_unchanged(self, ex2, ones3):
        lp = covering_lp(ex2.A, ex2.b, ones3.c)
        sol = solve(lp)
        before = [a.tobytes() for a in sol._optimum]
        first = optimal_face_range(sol, range(lp.nvars))
        assert optimal_face_range(sol, range(lp.nvars)) == first
        assert [a.tobytes() for a in sol._optimum] == before
        self.assert_matches_reference(lp, sol, first)

    def test_non_optimal_solution_raises(self):
        infeasible = LinearProgram(
            objective=np.array([1.0]),
            eq_matrix=np.array([[1.0]]),
            eq_rhs=np.array([2.0]),
            upper=np.array([1.0]),
        )
        unbounded = LinearProgram(objective=np.array([-1.0]))
        for sol in (solve(infeasible), solve(unbounded), solve(infeasible, 1)):
            assert sol.status is not Status.OPTIMAL
            with pytest.raises(ValueError, match="no optimal face"):
                optimal_face_range(sol, [0])
        with pytest.raises(LpError, match="infeasible"):
            reference_face_range(infeasible, 0.0, [0])
