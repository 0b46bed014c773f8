import math

import numpy as np
import pytest

from wlpcert import (
    LinearProgram,
    Status,
    optimal_face_range,
    solve,
    solve_weighted_lp,
    weighted_lp,
)

from _oracles import enumerate_lp_minimum


def random_lp(seed):
    """Feasible box-bounded LP with a known feasible point by construction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    lower = np.zeros(n)
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
        lower=lower,
        upper=upper,
    )


class TestSolve:
    def test_trivial_nonnegativity(self):
        sol = solve(LinearProgram(objective=np.array([1.0])))
        assert sol.status is Status.OPTIMAL
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_example1_weighted_problem(self, sf1, ones3):
        sol = solve_weighted_lp(sf1, ones3)
        assert sol.status is Status.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(sol.x[:3], [0.0, 0.5, 0.5], atol=1e-8)
        assert sol.residual <= 1e-8

    def test_unbounded(self):
        sol = solve(
            LinearProgram(
                objective=np.array([-1.0]),
                lower=np.array([0.0]),
                upper=np.array([math.inf]),
            )
        )
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

    def test_deterministic_including_basis(self, sf1, ones3):
        lp = weighted_lp(sf1, ones3)
        a, b = solve(lp), solve(lp)
        assert a.basis == b.basis
        np.testing.assert_array_equal(a.x, b.x)
        assert a.value == b.value

    def test_iteration_limit_is_explicit(self, sf1, ones3):
        sol = solve(weighted_lp(sf1, ones3), max_iters=1)
        assert sol.status is Status.ITERATION_LIMIT

    def test_free_variable_handling(self):
        # min x + y with x free, x + y = 1, y in [0, 1]
        sol = solve(
            LinearProgram(
                objective=np.array([1.0, 0.0]),
                eq_matrix=np.array([[1.0, 1.0]]),
                eq_rhs=np.array([1.0]),
                lower=np.array([-math.inf, 0.0]),
                upper=np.array([math.inf, 1.0]),
            )
        )
        assert sol.status is Status.OPTIMAL
        assert sol.value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_vertex_enumeration(self, seed):
        lp = random_lp(seed)
        sol = solve(lp)
        oracle = enumerate_lp_minimum(
            lp.objective, lp.eq_matrix, lp.eq_rhs,
            lp.ineq_matrix, lp.ineq_rhs, lp.lower, lp.upper,
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
    def test_unique_vertex_has_zero_width(self, sf1, ones3):
        lp = weighted_lp(sf1, ones3)
        sol = solve(lp)
        for var in range(3):
            lo, hi = optimal_face_range(lp, sol.value, var)
            assert hi - lo <= 1e-7

    def test_example2_x1_has_positive_width(self, sf2, ones3):
        lp = weighted_lp(sf2, ones3)
        sol = solve(lp)
        lo, hi = optimal_face_range(lp, sol.value, 0)
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
        sol = solve(lp)
        for var in range(2):
            lo, hi = optimal_face_range(lp, sol.value, var)
            assert lo == pytest.approx(0.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)
