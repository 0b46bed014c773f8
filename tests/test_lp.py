import importlib
from dataclasses import replace

import numpy as np
import pytest

from wlpcert import (
    CertifyConfig,
    LinearProgram,
    LpError,
    LpSolution,
    Status,
    Weights,
    ZeroOneInstance,
    certify,
    covering_lp,
    eta_j,
    goodness,
    optimal_face_range,
    random_instance,
    solve,
    solve_weighted_lp,
    to_standard_form,
)
from wlpcert.certify import ones_tableau
from wlpcert.lp import (
    COST_TOL,
    INF,
    PIVOT_TOL,
    _iteration_budget,
    _phase1,
    _phase2,
    _standardize,
)

from _oracles import (
    all_artificial_solve,
    enumerate_lp_minimum,
    eta_lp,
    pin_objective,
    reference_face_range,
    reference_loaded_tableau,
    reference_solve,
    residual,
)
from conftest import cycle_instance, workload_cases


def random_lp(seed):
    """Feasible box-bounded LP with a known feasible point by construction."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    upper = rng.uniform(1.0, 3.0, size=n)
    x0 = rng.uniform(0, 1, size=n) * upper
    n_ineq = int(rng.integers(1, 4))
    ineq = rng.uniform(-2, 2, size=(n_ineq, n))
    ineq_rhs = ineq @ x0 + rng.uniform(0, 2, size=n_ineq)
    # An optional equality row eq x = eq @ x0, as the pair eq x <= r and
    # -eq x <= -r.
    n_eq = int(rng.integers(0, 2))
    eq = rng.uniform(-2, 2, size=(n_eq, n))
    r = eq @ x0
    objective = rng.uniform(-3, 3, size=n)
    return LinearProgram(
        objective=objective,
        ineq_matrix=np.vstack([ineq, eq, -eq]),
        ineq_rhs=np.concatenate([ineq_rhs, r, -r]),
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
        assert residual(covering_lp(ex1.A, ex1.b, ones3.c), sol.x) <= 1e-8

    def test_unbounded(self):
        sol = solve(LinearProgram(objective=np.array([-1.0])))
        assert sol.status is Status.UNBOUNDED

    def test_infeasible(self):
        sol = solve(
            LinearProgram(
                objective=np.array([1.0]),
                ineq_matrix=np.array([[-1.0]]),
                ineq_rhs=np.array([-2.0]),
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
            lp.objective, lp.ineq_matrix, lp.ineq_rhs, np.zeros(lp.nvars), lp.upper
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
            assert residual(lp, sol.x) <= 1e-8


class TestNonFiniteData:
    """LinearProgram rejects a non-finite entry in its objective, constraint
    matrix or right-hand side; an upper bound may be +inf."""

    @pytest.mark.parametrize("value", [INF, -INF, np.nan])
    def test_objective_raises(self, value):
        # With [inf, 1] solve returned OPTIMAL with value nan.
        with pytest.raises(ValueError, match="non-finite entry in the objective"):
            LinearProgram(objective=[value, 1.0])

    @pytest.mark.parametrize("value", [INF, -INF, np.nan])
    def test_ineq_matrix_raises(self, value):
        with pytest.raises(ValueError, match="non-finite entry in the ineq matrix"):
            LinearProgram(objective=[1.0], ineq_matrix=[[value]], ineq_rhs=[1.0])

    @pytest.mark.parametrize("value", [INF, -INF, np.nan])
    def test_ineq_rhs_raises(self, value):
        # With rhs inf solve returned OPTIMAL with x = [inf] and value -inf
        # for this LP, which is unbounded.
        with pytest.raises(ValueError, match="non-finite entry in the ineq rhs"):
            LinearProgram(objective=[-1.0], ineq_matrix=[[1.0]], ineq_rhs=[value])

    def test_infinite_upper_bound_is_no_bound(self):
        lp = LinearProgram(objective=[-1.0], upper=[INF])
        assert solve(lp).status is Status.UNBOUNDED


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


def _fingerprint(sol, lp, loaded=0):
    """sol's status, iterations plus loaded, basis, value, x and residual."""
    if sol.x is None:
        x = res = None
    else:
        x, res = (sol.x + 0.0).tobytes(), repr(residual(lp, sol.x))
    return sol.status, sol.iterations + loaded, sol.basis, repr(sol.value), x, res


@pytest.fixture
def certificate_lps(ex1, ex2, ex3):
    """The weighted LP and every eta_j LP at beta = 1/2 of examples 1-3
    and the 9-cycle, at unit weights."""
    lps = []
    for inst in (ex1, ex2, ex3, cycle_instance(9)):
        sf = to_standard_form(inst)
        c = Weights(np.ones(inst.n))
        lps.append(covering_lp(inst.A, inst.b, c.c))
        lps += [eta_lp(sf, c, 0.5, j) for j in range(inst.n)]
    return lps


def _small_cases(monkeypatch):
    """(instance, config, weights) of perfbench's small workload at seed 1."""
    return [
        (case.instance, case.config, case.weights)
        for case in workload_cases("small", 1, monkeypatch)
    ]


def _started_solves(monkeypatch, module_names, cases, warm=True):
    """(lp, start) of every solve that the named modules make from a start
    while certify runs on each (instance, config, weights) case: from an
    earlier optimum when warm, otherwise a copy of the (tableau, basis)
    start, which solve overwrites. Each solve is given only a cost, so lp
    is rebuilt under that cost: covering_lp on the rows of certify's last
    ones_tableau call, or eta_lp on the arguments of the running eta_j."""
    solves, rows, eta_args = [], [], []
    certify_module = importlib.import_module("wlpcert.certify")

    def tableau(A, b):
        rows[:] = [(A, b)]
        return ones_tableau(A, b)

    def eta(*args):
        eta_args[:] = [args]
        return eta_j(*args)

    def recorder(build):
        def record(cost, *args, start=None, **kwargs):
            if start is not None and isinstance(start, LpSolution) == warm:
                lp = build(cost)
                np.testing.assert_array_equal(lp.objective, cost)
                solves.append((lp, start if warm else tuple(a.copy() for a in start)))
            return solve(cost, *args, start=start, **kwargs)

        return record

    builders = {
        "wlpcert.certify": lambda cost: covering_lp(*rows[0], cost),
        "wlpcert.goodness": lambda cost: eta_lp(*eta_args[0]),
    }
    monkeypatch.setattr(certify_module, "ones_tableau", tableau)
    monkeypatch.setattr(goodness, "eta_j", eta)
    for name in module_names:
        module = importlib.import_module(name)
        monkeypatch.setattr(module, "solve", recorder(builders[name]))
    for inst, config, weights in cases:
        certify(inst, config, weights=weights)
    return solves


@pytest.fixture
def warm_cases(ex1, ex2, ex3, monkeypatch):
    """Examples 1-3, the 9-cycle and random_instance(10, 16, 1) at the
    default settings, then the inputs of perfbench's small workload at
    seed 1."""
    instances = (ex1, ex2, ex3, cycle_instance(9), random_instance(10, 16, 1))
    default = [(inst, CertifyConfig(), None) for inst in instances]
    return default + _small_cases(monkeypatch)


@pytest.fixture
def warm_passes(warm_cases, monkeypatch):
    """(lp, start) of every certify pass that starts from the previous
    pass's optimal tableau, on warm_cases."""
    return _started_solves(monkeypatch, ["wlpcert.certify"], warm_cases)


@pytest.fixture
def basis_solves(warm_cases, monkeypatch):
    """(lp, (tableau, basis)) of every solve that certify starts from a
    closed-form tableau on warm_cases: each first pass and branch-and-bound
    node from x = 1, each eta_j from (u = 0, t = c_j)."""
    return _started_solves(
        monkeypatch, ["wlpcert.certify", "wlpcert.goodness"], warm_cases, warm=False
    )


class TestPivotIdentity:
    """The vectorised simplex takes exactly the reference row loop's pivots."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lp(self, seed):
        lp = random_lp(seed)
        assert _fingerprint(solve(lp), lp) == _fingerprint(reference_solve(lp), lp)

    def test_certificate_lps(self, certificate_lps):
        assert len(certificate_lps) == 4 + 3 + 3 + 3 + 9
        for lp in certificate_lps:
            assert _fingerprint(solve(lp), lp) == _fingerprint(reference_solve(lp), lp)

    def test_warm_certify_passes(self, warm_passes):
        # Example 3 certifies on pass 2 and the 9-cycle ends on pass 1;
        # examples 1, 2 and random_instance(10, 16, 1) repeat their weights
        # on pass 2; the small inputs start 89 passes warm.
        assert len(warm_passes) == 1 + 1 + 1 + 1 + 89
        for lp, start in warm_passes:
            warm = solve(lp.objective, start=start)
            assert _fingerprint(warm, lp) == _fingerprint(
                reference_solve(lp, start=start), lp
            )

    def test_basis_starts(self, basis_solves):
        # From x = 1: 9 weighted and node LPs on the first five inputs and
        # 144 on the small inputs, one of them infeasible. From
        # (u = 0, t = c_j): every eta_j LP, 19 and 190. The reference loads
        # the same tableau, up to signed zeros, by pivots, which count in its
        # iterations: n for x = 1, 1 for an eta_j LP. Its budget is raised
        # by as many, so both simplexes have the same budget left.
        assert len(basis_solves) == 9 + 144 + 19 + 190
        statuses = []
        for lp, (T, basis) in basis_solves:
            listed = basis.tolist()
            loaded_T, _, loaded = reference_loaded_tableau(lp, listed)
            assert (T + 0.0).tobytes() == (loaded_T + 0.0).tobytes()
            assert loaded == (1 if lp.upper[-1] == INF else lp.nvars)
            budget = _iteration_budget(T[:, :-1])
            sol = solve(lp.objective, start=(T, basis))
            statuses.append(sol.status)
            reference = reference_solve(lp, budget + loaded, start=listed)
            assert _fingerprint(sol, lp, loaded) == _fingerprint(reference, lp)
        assert statuses.count(Status.INFEASIBLE) == 1

    @pytest.mark.parametrize("max_iters", range(1, 6))
    def test_iteration_budgets(self, max_iters, certificate_lps):
        for lp in certificate_lps + [random_lp(seed) for seed in range(40)]:
            assert _fingerprint(solve(lp, max_iters), lp) == _fingerprint(
                reference_solve(lp, max_iters), lp
            )


class TestWarmStart:
    """A re-solve under a new cost from an earlier optimal tableau of the
    same LP: no standardisation and no phase 1. The start holds the
    constraints, so solve takes only the new cost with it."""

    @staticmethod
    def covering_pair(seed):
        """(cold unit-cost solution, LP with rank-spaced costs) on the
        constraints of random_instance(6, 10, seed)."""
        inst = random_instance(6, 10, seed)
        start = solve(covering_lp(inst.A, inst.b, np.ones(inst.n)))
        c = np.random.default_rng(seed).permutation(np.linspace(0.8, 1.0, inst.n))
        return start, covering_lp(inst.A, inst.b, c)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_cold_solve(self, seed):
        start, lp = self.covering_pair(seed)
        warm, cold = solve(lp.objective, start=start), solve(lp)
        assert warm.status is cold.status
        assert warm.value == pytest.approx(cold.value, rel=0, abs=1e-9)
        assert warm.iterations <= cold.iterations
        assert residual(lp, warm.x) <= 1e-8

    def test_start_is_not_modified(self):
        start, lp = self.covering_pair(0)
        before = [a.tobytes() for a in start._optimum]
        solve(lp.objective, start=start)
        assert [a.tobytes() for a in start._optimum] == before

    def test_mismatched_width_raises(self):
        # The start's tableau has 16 rows and 26 columns.
        start, _ = self.covering_pair(0)
        with pytest.raises(ValueError, match="26 columns"):
            solve(np.ones(27), start=start)

    def test_lp_with_start_and_cost_without_start_raise(self, ex1):
        start, lp = self.covering_pair(0)
        with pytest.raises(ValueError, match="LinearProgram"):
            solve(lp, start=start)
        covering = covering_lp(ex1.A, ex1.b, np.ones(3))
        with pytest.raises(ValueError, match="LinearProgram"):
            solve(covering, start=ones_tableau(ex1.A, ex1.b))
        with pytest.raises(ValueError, match="needs a start"):
            solve(lp.objective)

    def test_other_matrix_of_same_width_raises(self):
        # A start can no longer be paired with another LP's constraints:
        # such an LP raises, and its cost alone is solved on the start's.
        start = solve(covering_lp(np.eye(2), np.ones(2), np.ones(2)))
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        lp = covering_lp(A, np.array([1.0, 0.0]), np.ones(2))
        assert solve(lp).value == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="LinearProgram"):
            solve(lp, start=start)
        # The same matrix under another right-hand side.
        with pytest.raises(ValueError, match="LinearProgram"):
            solve(covering_lp(np.eye(2), np.array([1.0, 0.5]), np.ones(2)), start=start)
        warm = solve(lp.objective, start=start)
        assert warm.status is Status.OPTIMAL
        assert warm.value == pytest.approx(2.0, abs=1e-12)

    def test_other_bound_pattern_raises(self):
        def lp(upper):
            return LinearProgram(
                objective=np.array([-1.0, -1.0]),
                ineq_matrix=np.array([[1.0, 1.0]]),
                ineq_rhs=np.array([3.0]),
                upper=np.array(upper),
            )

        start = solve(lp([1.0, INF]))
        with pytest.raises(ValueError, match="LinearProgram"):
            solve(lp([INF, 1.0]), start=start)
        # The same pattern with another finite value.
        with pytest.raises(ValueError, match="LinearProgram"):
            solve(lp([2.0, INF]), start=start)
        # Under a cost that favours x0, the start's bound x0 <= 1 holds.
        warm = solve(np.array([-2.0, -1.0]), start=start)
        assert warm.value == pytest.approx(-4.0, abs=1e-12)
        assert warm.x[0] == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def capped_cover(r):
        """min x0 + 2 x1 over x0 + x1 >= 1, x0 <= r. For r >= 1 the optimum
        is x = (1, 0), with the slack of x0 <= r basic at r - 1."""
        return LinearProgram(
            objective=np.array([1.0, 2.0]),
            ineq_matrix=np.array([[-1.0, -1.0], [1.0, 0.0]]),
            ineq_rhs=np.array([-1.0, r]),
        )

    def test_start_with_missing_row_raises(self):
        solved = solve(self.capped_cover(2.0))
        T, basis, cost = solved._optimum
        start = replace(solved, _optimum=(T[:-1], basis, cost))
        with pytest.raises(ValueError, match="1 rows and 4 columns, its basis lists 2"):
            solve(self.capped_cover(3.0).objective, start=start)

    def test_start_without_optimum_raises(self, ex1):
        lp = covering_lp(ex1.A, ex1.b, np.ones(ex1.n))
        start = solve(lp, max_iters=1)
        assert start._optimum is None
        with pytest.raises(ValueError, match="no optimal tableau"):
            solve(lp.objective, start=start)


class TestSlackStart:
    """Phase 1 starts every inequality and bound row on its own slack, and
    puts an artificial only on the rows whose right-hand side is below
    -PIVOT_TOL."""

    @staticmethod
    def assert_starts_on_own_slack(lp):
        # Row i starts on slack column nvars + i, with its right-hand side
        # as given.
        T, basis = _standardize(lp)
        rhs = np.concatenate([lp.ineq_rhs, lp.upper[np.isfinite(lp.upper)]])
        np.testing.assert_array_equal(basis, lp.nvars + np.arange(rhs.size))
        np.testing.assert_array_equal(T[:, basis], np.eye(rhs.size))
        np.testing.assert_array_equal(T[:, -1], rhs)

    @staticmethod
    def assert_matches_all_artificial(lp):
        sol = solve(lp)
        status, value = all_artificial_solve(lp)
        assert sol.status is status
        if status is Status.OPTIMAL:
            assert sol.value == pytest.approx(value, rel=0, abs=1e-9)

    @staticmethod
    def artificial_rows(lp):
        T, _ = _standardize(lp)
        return (T[:, -1] < -PIVOT_TOL).nonzero()[0].tolist()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lp_matches_all_artificial(self, seed):
        lp = random_lp(seed)
        self.assert_starts_on_own_slack(lp)
        self.assert_matches_all_artificial(lp)

    def test_certificate_lps_match_all_artificial(self, certificate_lps):
        for lp in certificate_lps:
            self.assert_starts_on_own_slack(lp)
            self.assert_matches_all_artificial(lp)

    def test_eta_lp_has_one_artificial(self, ex1, ex2, ex3, certificate_lps):
        # From the slack basis every eta_j LP puts an artificial on its row
        # n, and the weighted LP one on each covering row with b_i > 0; its
        # rows with b_i = 0 and its bound rows start on their slacks. (Their
        # cold solves in certify start from feasible bases instead.)
        lps = iter(certificate_lps)
        for inst in (ex1, ex2, ex3, cycle_instance(9)):
            assert self.artificial_rows(next(lps)) == (inst.b > 0).nonzero()[0].tolist()
            for _ in range(inst.n):
                lp = next(lps)
                assert self.artificial_rows(lp) == [lp.ineq_matrix.shape[0] - 1]
        assert next(lps, None) is None

    def test_slack_start_needs_no_phase1_pivot(self):
        lp = LinearProgram(
            objective=np.array([-1.0, -2.0, 0.5]),
            ineq_matrix=np.array([[1.0, 1.0, 1.0], [2.0, -1.0, 0.0]]),
            ineq_rhs=np.array([4.0, 0.0]),
            upper=np.array([3.0, INF, 1.0]),
        )
        T, basis = _standardize(lp)
        status, used, T1, basis1 = _phase1(T, basis, _iteration_budget(T[:, :-1]))
        assert status is Status.OPTIMAL and used == 0
        assert T1 is T and basis1 is basis
        np.testing.assert_array_equal(basis, [3, 4, 5, 6])
        assert solve(lp).status is Status.OPTIMAL

    def test_artificial_without_pivot_raises(self):
        # Row 1 is negative, but round-off has left every entry of it at
        # most PIVOT_TOL: its artificial ends phase 1 basic at 5e-8, within
        # PHASE1_TOL, with no column to leave through.
        T = np.array([[1.0, 0.0, 1.0], [0.0, 1e-10, -5e-8]])
        with pytest.raises(LpError, match="artificial of row 1"):
            _phase1(T, np.array([0, 1]), 10)


class TestBasisStart:
    """solve(cost, start=(tableau, basis)) starts from a tableau built on
    another basis, counts no loading pivot, and runs phase 1 only on the
    rows that basis leaves negative."""

    def test_slack_basis_is_the_slack_start(self, certificate_lps):
        for lp in certificate_lps:
            listed = solve(lp.objective, start=_standardize(lp))
            assert _fingerprint(listed, lp) == _fingerprint(solve(lp), lp)

    def test_feasible_basis_skips_phase1(self, ex1):
        # x = 1 covers example 1, so phase 1 takes no pivot from its
        # tableau; every pivot is phase 2's, and the reference takes 3
        # loading pivots more.
        lp = covering_lp(ex1.A, ex1.b, np.ones(3))
        T, basis = ones_tableau(ex1.A, ex1.b)
        assert np.all(T[:, -1] >= 0)
        listed = basis.tolist()
        status, used, _, _ = _phase1(T, basis, 100)
        assert status is Status.OPTIMAL and used == 0
        sol = solve(lp.objective, start=ones_tableau(ex1.A, ex1.b))
        assert sol.value == pytest.approx(solve(lp).value, rel=0, abs=1e-12)
        reference = reference_solve(lp, start=listed)
        assert _fingerprint(sol, lp, 3) == _fingerprint(reference, lp)

    @pytest.mark.parametrize("max_iters", range(1, 8))
    def test_loading_pivots_spend_the_budget(self, max_iters, ex1, ex2, ex3):
        # The reference's n loading pivots spend its budget; the closed-form
        # tableau has none to spend, so phases 1 and 2 get all of max_iters
        # and match the reference given n more. The last LP is infeasible,
        # so phase 1 runs.
        cover = ZeroOneInstance(A=np.ones((1, 2)), b=np.array([3.0]))
        for inst in (ex1, ex2, ex3, cycle_instance(9), cover):
            lp = covering_lp(inst.A, inst.b, np.ones(inst.n))
            T, basis = ones_tableau(inst.A, inst.b)
            listed = basis.tolist()
            sol = solve(lp.objective, max_iters, start=(T, basis))
            assert sol.iterations <= max_iters
            assert _fingerprint(sol, lp, inst.n) == _fingerprint(
                reference_solve(lp, max_iters + inst.n, start=listed), lp
            )

    def test_wrong_length_raises(self, ex1):
        lp = covering_lp(ex1.A, ex1.b, np.ones(3))
        T, _ = ones_tableau(ex1.A, ex1.b)
        with pytest.raises(ValueError, match="lists 5 columns"):
            solve(lp.objective, start=(T, np.arange(5)))

    def test_wrong_shape_raises(self, ex2):
        T, basis = ones_tableau(ex2.A[:2], ex2.b[:2])
        with pytest.raises(ValueError, match="5 rows and 8 columns"):
            solve(np.ones(9), start=(T, basis))


class TestFaceRangeMatchesProbes:
    """Each face range is within 1e-12 of the two standalone solves of the
    pinned-objective LP that it stands for."""

    def check(self, lp):
        sol = solve(lp)
        pinned = pin_objective(lp, sol.value)
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
            ineq_matrix=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            ineq_rhs=np.zeros(2),
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

    @staticmethod
    def count_probes(monkeypatch):
        """Count the phase-2 runs that optimal_face_range makes."""
        module = importlib.import_module("wlpcert.lp")
        calls = []

        def counting(*args):
            calls.append(args)
            return _phase2(*args)

        monkeypatch.setattr(module, "_phase2", counting)
        return calls

    def test_vertex_face_runs_no_probe(self, ex2, monkeypatch):
        # At the paper's weights for example 2 every nonbasic reduced cost
        # is positive, so the optimum x = (1, 0.5, 0) is the whole face.
        c = Weights(np.array([0.5, 0.7, 0.8]))
        sol = solve_weighted_lp(ex2, c)
        calls = self.count_probes(monkeypatch)
        ranges = optimal_face_range(sol, range(3))
        assert not calls
        assert ranges == [(x, x) for x in sol.x.tolist()]
        self.assert_matches_reference(covering_lp(ex2.A, ex2.b, c.c), sol, ranges)

    def test_wider_face_runs_probes(self, ex2, ones3, monkeypatch):
        sol = solve_weighted_lp(ex2, ones3)
        calls = self.count_probes(monkeypatch)
        optimal_face_range(sol, range(3))
        assert calls

    def test_degenerate_vertex_runs_probes(self, ex1, ones3, monkeypatch):
        # Example 1's optimum at unit weights is a single vertex, but x0 is
        # nonbasic with reduced cost 0, so the basis alone does not prove it.
        sol = solve_weighted_lp(ex1, ones3)
        calls = self.count_probes(monkeypatch)
        ranges = optimal_face_range(sol, range(3))
        assert calls
        assert max(hi - lo for lo, hi in ranges) <= 1e-12

    def test_warm_ladder_passes(self, monkeypatch):
        # Each warm pass's face, on the ladder inputs and the small inputs
        # at seed 1, is read off a tableau that phase 2 reached from the
        # previous pass's.
        module = importlib.import_module("wlpcert.certify")
        passes = []

        def record(inst, c, start=None):
            sol = solve_weighted_lp(inst, c, start)
            if isinstance(start, LpSolution):
                passes.append((covering_lp(inst.A, inst.b, c.c), sol))
            return sol

        monkeypatch.setattr(module, "solve_weighted_lp", record)
        for m, n in ((3, 3), (5, 8), (8, 12), (10, 16), (15, 24)):
            certify(random_instance(m, n, 1))
        # (8, 12) repeats its weights on pass 3, the others on pass 2.
        assert len(passes) == 1 + 1 + 2 + 1 + 1
        for inst, config, weights in _small_cases(monkeypatch):
            certify(inst, config, weights=weights)
        assert len(passes) == 6 + 89
        for lp, sol in passes:
            ranges = optimal_face_range(sol, range(lp.nvars))
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
            ineq_matrix=np.array([[-1.0]]),
            ineq_rhs=np.array([-2.0]),
            upper=np.array([1.0]),
        )
        unbounded = LinearProgram(objective=np.array([-1.0]))
        for sol in (solve(infeasible), solve(unbounded), solve(infeasible, 1)):
            assert sol.status is not Status.OPTIMAL
            with pytest.raises(ValueError, match="no optimal face"):
                optimal_face_range(sol, [0])
        with pytest.raises(LpError, match="infeasible"):
            reference_face_range(infeasible, 0.0, [0])
