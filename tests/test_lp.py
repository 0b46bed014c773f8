import importlib
from dataclasses import replace

import numpy as np
import pytest

from wlpcert import (
    CertifyConfig,
    LpError,
    LpSolution,
    Status,
    Weights,
    ZeroOneInstance,
    certify,
    eta_j,
    goodness,
    optimal_face_range,
    random_instance,
    solve,
    solve_weighted_lp,
    to_standard_form,
)
from wlpcert.certify import ones_tableau
from wlpcert.instance import ZERO_TOL
from wlpcert.lp import (
    INF,
    PIVOT_TOL,
    _iteration_budget,
    _pivot,
    _price,
)

from _oracles import (
    LinearProgram,
    _reference_tableau,
    all_artificial_solve,
    assert_last_row_is_fresh,
    assert_warm_matches_cold,
    covering_lp,
    enumerate_lp_minimum,
    eta_lp,
    face_columns,
    final_basis,
    fresh_reduced_costs,
    loaded_start,
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


def random_box_cover(seed):
    """Acceptance criterion 6's family of LPs, min objective @ x over
    G x >= G x0 with G >= 0 and 0 <= x <= 2, as the covering LP in
    y = x / 2, which ones_tableau starts at y = 1, that is x = 2 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(1, 9))
    objective = rng.uniform(-1.0, 2.0, size=n)
    G = rng.uniform(0.0, 2.0, size=(m, n))
    x0 = rng.uniform(0.0, 1.0, size=n)
    return covering_lp(2 * G, G @ x0, 2 * objective)


def ones_start(lp):
    """ones_tableau's start of lp, a covering_lp: x = 1."""
    return ones_tableau(-lp.ineq_matrix, -lp.ineq_rhs)


def slack_start(lp):
    """lp's slack-basis tableau (the reference's) as a start for solve."""
    return loaded_start(lp, _reference_tableau(lp)[1])


def from_ones(lp):
    """solve on lp, a covering_lp, from x = 1."""
    return solve(lp.objective, ones_start(lp))


def set_budget(monkeypatch, max_iters):
    """Give every simplex run max_iters pivots in place of its budget."""
    module = importlib.import_module("wlpcert.lp")
    monkeypatch.setattr(module, "_iteration_budget", lambda A: max_iters)


class TestSolve:
    def test_trivial_nonnegativity(self):
        lp = LinearProgram(objective=np.array([1.0]))
        sol = solve(lp.objective, slack_start(lp))
        assert sol.status is Status.OPTIMAL
        assert sol.value == pytest.approx(0.0, abs=1e-12)

    def test_example1_weighted_problem(self, ex1, ones3):
        sol = solve_weighted_lp(ex1, ones3)
        assert sol.status is Status.OPTIMAL
        assert sol.value == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(sol.x, [0.0, 0.5, 0.5], atol=1e-8)
        assert residual(covering_lp(ex1.A, ex1.b, ones3.c), sol.x) <= 1e-8

    def test_unbounded(self):
        lp = LinearProgram(objective=np.array([-1.0]))
        sol = solve(lp.objective, slack_start(lp))
        assert sol.status is Status.UNBOUNDED

    def test_infeasible(self):
        # x >= 2 with x <= 1: x = 1 leaves the covering row negative.
        sol = from_ones(covering_lp(np.ones((1, 1)), np.array([2.0]), np.ones(1)))
        assert sol.status is Status.INFEASIBLE
        assert sol.iterations == 0
        # A branch-and-bound node with no free column: a row with no
        # column and the least b_i above ZERO_TOL reads -b_i < -PIVOT_TOL.
        b = np.nextafter(ZERO_TOL, INF)
        sol = solve(np.ones(0), ones_tableau(np.zeros((1, 0)), np.array([b])))
        assert sol.status is Status.INFEASIBLE
        assert sol.iterations == 0

    def test_deterministic_including_basis(self, ex1, ones3):
        lp = covering_lp(ex1.A, ex1.b, ones3.c)
        a, b = from_ones(lp), from_ones(lp)
        assert final_basis(a) == final_basis(b)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.value == b.value

    def test_iteration_limit_is_explicit(self, ex1, ones3, monkeypatch):
        set_budget(monkeypatch, 1)
        sol = from_ones(covering_lp(ex1.A, ex1.b, ones3.c))
        assert sol.status is Status.ITERATION_LIMIT

    # The reference simplex runs on general LPs, checked here against
    # vertex enumeration; every pivot-identity test below trusts it.
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_vertex_enumeration(self, seed):
        lp = random_lp(seed)
        sol = reference_solve(lp)
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
        sol = reference_solve(lp)
        if sol.status is Status.OPTIMAL:
            assert residual(lp, sol.x) <= 1e-8


class TestNonFiniteData:
    """solve reads its tableau as given, so the LP data is kept finite where
    it enters: Weights rejects a non-finite objective and ZeroOneInstance a
    non-finite constraint matrix or right-hand side. An upper bound may be
    +inf: it adds no bound row."""

    @pytest.mark.parametrize("value", [INF, -INF, np.nan])
    def test_objective_raises(self, value):
        with pytest.raises(ValueError, match="nonempty finite vector"):
            Weights(c=[value, 1.0])

    @pytest.mark.parametrize("value", [INF, -INF, np.nan])
    def test_ineq_matrix_raises(self, value):
        with pytest.raises(ValueError, match="A contains a non-finite entry"):
            ZeroOneInstance(A=[[value]], b=[1.0])

    @pytest.mark.parametrize("value", [INF, -INF, np.nan])
    def test_ineq_rhs_raises(self, value):
        with pytest.raises(ValueError, match="b contains a non-finite entry"):
            ZeroOneInstance(A=[[1.0]], b=[value])

    def test_infinite_upper_bound_is_no_bound(self):
        lp = LinearProgram(objective=[-1.0], upper=[INF])
        assert solve(lp.objective, slack_start(lp)).status is Status.UNBOUNDED


class TestOptimalFace:
    def test_unique_vertex_has_zero_width(self, ex1, ones3):
        ranges = optimal_face_range(solve_weighted_lp(ex1, ones3))
        assert len(ranges) == 3
        for lo, hi in ranges:
            assert hi - lo <= 1e-7

    def test_example2_x1_has_positive_width(self, ex2, ones3):
        (lo, hi), *_ = optimal_face_range(solve_weighted_lp(ex2, ones3))
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
        sol = solve(lp.objective, slack_start(lp))
        for lo, hi in optimal_face_range(sol):
            assert lo == pytest.approx(0.0, abs=1e-9)
            assert hi == pytest.approx(1.0, abs=1e-9)


def _fingerprint(sol, lp):
    """sol's status, iterations, basis, value, x and residual."""
    if sol.x is None:
        x = res = None
    else:
        x, res = (sol.x + 0.0).tobytes(), repr(residual(lp, sol.x))
    basis = final_basis(sol)
    return sol.status, sol.iterations, basis, repr(sol.value), x, res


def eta_basis(lp):
    """The basis of eta_j's (u = 0, t = c_j) start of lp, an eta_lp: each
    row on its slack but row n, where t is basic."""
    m = lp.nvars - 1
    n = lp.ineq_matrix.shape[0] - 1
    listed = list(range(m + 1, 2 * m + n + 2))
    listed[n] = m
    return listed


@pytest.fixture
def certificate_lps(ex1, ex2, ex3):
    """(lp, listed) of the weighted LP and of every eta_j LP at beta = 1/2
    of examples 1-3 and the 9-cycle, at unit weights, each with the basis
    that certify starts it from: x = 1 and (u = 0, t = c_j)."""
    lps = []
    for inst in (ex1, ex2, ex3, cycle_instance(9)):
        sf = to_standard_form(inst)
        c = Weights(np.ones(inst.n))
        listed = ones_tableau(inst.A, inst.b)[1].tolist()
        lps.append((covering_lp(inst.A, inst.b, c.c), listed))
        for j in range(inst.n):
            lp = eta_lp(sf, c, 0.5, j)
            lps.append((lp, eta_basis(lp)))
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
    start. Each solve is given only a cost, so lp is rebuilt under that
    cost: covering_lp on the rows of certify's last ones_tableau call, or
    eta_lp on the arguments of the running eta_j."""
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


def assert_same_pivots(lp, start, max_iters=None):
    """solve on lp from start takes the reference's pivots under the same
    budget: max_iters, the one that set_budget gave, or by default solve's
    own. From a (tableau, basis) the reference starts on its own tableau on
    that basis; from an earlier optimum, on copies of its tableau and
    basis. Returns solve's solution."""
    sol = solve(lp.objective, start)
    if isinstance(start, LpSolution):
        T = start._optimum[0][:-1]
    else:
        start = loaded_start(lp, start[1].tolist())
        T = start[0]
    if max_iters is None:
        max_iters = _iteration_budget(T[:, :-1])
    reference = reference_solve(lp, max_iters, start=start)
    assert _fingerprint(sol, lp) == _fingerprint(reference, lp)
    return sol


class TestPivotIdentity:
    """The vectorised simplex takes exactly the reference row loop's
    pivots, and after each of them its last row holds the reduced costs
    that the reference prices afresh."""

    @pytest.fixture(autouse=True)
    def fresh_pricing(self, monkeypatch):
        """After each pivot of a solve, the tableau's last row is within
        1e-12 of the cost that _price last priced, priced afresh on the
        new basis."""
        module = importlib.import_module("wlpcert.lp")
        costs = []

        def price(T, basis, cost):
            costs.append(cost)
            return _price(T, basis, cost)

        def pivot(T, basis, row, col):
            _pivot(T, basis, row, col)
            fresh = fresh_reduced_costs(T[:-1], basis, costs[-1])
            np.testing.assert_allclose(T[-1, :-1], fresh, rtol=0, atol=1e-12)

        monkeypatch.setattr(module, "_price", price)
        monkeypatch.setattr(module, "_pivot", pivot)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lp(self, seed):
        lp = random_box_cover(seed)
        assert_same_pivots(lp, ones_start(lp))

    def test_certificate_lps(self, certificate_lps):
        assert len(certificate_lps) == 4 + 3 + 3 + 3 + 9
        for lp, listed in certificate_lps:
            assert_same_pivots(lp, loaded_start(lp, listed))

    def test_warm_certify_passes(self, warm_passes):
        # Example 3 certifies on pass 2 and the 9-cycle ends on pass 1;
        # examples 1, 2 and random_instance(10, 16, 1) repeat their weights
        # on pass 2; the small inputs start 89 passes warm.
        assert len(warm_passes) == 1 + 1 + 1 + 1 + 89
        for lp, start in warm_passes:
            assert_same_pivots(lp, start)

    def test_basis_starts(self, basis_solves):
        # From x = 1: 9 weighted and node LPs on the first five inputs and
        # 144 on the small inputs, one of them infeasible. From
        # (u = 0, t = c_j): every eta_j LP, 19 and 190. Each start is the
        # reference's own tableau on its basis, up to signed zeros, which
        # the reference loads from its slack basis by n pivots for x = 1
        # and 1 for an eta_j LP.
        assert len(basis_solves) == 9 + 144 + 19 + 190
        statuses = []
        for lp, (T, basis) in basis_solves:
            loaded_T, _, loaded = reference_loaded_tableau(lp, basis.tolist())
            assert (T + 0.0).tobytes() == (loaded_T + 0.0).tobytes()
            assert loaded == (1 if lp.upper[-1] == INF else lp.nvars)
            statuses.append(assert_same_pivots(lp, (T, basis)).status)
        assert statuses.count(Status.INFEASIBLE) == 1

    @pytest.mark.parametrize("max_iters", range(1, 8))
    def test_iteration_budgets(
        self, max_iters, ex1, ex2, ex3, certificate_lps, monkeypatch
    ):
        # Beside the random LPs, the weighted LPs of examples 1-3, C9 and a
        # 1x2 cover start from x = 1, which leaves the cover's row negative:
        # solve ends INFEASIBLE with no pivot, and so does the reference's
        # phase 1.
        set_budget(monkeypatch, max_iters)
        for lp, listed in certificate_lps:
            assert_same_pivots(lp, loaded_start(lp, listed), max_iters)
        cover = ZeroOneInstance(A=np.ones((1, 2)), b=np.array([3.0]))
        lps = [random_box_cover(seed) for seed in range(40)] + [
            covering_lp(inst.A, inst.b, np.ones(inst.n))
            for inst in (ex1, ex2, ex3, cycle_instance(9), cover)
        ]
        for lp in lps:
            sol = assert_same_pivots(lp, ones_start(lp), max_iters)
            assert sol.iterations <= max_iters


class TestWarmStart:
    """A re-solve under a new cost from an earlier optimal tableau of the
    same LP. The start holds the constraints, so solve takes only the new
    cost with it."""

    @staticmethod
    def covering_pair(seed):
        """(unit-cost solution from x = 1, LP with rank-spaced costs) on the
        constraints of random_instance(6, 10, seed)."""
        inst = random_instance(6, 10, seed)
        start = from_ones(covering_lp(inst.A, inst.b, np.ones(inst.n)))
        c = np.random.default_rng(seed).permutation(np.linspace(0.8, 1.0, inst.n))
        return start, covering_lp(inst.A, inst.b, c)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_cold_solve(self, seed):
        start, lp = self.covering_pair(seed)
        assert_warm_matches_cold(solve(lp.objective, start=start), from_ones(lp), lp)

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

    def test_cost_is_solved_on_the_start_constraints(self):
        # A start cannot be paired with another LP's constraints: solve
        # takes only a cost, which it solves on the start's constraints.
        start = from_ones(covering_lp(np.eye(2), np.ones(2), np.ones(2)))
        A = np.array([[1.0, 1.0], [0.0, 0.0]])
        lp = covering_lp(A, np.array([1.0, 0.0]), np.ones(2))
        assert from_ones(lp).value == pytest.approx(1.0, abs=1e-12)
        warm = solve(lp.objective, start=start)
        assert warm.status is Status.OPTIMAL
        assert warm.value == pytest.approx(2.0, abs=1e-12)

    def test_start_keeps_its_bounds(self):
        lp = LinearProgram(
            objective=np.array([-1.0, -1.0]),
            ineq_matrix=np.array([[1.0, 1.0]]),
            ineq_rhs=np.array([3.0]),
            upper=np.array([1.0, INF]),
        )
        start = solve(lp.objective, slack_start(lp))
        # Under a cost that favours x0, the start's bound x0 <= 1 holds.
        warm = solve(np.array([-2.0, -1.0]), start=start)
        assert warm.value == pytest.approx(-4.0, abs=1e-12)
        assert warm.x[0] == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def capped_cover(r):
        """min x0 + 2 x1 over x0 + x1 >= 1, x0 <= r. For r >= 1 the optimum
        is x = (1, 0), with the slack of x0 <= r basic at r - 1: the basis
        [0, 3], which is where capped_start starts."""
        return LinearProgram(
            objective=np.array([1.0, 2.0]),
            ineq_matrix=np.array([[-1.0, -1.0], [1.0, 0.0]]),
            ineq_rhs=np.array([-1.0, r]),
        )

    @classmethod
    def capped_start(cls, r):
        return loaded_start(cls.capped_cover(r), [0, 3])

    def test_start_with_missing_row_raises(self):
        solved = solve(self.capped_cover(2.0).objective, self.capped_start(2.0))
        T, basis = solved._optimum
        start = replace(solved, _optimum=(T[1:], basis))
        with pytest.raises(ValueError, match="1 rows and 4 columns, its basis lists 2"):
            solve(self.capped_cover(3.0).objective, start=start)

    def test_start_without_optimum_raises(self, ex1, monkeypatch):
        lp = covering_lp(ex1.A, ex1.b, np.ones(ex1.n))
        set_budget(monkeypatch, 1)
        start = from_ones(lp)
        assert start._optimum is None
        with pytest.raises(ValueError, match="no optimal tableau"):
            solve(lp.objective, start=start)


class TestSlackStart:
    """The reference's phase 1 starts every inequality and bound row on its
    own slack, and puts an artificial only on the rows whose right-hand
    side is below -PIVOT_TOL. It ends where a phase 1 with an artificial
    on every row ends, and so does solve from certify's starts."""

    @staticmethod
    def assert_starts_on_own_slack(lp):
        # Row i starts on slack column nvars + i, with its right-hand side
        # as given.
        T, basis = _reference_tableau(lp)
        rhs = np.concatenate([lp.ineq_rhs, lp.upper[np.isfinite(lp.upper)]])
        np.testing.assert_array_equal(basis, lp.nvars + np.arange(rhs.size))
        np.testing.assert_array_equal(T[:, basis], np.eye(rhs.size))
        np.testing.assert_array_equal(T[:, -1], rhs)

    @staticmethod
    def assert_matches_all_artificial(lp, sol):
        status, value = all_artificial_solve(lp)
        assert sol.status is status
        if status is Status.OPTIMAL:
            assert sol.value == pytest.approx(value, rel=0, abs=1e-9)

    @staticmethod
    def artificial_rows(lp):
        T, _ = _reference_tableau(lp)
        return (T[:, -1] < -PIVOT_TOL).nonzero()[0].tolist()

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lp_matches_all_artificial(self, seed):
        lp = random_lp(seed)
        self.assert_starts_on_own_slack(lp)
        self.assert_matches_all_artificial(lp, reference_solve(lp))

    def test_certificate_lps_match_all_artificial(self, certificate_lps):
        for lp, listed in certificate_lps:
            self.assert_starts_on_own_slack(lp)
            sol = solve(lp.objective, loaded_start(lp, listed))
            self.assert_matches_all_artificial(lp, sol)

    def test_eta_lp_has_one_artificial(self, ex1, ex2, ex3, certificate_lps):
        # From the slack basis every eta_j LP puts an artificial on its row
        # n, and the weighted LP one on each covering row with b_i > 0; its
        # rows with b_i = 0 and its bound rows start on their slacks. (Their
        # solves in certify start from feasible bases instead.)
        lps = iter(lp for lp, _ in certificate_lps)
        for inst in (ex1, ex2, ex3, cycle_instance(9)):
            assert self.artificial_rows(next(lps)) == (inst.b > 0).nonzero()[0].tolist()
            for _ in range(inst.n):
                lp = next(lps)
                assert self.artificial_rows(lp) == [lp.ineq_matrix.shape[0] - 1]
        assert next(lps, None) is None

class TestBasisStart:
    """solve(cost, start=(tableau, basis)) starts from a tableau built on
    another basis, leaves it as it is, and checks only its shapes."""

    def test_feasible_basis_matches_both_reference_starts(self, ex1):
        # x = 1 covers example 1, so its tableau is feasible. solve takes
        # the reference's pivots from that basis, and reaches the value the
        # reference reaches from the slack basis, through phase 1.
        lp = covering_lp(ex1.A, ex1.b, np.ones(3))
        T, basis = ones_tableau(ex1.A, ex1.b)
        assert np.all(T[:, -1] >= 0)
        sol = assert_same_pivots(lp, (T, basis))
        assert sol.value == pytest.approx(reference_solve(lp).value, rel=0, abs=1e-12)

    def test_start_is_not_modified(self, ex1):
        T, basis = ones_tableau(ex1.A, ex1.b)
        before = [T.tobytes(), basis.tobytes()]
        assert solve(np.ones(3), start=(T, basis)).iterations
        assert [T.tobytes(), basis.tobytes()] == before

    def test_wrong_length_raises(self, ex1):
        T, _ = ones_tableau(ex1.A, ex1.b)
        with pytest.raises(ValueError, match="lists 5 columns"):
            solve(np.ones(3), start=(T, np.arange(5)))

    def test_wrong_shape_raises(self, ex2):
        T, basis = ones_tableau(ex2.A[:2], ex2.b[:2])
        with pytest.raises(ValueError, match="5 rows and 8 columns"):
            solve(np.ones(9), start=(T, basis))


class TestFaceRangeMatchesProbes:
    """Each face range is within 1e-12 of the two standalone reference
    solves of the pinned-objective LP that it stands for."""

    def check(self, lp, start):
        sol = solve(lp.objective, start)
        pinned = pin_objective(lp, sol.value)
        ranges = optimal_face_range(sol)
        assert len(ranges) == lp.nvars
        for var, (lo, hi) in enumerate(ranges):
            e = np.zeros(lp.nvars)
            e[var] = 1.0
            lo_sol = reference_solve(replace(pinned, objective=e))
            hi_sol = reference_solve(replace(pinned, objective=-e))
            expected_lo = -INF if lo_sol.status is Status.UNBOUNDED else lo_sol.value
            expected_hi = INF if hi_sol.status is Status.UNBOUNDED else -hi_sol.value
            np.testing.assert_allclose(
                (lo, hi), (expected_lo, expected_hi), rtol=0, atol=1e-12
            )

    def test_examples_and_cycle(self, ex1, ex2, ex3):
        for inst in (ex1, ex2, ex3, cycle_instance(9)):
            lp = covering_lp(inst.A, inst.b, np.ones(inst.n))
            self.check(lp, ones_start(lp))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        inst = random_instance(4, 6, seed)
        lp = covering_lp(inst.A, inst.b, np.ones(inst.n))
        self.check(lp, ones_start(lp))

    def test_unbounded_direction(self):
        # x0 - x1 = 0 with a zero objective: both variables are free upward.
        lp = LinearProgram(
            objective=np.zeros(2),
            ineq_matrix=np.array([[1.0, -1.0], [-1.0, 1.0]]),
            ineq_rhs=np.zeros(2),
        )
        self.check(lp, slack_start(lp))
        sol = solve(lp.objective, slack_start(lp))
        assert optimal_face_range(sol) == [(0.0, INF), (0.0, INF)]


class TestFaceFromOptimalTableau:
    """optimal_face_range reads the face off the tableau that solve ended
    on; reference_face_range probes the pinned-objective LP instead."""

    def assert_matches_reference(self, lp, sol, ranges):
        expected = reference_face_range(lp, sol.value, range(lp.nvars))
        np.testing.assert_allclose(ranges, expected, rtol=0, atol=1e-12)

    def test_degenerate_vertex_has_zero_width(self):
        # min x0 + x1 with x0 + x1 >= 1 and x1 <= 0, from x0 basic in row
        # 0: the slack of x1 <= 0 is basic at 0, so x1 has reduced cost 0
        # yet cannot enter above 0.
        lp = LinearProgram(
            objective=np.ones(2),
            ineq_matrix=np.array([[-1.0, -1.0], [0.0, 1.0]]),
            ineq_rhs=np.array([-1.0, 0.0]),
        )
        sol = solve(lp.objective, loaded_start(lp, [0, 3]))
        assert np.setdiff1d(face_columns(sol, lp.objective), sol._optimum[1]).size
        ranges = optimal_face_range(sol)
        assert ranges == [(1.0, 1.0), (0.0, 0.0)]
        self.assert_matches_reference(lp, sol, ranges)

    @staticmethod
    def count_probes(monkeypatch):
        """Count the solves that optimal_face_range makes."""
        module = importlib.import_module("wlpcert.lp")
        calls = []

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(module, "solve", counting)
        return calls

    def test_vertex_face_runs_no_probe(self, ex2, monkeypatch):
        # At the paper's weights for example 2 every nonbasic reduced cost
        # is positive, so the optimum x = (1, 0.5, 0) is the whole face.
        c = Weights(np.array([0.5, 0.7, 0.8]))
        sol = solve_weighted_lp(ex2, c)
        calls = self.count_probes(monkeypatch)
        ranges = optimal_face_range(sol)
        assert not calls
        assert ranges == [(x, x) for x in sol.x.tolist()]
        self.assert_matches_reference(covering_lp(ex2.A, ex2.b, c.c), sol, ranges)

    def test_wider_face_runs_probes(self, ex2, ones3, monkeypatch):
        sol = solve_weighted_lp(ex2, ones3)
        calls = self.count_probes(monkeypatch)
        optimal_face_range(sol)
        assert calls

    def test_degenerate_vertex_runs_probes(self, ex1, ones3, monkeypatch):
        # Example 1's optimum at unit weights is a single vertex, but x0 is
        # nonbasic with reduced cost 0, so the basis alone does not prove it.
        sol = solve_weighted_lp(ex1, ones3)
        calls = self.count_probes(monkeypatch)
        ranges = optimal_face_range(sol)
        assert calls
        assert max(hi - lo for lo, hi in ranges) <= 1e-12

    @pytest.fixture
    def warm_ladder_passes(self, monkeypatch):
        """(lp, sol) of each warm pass on the ladder inputs and the small
        inputs at seed 1: sol is its optimum, which phase 2 reached from
        the previous pass's optimal tableau."""
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
        return passes

    def test_warm_ladder_passes(self, warm_ladder_passes):
        for lp, sol in warm_ladder_passes:
            ranges = optimal_face_range(sol)
            self.assert_matches_reference(lp, sol, ranges)

    def test_warm_last_row_is_fresh_pricing(self, warm_ladder_passes):
        # The reduced costs that the pivots carried in the last row are
        # those of the pass's cost priced afresh on its optimal basis.
        for lp, sol in warm_ladder_passes:
            assert_last_row_is_fresh(sol, lp.objective)

    def test_repeat_call_leaves_solution_unchanged(self, ex2, ones3):
        lp = covering_lp(ex2.A, ex2.b, ones3.c)
        sol = from_ones(lp)
        before = [a.tobytes() for a in sol._optimum]
        first = optimal_face_range(sol)
        assert optimal_face_range(sol) == first
        assert [a.tobytes() for a in sol._optimum] == before
        self.assert_matches_reference(lp, sol, first)

    def test_non_optimal_solution_raises(self, monkeypatch):
        infeasible = covering_lp(np.ones((1, 1)), np.array([2.0]), np.ones(1))
        unbounded = LinearProgram(objective=np.array([-1.0]))
        sols = [
            from_ones(infeasible),
            solve(unbounded.objective, slack_start(unbounded)),
        ]
        set_budget(monkeypatch, 1)
        sols.append(from_ones(infeasible))
        for sol in sols:
            assert sol.status is not Status.OPTIMAL
            with pytest.raises(ValueError, match="no optimal face"):
                optimal_face_range(sol)
        with pytest.raises(LpError, match="infeasible"):
            reference_face_range(infeasible, 0.0, [0])
