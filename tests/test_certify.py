import importlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from wlpcert import (
    CaseKind,
    CertifyConfig,
    LpError,
    PassReason,
    Weights,
    ZeroOneInstance,
    adjust_weights,
    branch_and_bound_ip,
    brute_force_ip,
    certify,
    classify_case,
    from_independent_set,
    random_instance,
    solve,
    solve_weighted_lp,
)
from wlpcert.certify import BRUTE_FORCE_BLOCK
from wlpcert.lp import _standardize

from _oracles import eager_certify, enumerate_binary_minimum, verify_certificate
from conftest import REFUTED_INSTANCES, cycle_instance


class TestWeightedLp:
    def test_example1(self, ex1, ones3):
        sol = solve_weighted_lp(ex1, ones3)
        np.testing.assert_allclose(sol.x, [0, 0.5, 0.5], atol=1e-8)
        assert sol.value == pytest.approx(1.0, abs=1e-8)

    def test_example3_adjusted(self, ex3):
        c = Weights(np.array([0.5, 0.35, 0.3]))
        sol = solve_weighted_lp(ex3, c)
        np.testing.assert_allclose(sol.x, [0, 0, 0.5], atol=1e-8)

    def test_zero_rhs(self):
        inst = ZeroOneInstance(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        sol = solve_weighted_lp(inst, Weights(np.ones(2)))
        np.testing.assert_allclose(sol.x, 0.0, atol=1e-9)
        assert sol.value == pytest.approx(0.0, abs=1e-9)

    def test_unit_weights_is_the_root_node_lp(self, ex1, monkeypatch):
        # Where every b_i > 0 the root node keeps every row, so at c = 1
        # the two LPs standardise to the same tableau.
        lps = []

        def record(lp):
            lps.append(lp)
            return solve(lp)

        module = importlib.import_module("wlpcert.certify")
        monkeypatch.setattr(module, "solve", record)
        for inst in (ex1, cycle_instance(9)):
            lps.clear()
            solve_weighted_lp(inst, Weights(np.ones(inst.n)))
            branch_and_bound_ip(inst)
            weighted, root = lps[:2]
            for a, b in zip(_standardize(weighted), _standardize(root), strict=True):
                np.testing.assert_array_equal(a, b)


class TestClassifyCase:
    def test_example1_unique(self, ex1, ones3):
        sol = solve_weighted_lp(ex1, ones3)
        assert classify_case(sol) is CaseKind.UNIQUE_OPTIMUM

    def test_example2_same_sparsity(self, ex2, ones3):
        sol = solve_weighted_lp(ex2, ones3)
        assert classify_case(sol) is CaseKind.MULTIPLE_SAME_SPARSITY

    def test_example3_different_sparsity(self, ex3, ones3):
        sol = solve_weighted_lp(ex3, ones3)
        assert classify_case(sol) is CaseKind.MULTIPLE_DIFFERENT_SPARSITY

    def test_example2_adjusted_weights_unique(self, ex2):
        c = Weights(np.array([0.5, 0.7, 0.8]))
        sol = solve_weighted_lp(ex2, c)
        assert classify_case(sol) is CaseKind.UNIQUE_OPTIMUM


class TestAdjustWeights:
    def test_even_spacing(self):
        w = adjust_weights(np.array([1.0, 0.5, 0.0]))
        np.testing.assert_allclose(w.c, [0.8, 0.9, 1.0])

    def test_largest_component_gets_smallest_weight(self):
        w = adjust_weights(np.array([1.0, 0.5, 0.0]))
        assert w.c[0] < w.c[1] < w.c[2]

    def test_all_equal_components_tie_break_by_index(self):
        w = adjust_weights(np.array([0.5, 0.5, 0.5]))
        np.testing.assert_allclose(w.c, [0.8, 0.9, 1.0])

    def test_single_component(self):
        np.testing.assert_array_equal(adjust_weights(np.array([0.3])).c, [1.0])


class TestBruteForce:
    def test_example1(self, ex1):
        value, optima = brute_force_ip(ex1)
        assert value == 2
        assert optima == {(0, 1, 1), (1, 1, 0), (1, 0, 1)}

    def test_zero_rhs(self):
        inst = ZeroOneInstance(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        value, optima = brute_force_ip(inst)
        assert value == 0 and optima == {(0, 0)}

    def test_infeasible_sentinel(self):
        inst = ZeroOneInstance(A=np.array([[1.0]]), b=np.array([2.0]))
        value, optima = brute_force_ip(inst)
        assert math.isinf(value) and not optima

    def test_guard(self):
        inst = random_instance(2, 21, seed=0)
        with pytest.raises(ValueError, match="guard"):
            brute_force_ip(inst)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_independent_enumeration(self, seed):
        inst = random_instance(3, 5, seed=seed)
        value, optima = brute_force_ip(inst)
        oracle_value, oracle_optima = enumerate_binary_minimum(inst.A, inst.b)
        assert value == oracle_value
        assert optima == oracle_optima


class TestBruteForceBlocks:
    """n = 17 spans two blocks of BRUTE_FORCE_BLOCK codes; x_16 is set
    exactly in the second."""

    N = 17

    def check(self, A, b):
        assert 2**self.N > BRUTE_FORCE_BLOCK >= 2 ** (self.N - 1)
        value, optima = brute_force_ip(ZeroOneInstance(A=A, b=b))
        oracle_value, oracle_optima = enumerate_binary_minimum(A, b)
        if oracle_value is None:
            assert math.isinf(value)
        else:
            assert value == oracle_value
        assert optima == oracle_optima
        return value, optima

    def test_optimum_only_in_second_block(self):
        # The first block needs x_0 = x_1 = x_2 = x_5 = 1 (value 4);
        # x_16 = 1 alone covers both rows.
        A = np.zeros((2, self.N))
        A[0, :3] = 1.0
        A[0, 16] = 3.0
        A[1, [5, 16]] = 1.0
        value, optima = self.check(A, np.array([3.0, 1.0]))
        assert value == 1
        assert optima == {tuple(int(j == 16) for j in range(self.N))}

    def test_optima_in_both_blocks_are_merged(self):
        A = np.zeros((1, self.N))
        A[0, [0, 16]] = 1.0
        value, optima = self.check(A, np.array([1.0]))
        assert value == 1 and len(optima) == 2

    def test_infeasible(self):
        value, optima = self.check(np.ones((1, self.N)), np.array([self.N + 1.0]))
        assert math.isinf(value) and optima == frozenset()


class TestCertify:
    def test_example1_with_override(self, ex1):
        cert = certify(ex1, CertifyConfig(beta_override=0.5625))
        assert cert.certified
        np.testing.assert_array_equal(cert.recovered, [0, 1, 1])
        assert cert.brute_force_verified
        assert cert.final_case is CaseKind.UNIQUE_OPTIMUM

    def test_example2_with_adjusted_weights(self, ex2):
        cert = certify(
            ex2,
            CertifyConfig(beta_override=0.7),
            weights=Weights(np.array([0.5, 0.7, 0.8])),
        )
        assert cert.certified
        np.testing.assert_array_equal(cert.recovered, [1, 1, 0])
        assert cert.brute_force_verified

    def test_example3_with_adjusted_weights(self, ex3):
        cert = certify(
            ex3,
            CertifyConfig(beta_override=0.7),
            weights=Weights(np.array([0.5, 0.35, 0.3])),
        )
        assert cert.certified
        np.testing.assert_array_equal(cert.recovered, [0, 0, 1])
        assert cert.brute_force_verified

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_config_rejects_non_positive_beta(self, beta):
        with pytest.raises(ValueError, match="beta override must be positive"):
            CertifyConfig(beta_override=beta)

    def test_config_rejects_infinite_beta(self):
        # An infinite box would make every eta_j LP's right-hand side
        # infinite, every eta_j 0, and any unique optimum certified.
        with pytest.raises(ValueError, match="positive and finite"):
            CertifyConfig(beta_override=math.inf)

    def test_example2_default_weights_adjusts_then_certifies(self, ex2):
        cert = certify(ex2, CertifyConfig())
        assert len(cert.iterations) >= 1
        first_case = cert.iterations[0][2]
        assert first_case is not CaseKind.UNIQUE_OPTIMUM
        if cert.certified:
            assert verify_certificate(ex2, cert)

    def test_deterministic(self, ex3):
        a = certify(ex3, CertifyConfig())
        b = certify(ex3, CertifyConfig())
        assert a.certified == b.certified
        np.testing.assert_array_equal(a.final_weights.c, b.final_weights.c)
        if a.recovered is not None:
            np.testing.assert_array_equal(a.recovered, b.recovered)

    def test_budget_exhaustion_reported_not_raised(self, ex3):
        # a single pass on the multi-optima instance cannot certify
        cert = certify(ex3, CertifyConfig(max_weight_iterations=1))
        assert not cert.certified
        assert any("budget" in note for note in cert.discrepancies)

    def test_uncertified_run_runs_no_exact_check(self, ex3, monkeypatch):
        def no_exact_check(inst):
            raise AssertionError("exact check ran on an uncertified run")

        module = importlib.import_module("wlpcert.certify")
        monkeypatch.setattr(module, "brute_force_ip", no_exact_check)
        monkeypatch.setattr(module, "branch_and_bound_ip", no_exact_check)
        cert = certify(ex3, CertifyConfig(max_weight_iterations=1))
        assert not cert.certified
        assert cert.brute_force_value is None
        assert cert.brute_force_optimum is None

    def test_recovered_counts_lp_support(self, ex1):
        cert = certify(ex1, CertifyConfig(beta_override=0.5625))
        x = cert.lp_solution.x
        assert cert.recovered.sum() == np.count_nonzero(x > 1e-9)


class TestLazyVerdict:
    def test_eta_j_calls_per_pass(self, monkeypatch):
        # Pass 1 has a non-unique optimum and solves no eta_j; on passes 2
        # and 3 the first column already gives s_star below the support.
        goodness = importlib.import_module("wlpcert.goodness")
        module = importlib.import_module("wlpcert.certify")
        eta_j, solve_weighted_lp = goodness.eta_j, module.solve_weighted_lp
        calls = []

        def next_pass(inst, c):
            calls.append(0)
            return solve_weighted_lp(inst, c)

        def counted(*args):
            calls[-1] += 1
            return eta_j(*args)

        monkeypatch.setattr(module, "solve_weighted_lp", next_pass)
        monkeypatch.setattr(goodness, "eta_j", counted)
        cert = certify(
            random_instance(20, 32, 1), CertifyConfig(max_weight_iterations=3)
        )
        assert calls == [0, 1, 1]
        first, *rest = cert.iterations
        assert first.report is None and first.reason is PassReason.NON_UNIQUE
        for p in rest:
            assert len(p.report.eta_per_column) == 1
            assert p.report.s_star < cert.recovered.sum()
            assert not p.report.certified
            assert p.reason is PassReason.SUPPORT_GT_S_STAR

    @pytest.mark.parametrize(
        "m, n, seed",
        [(m, n, 7000 + 10 * m + n) for m in range(1, 7) for n in range(1, 7)]
        + [(8, 12, 1), (8, 12, 2), (10, 16, 1), (4, 2, 344997561)]
        + list(REFUTED_INSTANCES),
    )
    def test_matches_eager_order(self, m, n, seed):
        inst = random_instance(m, n, seed)
        cert = certify(inst)
        recovered = None if cert.recovered is None else cert.recovered.tolist()
        assert eager_certify(inst) == (
            cert.certified,
            len(cert.iterations),
            recovered,
            [p.case for p in cert.iterations],
            cert.brute_force_value,
        )


class TestPassReason:
    def reasons(self, cert):
        return [p.reason for p in cert.iterations]

    def test_certified(self, ex1):
        cert = certify(ex1, CertifyConfig(beta_override=0.5625))
        assert self.reasons(cert) == [PassReason.CERTIFIED]

    def test_bound_not_strict_then_certified(self):
        # Pass 1: s_star * eta1 equals the threshold.
        cert = certify(random_instance(4, 2, 344997561))
        first = cert.iterations[0].report
        assert first.eta_s_bound == pytest.approx(first.threshold)
        assert self.reasons(cert) == [
            PassReason.BOUND_NOT_STRICT,
            PassReason.CERTIFIED,
        ]

    def test_non_unique(self, ex3):
        cert = certify(ex3, CertifyConfig(max_weight_iterations=1))
        assert self.reasons(cert) == [PassReason.NON_UNIQUE]
        assert cert.final_report is None

    def test_refuted(self):
        cert = certify(random_instance(*REFUTED_INSTANCES[0]))
        assert self.reasons(cert)[-1] is PassReason.REFUTED
        assert cert.final_report.certified

    def test_lp_status(self):
        cert = certify(ZeroOneInstance(A=np.array([[1.0]]), b=np.array([2.0])))
        assert self.reasons(cert) == [PassReason.LP_STATUS]
        assert cert.final_report is None and cert.recovered is None


class TestVerifyCertificate:
    def test_example1_roundtrip(self, ex1):
        cert = certify(ex1, CertifyConfig(beta_override=0.5625))
        assert verify_certificate(ex1, cert)

    def test_tampered_recovery_fails(self, ex1):
        cert = certify(ex1, CertifyConfig(beta_override=0.5625))
        tampered = replace(cert, recovered=np.array([1, 1, 1]))
        assert not verify_certificate(ex1, tampered)

    def test_zero_instance(self):
        inst = ZeroOneInstance(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        cert = certify(inst, CertifyConfig())
        assert cert.certified
        np.testing.assert_array_equal(cert.recovered, [0, 0])
        assert verify_certificate(inst, cert)


class TestSoundnessEnsemble:
    @pytest.mark.parametrize("seed", range(40))
    def test_no_false_certificates(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        inst = random_instance(m, n, seed=3000 + seed, max_entry=2)
        cert = certify(inst, CertifyConfig(max_weight_iterations=3))
        if cert.certified:
            assert cert.brute_force_verified
            assert verify_certificate(inst, cert)
            assert cert.recovered.sum() <= cert.final_report.s_star


def random_graph_instance(n, seed, density=0.3):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng = np.random.default_rng([seed, n])
    chosen = rng.choice(len(pairs), size=round(density * len(pairs)), replace=False)
    return from_independent_set(n, [pairs[i] for i in sorted(chosen)])[0]


class TestRefutedCertificate:
    @pytest.mark.parametrize("shape", REFUTED_INSTANCES)
    def test_small_instances(self, shape):
        cert = certify(random_instance(*shape))
        assert not cert.certified
        assert cert.brute_force_verified is False
        assert cert.brute_force_value == 1
        np.testing.assert_array_equal(cert.recovered, [1, 1])
        assert any("refuted" in note for note in cert.discrepancies)

    @pytest.mark.parametrize("n, cover", [(9, 5), (15, 8), (21, 11)])
    def test_odd_cycles(self, n, cover):
        # The all-1/2 optimum passes the eta test and rounds up to all ones.
        inst = cycle_instance(n)
        cert = certify(inst)
        assert not cert.certified
        assert cert.brute_force_verified is False
        assert cert.brute_force_value == cover
        x = np.array(cert.brute_force_optimum)
        assert x.sum() == cover and np.all(inst.A @ x >= inst.b)


def _seeded_instance(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 17))
    return random_instance(m, n, seed=5000 + seed)


# Seeded instances with n <= 16, then random covers with n = 17..20 and
# G(20, p) graphs, the largest inputs enumeration can check.
BRANCH_CASES = (
    [pytest.param(_seeded_instance(seed), id=str(seed)) for seed in range(30)]
    + [
        pytest.param(random_instance(12, n, seed=6000 + n), id=f"n{n}")
        for n in range(17, 21)
    ]
    + [
        pytest.param(random_graph_instance(20, 1, density=p), id=f"G(20, {p})")
        for p in (0.1, 0.3, 0.5)
    ]
)


class TestBranchAndBound:
    @pytest.mark.parametrize("inst", BRANCH_CASES)
    def test_matches_brute_force(self, inst):
        value, point = branch_and_bound_ip(inst)
        bf_value, optima = brute_force_ip(inst)
        assert value == bf_value
        assert point in optima

    def test_zero_rhs(self):
        inst = ZeroOneInstance(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        assert branch_and_bound_ip(inst) == (0, (0, 0))

    def test_infeasible(self):
        inst = ZeroOneInstance(A=np.array([[1.0, 1.0]]), b=np.array([3.0]))
        value, point = branch_and_bound_ip(inst)
        assert math.isinf(value) and point is None

    def test_leaf_with_an_uncovered_row(self):
        # The LP value 1e-7 bounds the root by 0, so it branches; x_0 = 0
        # then leaves no free variable for the row b = 1e-7.
        inst = ZeroOneInstance(A=np.array([[1.0]]), b=np.array([1e-7]))
        assert brute_force_ip(inst) == (1, {(1,)})
        assert branch_and_bound_ip(inst) == (1, (1,))

    def test_node_budget_raises(self, monkeypatch):
        monkeypatch.setattr(
            importlib.import_module("wlpcert.certify"), "BRANCH_NODE_LIMIT", 1
        )
        with pytest.raises(LpError, match="budget"):
            branch_and_bound_ip(cycle_instance(21))

    @pytest.mark.parametrize(
        "name, inst",
        [(f"C{n}", cycle_instance(n)) for n in range(21, 32)]
        + [
            (f"G({n}, 0.3) seed {s}", random_graph_instance(n, s))
            for n in (24, 30)
            for s in (1, 2)
        ],
    )
    def test_matches_milp(self, name, inst):
        optimize = pytest.importorskip("scipy.optimize")
        res = optimize.milp(
            c=np.ones(inst.n),
            constraints=optimize.LinearConstraint(inst.A, lb=inst.b, ub=np.inf),
            integrality=np.ones(inst.n),
            bounds=optimize.Bounds(0, 1),
        )
        assert res.status == 0
        value, point = branch_and_bound_ip(inst)
        assert value == round(res.fun)
        x = np.array(point)
        assert x.sum() == value and np.all(inst.A @ x >= inst.b)
