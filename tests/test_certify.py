import math
from dataclasses import replace

import numpy as np
import pytest

from wlpcert import (
    CaseKind,
    CertifyConfig,
    Weights,
    ZeroOneInstance,
    adjust_weights,
    brute_force_ip,
    certify,
    classify_case,
    random_instance,
    solve_weighted_lp,
    verify_certificate,
)
from wlpcert.certify import BRUTE_FORCE_BLOCK

from _oracles import enumerate_binary_minimum


class TestWeightedLp:
    def test_example1(self, sf1, ones3):
        sol = solve_weighted_lp(sf1, ones3)
        np.testing.assert_allclose(sol.x[:3], [0, 0.5, 0.5], atol=1e-8)
        assert sol.value == pytest.approx(1.0, abs=1e-8)

    def test_example3_adjusted(self, sf3):
        c = Weights(np.array([0.5, 0.35, 0.3]))
        sol = solve_weighted_lp(sf3, c)
        np.testing.assert_allclose(sol.x[:3], [0, 0, 0.5], atol=1e-8)

    def test_zero_rhs(self):
        inst = ZeroOneInstance(A=np.array([[1.0, 1.0]]), b=np.array([0.0]))
        from wlpcert import to_standard_form

        sol = solve_weighted_lp(to_standard_form(inst), Weights(np.ones(2)))
        np.testing.assert_allclose(sol.x[:2], 0.0, atol=1e-9)
        assert sol.value == pytest.approx(0.0, abs=1e-9)


class TestClassifyCase:
    def test_example1_unique(self, sf1, ones3):
        sol = solve_weighted_lp(sf1, ones3)
        assert classify_case(sf1, ones3, sol) is CaseKind.UNIQUE_OPTIMUM

    def test_example2_same_sparsity(self, sf2, ones3):
        sol = solve_weighted_lp(sf2, ones3)
        assert classify_case(sf2, ones3, sol) is CaseKind.MULTIPLE_SAME_SPARSITY

    def test_example3_different_sparsity(self, sf3, ones3):
        sol = solve_weighted_lp(sf3, ones3)
        assert (
            classify_case(sf3, ones3, sol)
            is CaseKind.MULTIPLE_DIFFERENT_SPARSITY
        )

    def test_example2_adjusted_weights_unique(self, sf2):
        c = Weights(np.array([0.5, 0.7, 0.8]))
        sol = solve_weighted_lp(sf2, c)
        assert classify_case(sf2, c, sol) is CaseKind.UNIQUE_OPTIMUM


class TestAdjustWeights:
    def test_even_spacing(self):
        w = adjust_weights(np.array([1.0, 0.5, 0.0]), 0.5)
        np.testing.assert_allclose(w.c, [0.5, 0.5625, 0.625])

    def test_largest_component_gets_smallest_weight(self):
        w = adjust_weights(np.array([1.0, 0.5, 0.0]), 0.5)
        assert w.c[0] < w.c[1] < w.c[2]

    def test_all_equal_components_tie_break_by_index(self):
        w = adjust_weights(np.array([0.5, 0.5, 0.5]), 0.5)
        np.testing.assert_allclose(w.c, [0.5, 0.5625, 0.625])

    def test_clamped_interval_bumps_lower(self):
        w = adjust_weights(np.array([1.0, 0.0]), 1.2)
        assert w.c[0] == pytest.approx(0.9)
        assert w.c[1] == pytest.approx(1.0)


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
        assert cert.s_observed == 2

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
        assert cert.s_observed == 1

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

    def test_recovered_counts_lp_support(self, ex1):
        cert = certify(ex1, CertifyConfig(beta_override=0.5625))
        x = cert.lp_solution.x[:3]
        assert cert.recovered.sum() == np.count_nonzero(x > 1e-9)


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
            assert cert.s_observed <= cert.final_report.s_star
