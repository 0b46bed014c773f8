"""End-to-end acceptance checks.

Each test covers one headline requirement and prints a single
``ACCEPTANCE k: PASS`` line once its assertions hold, so a ``pytest -s``
run gives a one-line verdict per criterion.
"""

import itertools
import time

import numpy as np
import pytest

from wlpcert import (
    CaseKind,
    CertifyConfig,
    LinearProgram,
    Status,
    Weights,
    beta_bar,
    certify,
    from_independent_set,
    gamma_hat_closed_form,
    mis_recover,
    random_instance,
    solve,
    solve_weighted_lp,
    sufficient_verdict,
    to_standard_form,
)

from _oracles import (
    enumerate_binary_minimum,
    enumerate_lp_minimum,
    gamma_hat_exact,
    verify_certificate,
)


class TestAcceptance:
    def test_criterion_1_example_1(self, ex1, sf1, ones3):
        start = time.perf_counter()
        beta = 0.5625
        _, report = sufficient_verdict(sf1, ones3, beta)
        eta1 = report.eta1
        assert eta1 == pytest.approx(0.21875, abs=1e-6)
        star = report.s_star
        assert star == 2
        sol = solve_weighted_lp(ex1, ones3)
        np.testing.assert_allclose(sol.x, [0.0, 0.5, 0.5], atol=1e-8)
        assert star * eta1 == pytest.approx(0.4375, abs=1e-6)
        assert star * eta1 < 0.5
        cert = certify(ex1, CertifyConfig(beta_override=beta))
        assert cert.certified
        np.testing.assert_array_equal(cert.recovered, [0, 1, 1])
        assert cert.brute_force_value == 2
        assert cert.brute_force_verified
        assert time.perf_counter() - start < 1.0
        print("ACCEPTANCE 1: PASS")

    def test_criterion_2_example_2(self, ex2, sf2, ones3):
        start = time.perf_counter()
        fired, report = sufficient_verdict(sf2, ones3, 0.5)
        assert report.eta1 == pytest.approx(0.5, abs=1e-6)
        assert not fired  # s*·η = 0.5 is not strictly below the threshold

        adjusted = Weights(np.array([0.5, 0.7, 0.8]))
        _, report = sufficient_verdict(sf2, adjusted, 0.7)
        assert report.eta1 == pytest.approx(0.1, abs=1e-6)
        assert report.s_star == 2
        cert = certify(
            ex2, CertifyConfig(beta_override=0.7), weights=adjusted
        )
        assert cert.certified
        assert cert.final_case is CaseKind.UNIQUE_OPTIMUM
        np.testing.assert_allclose(
            cert.lp_solution.x, [1.0, 0.5, 0.0], atol=1e-8
        )
        np.testing.assert_array_equal(cert.recovered, [1, 1, 0])
        assert cert.brute_force_verified
        assert time.perf_counter() - start < 1.0
        print("ACCEPTANCE 2: PASS")

    def test_criterion_3_example_3(self, ex3, sf3, ones3):
        start = time.perf_counter()
        _, report = sufficient_verdict(sf3, ones3, 0.375)
        assert report.eta1 == pytest.approx(0.291666, abs=1e-5)
        assert report.s_star == 1
        cert0 = certify(
            ex3, CertifyConfig(max_weight_iterations=1), weights=ones3
        )
        assert cert0.final_case is CaseKind.MULTIPLE_DIFFERENT_SPARSITY

        adjusted = Weights(np.array([0.5, 0.35, 0.3]))
        # At these weights every column bound collapses to zero, so the
        # certificate fires well below the 0.15 threshold.
        _, report = sufficient_verdict(sf3, adjusted, 0.7)
        assert report.eta1 == pytest.approx(0.0, abs=1e-9)
        cert = certify(
            ex3, CertifyConfig(beta_override=0.7), weights=adjusted
        )
        assert cert.certified
        assert cert.final_report.eta_s_bound < 0.15
        np.testing.assert_array_equal(cert.recovered, [0, 0, 1])
        assert cert.brute_force_verified
        assert time.perf_counter() - start < 1.0
        print("ACCEPTANCE 3: PASS")

    def test_criterion_4_bound_chain_properties(self):
        start = time.perf_counter()
        count = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 6))
            inst = random_instance(m, n, seed=seed, max_entry=2)
            sf = to_standard_form(inst)
            c = Weights(np.ones(n))
            bb = beta_bar(sf, c)
            betas = [0.5 * bb, bb, 2.0 * bb]
            etas = [sufficient_verdict(sf, c, beta)[1].eta1 for beta in betas]
            for lo, hi in itertools.pairwise(etas):
                assert hi <= lo + 1e-8  # eta nonincreasing in beta
            for beta, eta1 in zip(betas, etas):
                prev_gamma = -np.inf
                for s in (1, 2):
                    s_eff = min(s, n)  # sparsity cannot exceed the dimension
                    exact = gamma_hat_exact(sf, c, beta, s_eff)
                    closed = gamma_hat_closed_form(sf, c, beta)
                    assert exact <= s_eff * eta1 + 1e-8
                    assert exact == pytest.approx(closed, abs=1e-8)
                    assert exact >= prev_gamma - 1e-8
                    prev_gamma = exact
            count += 1
        assert count >= 50
        assert time.perf_counter() - start < 30.0
        print("ACCEPTANCE 4: PASS")

    def test_criterion_5_soundness_ensemble(self):
        start = time.perf_counter()
        certified_count = 0
        total = 0
        for seed in range(200):
            rng = np.random.default_rng(10_000 + seed)
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            inst = random_instance(m, n, seed=10_000 + seed, max_entry=2)
            cert = certify(
                inst, CertifyConfig(max_weight_iterations=4)
            )
            total += 1
            if cert.certified:
                certified_count += 1
                assert verify_certificate(inst, cert), (
                    f"false certificate on seed {seed}"
                )
        assert total >= 200
        assert certified_count > 0  # the ensemble must exercise both branches
        assert time.perf_counter() - start < 60.0
        print("ACCEPTANCE 5: PASS")

    def test_criterion_6_lp_oracle_equivalence(self):
        count = 0
        for seed in range(100):
            rng = np.random.default_rng(20_000 + seed)
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            objective = rng.uniform(-1.0, 2.0, size=n)
            G = rng.uniform(0.0, 2.0, size=(m, n))
            x0 = rng.uniform(0.0, 1.0, size=n)
            # feasible by construction at x0; box-bounded so the oracle's
            # vertex set is finite
            lp = LinearProgram(
                objective=objective,
                ineq_matrix=-G,
                ineq_rhs=-(G @ x0),
                upper=np.full(n, 2.0),
            )
            sol = solve(lp)
            assert sol.status is Status.OPTIMAL
            assert sol.status is not Status.ITERATION_LIMIT
            oracle = enumerate_lp_minimum(
                lp.objective,
                np.zeros((0, n)),
                np.zeros(0),
                lp.ineq_matrix,
                lp.ineq_rhs,
                np.zeros(n),
                lp.upper,
            )
            assert oracle is not None
            assert sol.value == pytest.approx(oracle, abs=1e-8), (
                f"seed {seed}: simplex {sol.value} vs oracle {oracle}"
            )
            count += 1
        assert count >= 100
        print("ACCEPTANCE 6: PASS")

    def test_criterion_7_independent_set_pipeline(self):
        start = time.perf_counter()

        def solve_mis(vertex_count, edges):
            inst, ctx = from_independent_set(vertex_count, edges)
            cert = certify(inst, CertifyConfig())
            if cert.certified and cert.brute_force_verified:
                x_tilde = cert.recovered
            else:
                _, optima = enumerate_binary_minimum(inst.A, inst.b)
                x_tilde = np.array(sorted(optima)[0])
            return mis_recover(x_tilde, ctx)

        def independent(indicator, edges):
            chosen = {i for i, v in enumerate(indicator) if v}
            return all(
                not (u - 1 in chosen and v - 1 in chosen) for u, v in edges
            )

        def exhaustive_mis_size(vertex_count, edges):
            best = 0
            for bits in itertools.product((0, 1), repeat=vertex_count):
                if independent(bits, edges):
                    best = max(best, sum(bits))
            return best

        path_edges = [(1, 2), (2, 3)]
        indicator = solve_mis(3, path_edges)
        assert independent(indicator, path_edges)
        assert indicator.sum() == 2 == exhaustive_mis_size(3, path_edges)

        triangle_edges = [(1, 2), (1, 3), (2, 3)]
        indicator = solve_mis(3, triangle_edges)
        assert independent(indicator, triangle_edges)
        assert indicator.sum() == 1 == exhaustive_mis_size(3, triangle_edges)

        assert time.perf_counter() - start < 1.0
        print("ACCEPTANCE 7: PASS")
