import importlib
import itertools
import math
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from wlpcert import (
    CaseKind,
    CertifyConfig,
    LpError,
    PassReason,
    Status,
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
    sufficient_verdict,
)
from wlpcert.certify import BRUTE_FORCE_BLOCK, ones_tableau
from wlpcert.instance import ZERO_TOL

from _oracles import (
    covering_lp,
    eager_certify,
    enumerate_binary_minimum,
    final_basis,
    full_loop_certify,
    residual,
    verify_certificate,
)
from conftest import REFUTED_INSTANCES, cycle_instance, workload_cases


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

    def test_start_short_of_a_row_is_infeasible(self):
        # x = 1 covers the row short by 5e-8, so the LP is infeasible. The
        # solve ends INFEASIBLE at once, rather than reaching an "optimum"
        # with x_0 = 1 + 5e-8 outside its box, and certify stops there.
        inst = ZeroOneInstance(A=np.array([[1.0, 1.0]]), b=np.array([2 + 5e-8]))
        sol = solve(np.ones(2), start=ones_tableau(inst.A, inst.b))
        assert sol.status is Status.INFEASIBLE
        assert sol.iterations == 0
        cert = certify(inst)
        assert [p.reason for p in cert.iterations] == [PassReason.LP_STATUS]
        assert cert.lp_solution.status is Status.INFEASIBLE
        assert cert.recovered is None
        assert not cert.certified

    def test_unit_weights_is_the_root_node_lp(self, ex1, monkeypatch):
        # Where every b_i > 0 the root node keeps every row, so at c = 1
        # the two LPs are one: each is solved under the same cost from the
        # same x = 1 tableau.
        module = importlib.import_module("wlpcert.certify")
        starts = []

        def record(cost, *args, start, **kwargs):
            starts.append((np.array(cost), *(a.copy() for a in start)))
            return solve(cost, *args, start=start, **kwargs)

        monkeypatch.setattr(module, "solve", record)
        for inst in (ex1, cycle_instance(9)):
            starts.clear()
            solve_weighted_lp(inst, Weights(np.ones(inst.n)))
            branch_and_bound_ip(inst)
            weighted, root = starts[:2]
            for a, b in zip(weighted, root, strict=True):
                np.testing.assert_array_equal(a, b)

    def test_residual_across_warm_passes(self, monkeypatch):
        # Each solved pass starts from the previous pass's tableau, so
        # rounding error is carried through every pass of a ladder input
        # up to its weight fixed point, where certify stops and the full
        # loop repeats that pass up to the budget.
        module = importlib.import_module("wlpcert.certify")
        weighted = module.solve_weighted_lp
        sols = []

        def record(inst, c, *args, **kwargs):
            sol = weighted(inst, c, *args, **kwargs)
            sols.append((covering_lp(inst.A, inst.b, c.c), sol))
            return sol

        monkeypatch.setattr(module, "solve_weighted_lp", record)
        for m, n in ((3, 3), (5, 8), (8, 12), (10, 16), (15, 24)):
            sols.clear()
            inst = random_instance(m, n, 1)
            cert = certify(inst)
            full = full_loop_certify(inst).iterations
            assert len(full) == 10
            _assert_truncates(cert.iterations, full)
            assert len(sols) == len({id(p) for p in cert.iterations}) >= 2
            for lp, sol in sols:
                assert residual(lp, sol.x) <= 1e-8


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

    @pytest.mark.parametrize("budget", [0, 2.5, "3", None])
    def test_config_rejects_non_integer_budget(self, budget):
        # A budget that is not an integer would otherwise fail later,
        # inside range.
        with pytest.raises(ValueError, match="an integer >= 1"):
            CertifyConfig(max_weight_iterations=budget)

    def test_config_accepts_numpy_integer_budget(self):
        config = CertifyConfig(max_weight_iterations=np.int64(2))
        assert len(certify(random_instance(3, 3, 1), config).iterations) == 2

    def test_config_rejects_unchecked_certificates(self):
        # Every certified recovery is checked; the test alone is unsound.
        with pytest.raises(ValueError, match="brute_force_verify must be True"):
            CertifyConfig(brute_force_verify=False)

    def test_config_accepts_checked_certificates(self):
        assert CertifyConfig(brute_force_verify=True) == CertifyConfig()

    def test_weights_of_wrong_length_raise(self):
        with pytest.raises(ValueError, match="length 2, the instance has 3"):
            certify(random_instance(2, 3, 1), weights=Weights(c=[1, 1]))

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
        # Pass 1 has a non-unique optimum and solves no eta_j; on pass 2
        # the first column already gives s_star below the support. Pass 2's
        # adjusted weights are its own, so the loop stops there, and the
        # full loop's pass 3 repeats pass 2.
        inst = random_instance(20, 32, 1)
        config = CertifyConfig(max_weight_iterations=3)
        full = full_loop_certify(inst, config).iterations
        assert len(full) == 3
        goodness = importlib.import_module("wlpcert.goodness")
        module = importlib.import_module("wlpcert.certify")
        eta_j, solve_weighted_lp = goodness.eta_j, module.solve_weighted_lp
        calls = []

        def next_pass(*args, **kwargs):
            calls.append(0)
            return solve_weighted_lp(*args, **kwargs)

        def counted(*args):
            calls[-1] += 1
            return eta_j(*args)

        monkeypatch.setattr(module, "solve_weighted_lp", next_pass)
        monkeypatch.setattr(goodness, "eta_j", counted)
        cert = certify(inst, config)
        assert calls == [0, 1]
        _assert_truncates(cert.iterations, full)
        assert len(cert.iterations) == 2
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
        # The eager loop runs every pass; past certify's fixed point at
        # pass k each of its passes repeats pass k.
        inst = random_instance(m, n, seed)
        cert = certify(inst)
        recovered = None if cert.recovered is None else cert.recovered.tolist()
        certified, passes, eager_recovered, cases, value = eager_certify(inst)
        k = len(cert.iterations)
        assert (certified, eager_recovered, cases[:k], value) == (
            cert.certified,
            recovered,
            [p.case for p in cert.iterations],
            cert.brute_force_value,
        )
        assert cases[k:] == [cases[k - 1]] * (passes - k)
        stopped = f"{REPEAT_NOTE} {k}" in cert.discrepancies
        assert passes == (10 if stopped else k)


class TestVerdictIsReproducible:
    """Each verdict of certify equals a standalone sufficient_verdict on the
    same weights, radius and support count, bit for bit."""

    @pytest.mark.parametrize("workload", ["ladder", "small"])
    def test_matches_cold_verdict(self, workload, monkeypatch):
        module = importlib.import_module("wlpcert.certify")
        verdicts = []

        def record(sf, c, beta, **kwargs):
            verdict = sufficient_verdict(sf, c, beta, **kwargs)
            standalone = sufficient_verdict(
                sf, c, beta, s_observed=kwargs["s_observed"]
            )
            verdicts.append((sf, c, verdict, standalone))
            return verdict

        monkeypatch.setattr(module, "sufficient_verdict", record)
        for case in workload_cases(workload, 1, monkeypatch):
            certify(case.instance, case.config, weights=case.weights)
        assert len(verdicts) == {"ladder": 7, "small": 143}[workload]
        for sf, c, verdict, standalone in verdicts:
            assert _bits(verdict) == _bits(standalone)
            _, report = verdict
            for j, (value, q) in enumerate(
                zip(report.eta_per_column, report.witnesses, strict=True)
            ):
                target = np.zeros(c.n)
                target[j] = c.c[j]
                attained = np.max(np.abs(target - sf.T @ q))
                assert abs(attained - value) <= 1e-9


LADDER_SHAPES = ((3, 3), (5, 8), (8, 12), (10, 16), (15, 24))
REPEAT_NOTE = "weights repeat from pass"
BUDGET_NOTE = "weight-adjustment iteration budget exhausted"


def _bits(value):
    """value with every float and array replaced by its exact bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    return value


def _pass_bits(p):
    return _bits(p.weights.c), _bits(p.report), p.case, p.reason


def _assert_truncates(passes, full):
    """passes are the first k passes of full, a loop that ran every pass,
    bit for bit, and each later pass of full equals pass k."""
    k = len(passes)
    assert 1 <= k <= len(full)
    for a, b in zip(passes, full[:k], strict=True):
        assert _pass_bits(a) == _pass_bits(b)
    for b in full[k:]:
        assert _pass_bits(b) == _pass_bits(passes[-1])


class TestFixedPoint:
    """certify stops once adjust_weights returns a pass's own weights."""

    def test_stops_at_repeated_weights(self, monkeypatch):
        module = importlib.import_module("wlpcert.certify")
        weighted = module.solve_weighted_lp
        calls = []

        def counted(*args, **kwargs):
            calls.append(0)
            return weighted(*args, **kwargs)

        monkeypatch.setattr(module, "solve_weighted_lp", counted)
        for m, n in LADDER_SHAPES:
            inst = random_instance(m, n, 1)
            full = full_loop_certify(inst).iterations
            # The first pass whose adjusted weights, the next pass's, equal
            # its own; every ladder input has one before its last pass.
            k = next(
                i
                for i in range(len(full) - 1)
                if np.array_equal(full[i].weights.c, full[i + 1].weights.c)
            )
            calls.clear()
            cert = certify(inst)
            assert len(calls) == len(cert.iterations) == k + 1
            assert len(full) == 10
            _assert_truncates(cert.iterations, full)
            assert cert.discrepancies[-1] == f"{REPEAT_NOTE} {k + 1}"

    @staticmethod
    def full_loop_cases(ex1, ex2, ex3, monkeypatch):
        yield ex1, CertifyConfig(), None
        yield ex1, CertifyConfig(beta_override=0.5625), None
        yield ex2, CertifyConfig(), None
        yield ex2, CertifyConfig(beta_override=0.7), Weights(np.array([0.5, 0.7, 0.8]))
        yield ex3, CertifyConfig(), None
        yield ex3, CertifyConfig(beta_override=0.7), Weights(np.array([0.5, 0.35, 0.3]))
        yield cycle_instance(9), CertifyConfig(), None
        for workload in ("ladder", "small"):
            for case in workload_cases(workload, 1, monkeypatch):
                yield case.instance, case.config, case.weights

    def test_matches_full_loop(self, ex1, ex2, ex3, monkeypatch):
        repeats = 0
        for inst, config, weights in self.full_loop_cases(ex1, ex2, ex3, monkeypatch):
            cert = certify(inst, config, weights=weights)
            full = full_loop_certify(inst, config, weights=weights)
            k = len(cert.iterations)
            # Where certify stops at a fixed point, the full loop runs on
            # until the budget stops it.
            repeat = f"{REPEAT_NOTE} {k}"
            repeats += repeat in cert.discrepancies
            notes = [BUDGET_NOTE if d == repeat else d for d in cert.discrepancies]
            assert notes == list(full.discrepancies)
            if repeat not in cert.discrepancies:
                assert len(full.iterations) == k
            _assert_truncates(cert.iterations, full.iterations)
            assert len({id(p) for p in cert.iterations}) == k
            for name in ("x", "value", "status"):
                assert _bits(getattr(cert.lp_solution, name)) == _bits(
                    getattr(full.lp_solution, name)
                )
            assert final_basis(cert.lp_solution) == final_basis(full.lp_solution)
            for name in (
                "certified",
                "recovered",
                "brute_force_verified",
                "brute_force_value",
                "brute_force_optimum",
            ):
                assert _bits(getattr(cert, name)) == _bits(getattr(full, name))
        # Examples 1 and 2 at default settings, every ladder input and 83
        # of small's 112 stop at a fixed point.
        assert repeats == 2 + 5 + 83

    def test_fixed_point_on_last_pass(self):
        # Pass 2 of random_instance(3, 3, 1) repeats its weights. With a
        # budget of 2 it is the last pass, and the note still names the
        # fixed point, not the budget; with a budget of 1 the budget stops
        # the loop first.
        inst = random_instance(3, 3, 1)
        assert certify(inst).discrepancies == (f"{REPEAT_NOTE} 2",)
        cert = certify(inst, CertifyConfig(max_weight_iterations=2))
        assert cert.discrepancies == (f"{REPEAT_NOTE} 2",)
        assert cert.iterations[0] is not cert.iterations[1]
        cert = certify(inst, CertifyConfig(max_weight_iterations=1))
        assert cert.discrepancies == (BUDGET_NOTE,)
        assert len(cert.iterations) == 1


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

    def test_bound_not_strict_is_an_integer_tie(self, monkeypatch):
        # s_star = floor((min c / 2) / eta1), so with eta1 > 0 the bound
        # s_star * eta1 misses the threshold strictly only when that ratio
        # sits on the integer s_star.
        ties = 0
        for case in workload_cases("small", 1, monkeypatch):
            cert = certify(case.instance, case.config, weights=case.weights)
            for p in cert.iterations:
                if p.reason is not PassReason.BOUND_NOT_STRICT:
                    continue
                eta1 = p.report.eta1
                assert eta1 > ZERO_TOL
                ratio = 0.5 * float(np.min(p.weights.c)) / eta1
                assert abs(ratio - p.report.s_star) <= max(1e-9, 1e-10 / eta1)
                ties += 1
        assert ties > 0

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


class TestCertifiedRecoverySearch:
    """A hypothesis search (derandomised by the tier1 profile) for a
    certified recovery that is not a 0-1 optimum: integer A in [0, 3]
    with m <= 6 and n <= 8, b_i a quarter multiple of row i's sum (so
    x = 1 is feasible), and each row scaled by 2^s, s in [-3, 3]. The
    fixed example is the search's shrunk wrong certificate of the paper's
    test, which the check refutes: rows (0, 1 | 1/4) and (3, 1 | 1) x 1/2
    pass the eta test with the recovery [1, 1], and x = (0, 1) covers
    both. With row 2 unscaled the eta test fails (s_star = 1 < 2), so the
    row scale alone makes the wrong certificate."""

    def test_certified_recovery_is_exact(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def scaled_covers(draw):
            m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
            entries = st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n)
            A = np.array(draw(entries), dtype=float).reshape(m, n)
            quarters = st.lists(st.integers(0, 4), min_size=m, max_size=m)
            b = A.sum(axis=1) * np.array(draw(quarters)) / 4
            scales = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
            scale = np.ldexp(1.0, np.array(draw(scales)))
            return ZeroOneInstance(A=A * scale[:, None], b=b * scale)

        @hypothesis.settings(max_examples=200)
        @hypothesis.given(scaled_covers())
        @hypothesis.example(
            ZeroOneInstance(
                A=np.array([[0.0, 1.0], [1.5, 0.5]]), b=np.array([0.25, 0.5])
            )
        )
        def check(inst):
            value, _ = brute_force_ip(inst)
            assert branch_and_bound_ip(inst)[0] == value
            cert = certify(inst)
            if cert.certified:
                assert np.all(inst.A @ cert.recovered >= inst.b - ZERO_TOL)
                assert int(cert.recovered.sum()) == value

        check()


def random_graph_instance(n, seed, density=0.3):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng = np.random.default_rng([seed, n])
    chosen = rng.choice(len(pairs), size=round(density * len(pairs)), replace=False)
    return from_independent_set(n, [pairs[i] for i in sorted(chosen)])


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


class TestRowScale:
    """The paper's test is not row-scale invariant, in the unsafe
    direction too: halving row 2 of an uncertified instance makes its
    first pass pass the eta test with a wrong recovery, which only the
    exact check refutes."""

    def test_as_given_never_passes(self):
        A, b = np.array([[0.0, 1.0], [3.0, 1.0]]), np.array([0.25, 1.0])
        cert = certify(ZeroOneInstance(A=A, b=b))
        reasons = [p.reason for p in cert.iterations]
        assert reasons == [PassReason.SUPPORT_GT_S_STAR] * 2
        assert [p.report.s_star for p in cert.iterations] == [1, 1]
        assert not cert.certified
        assert cert.brute_force_value is None

    def test_row_halved_is_refuted(self):
        A, b = np.array([[0.0, 1.0], [1.5, 0.5]]), np.array([0.25, 0.5])
        cert = certify(ZeroOneInstance(A=A, b=b))
        [first] = cert.iterations
        assert first.reason is PassReason.REFUTED
        assert first.report.certified and first.report.s_star == 2
        assert first.report.eta1 == pytest.approx(0.15)
        np.testing.assert_array_equal(cert.recovered, [1, 1])
        assert cert.brute_force_value == 1
        assert cert.brute_force_optimum == (0, 1)


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
