import math

import numpy as np
import pytest

from wlpcert import (
    Weights,
    ZeroOneInstance,
    beta_bar,
    eta_j,
    from_independent_set,
    gamma_hat_closed_form,
    random_instance,
    sufficient_verdict,
    to_standard_form,
)
from wlpcert.goodness import _s_star_from

from _oracles import gamma_hat_exact


def _report(sf, c, beta):
    """The full verdict report: every eta_j, their maximum eta1 and s_star."""
    return sufficient_verdict(sf, c, beta)[1]


class TestBetaBar:
    def test_example2_default_rule(self, sf2, ones3):
        assert beta_bar(sf2, ones3) == pytest.approx(0.5, abs=1e-12)

    def test_example3_default_rule(self, sf3, ones3):
        assert beta_bar(sf3, ones3) == pytest.approx(0.375, abs=1e-12)

    def test_example1_default_differs_from_override_radius(self, sf1, ones3):
        # The column-norm rule gives 0.375 here; the 0.5625 radius used
        # elsewhere for this instance needs an explicit override.
        assert beta_bar(sf1, ones3) == pytest.approx(0.375, abs=1e-12)


class TestEta:
    def test_example1_column1(self, sf1, ones3):
        value, witness = eta_j(sf1, ones3, 0.5625, 0)
        assert value == pytest.approx(0.21875, abs=1e-8)
        q = witness.q
        assert np.all(q[:3] >= -1e-8) and np.all(q[3:] <= 1e-8)
        assert np.max(np.abs(q)) <= 0.5625 + 1e-8

    def test_example2_column1_exact_hit(self, sf2, ones3):
        value, witness = eta_j(sf2, ones3, 0.5, 0)
        assert value == pytest.approx(0.0, abs=1e-9)
        target = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            sf2.A1.T @ witness.q, target, atol=1e-8
        )

    def test_example2_column3_capped(self, sf2, ones3):
        value, _ = eta_j(sf2, ones3, 0.5, 2)
        assert value == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("beta", [0.0, math.nan, math.inf])
    def test_rejects_bad_box_bound(self, sf1, ones3, beta):
        with pytest.raises(ValueError, match="positive and finite"):
            eta_j(sf1, ones3, beta, 0)

    def test_example1_max(self, sf1, ones3):
        assert _report(sf1, ones3, 0.5625).eta1 == pytest.approx(0.21875, abs=1e-8)

    def test_example2_adjusted(self, sf2):
        c = Weights(np.array([0.5, 0.7, 0.8]))
        assert _report(sf2, c, 0.7).eta1 == pytest.approx(0.1, abs=1e-8)

    def test_example3_default_weights(self, sf3, ones3):
        assert _report(sf3, ones3, 0.375).eta1 == pytest.approx(
            0.2916666666666, abs=1e-8
        )

    def test_example3_adjusted_weights_reach_zero(self, sf3):
        # Direct evaluation of the per-column subproblems: every target
        # is exactly reachable, so the bound is 0 (not the published 0.1).
        c = Weights(np.array([0.5, 0.35, 0.3]))
        assert _report(sf3, c, 0.7).eta1 == pytest.approx(0.0, abs=1e-9)

    def test_nonincreasing_in_beta(self, sf1, ones3):
        values = [_report(sf1, ones3, b).eta1 for b in (0.2, 0.375, 0.5625, 1.0)]
        for small, large in zip(values, values[1:]):
            assert large <= small + 1e-9

    def test_row_permutation_invariance(self, ex1, ones3):
        perm = np.random.default_rng(3).permutation(ex1.m)
        permuted = ZeroOneInstance(A=ex1.A[perm], b=ex1.b[perm])
        sf, sf_perm = to_standard_form(ex1), to_standard_form(permuted)
        for j in range(ex1.n):
            assert eta_j(sf_perm, ones3, 0.5625, j)[0] == pytest.approx(
                eta_j(sf, ones3, 0.5625, j)[0], abs=1e-9
            )


def _full_epigraph_eta(A, cj, col, beta):
    """eta_j by HiGHS on the unreduced LP over (u, v, t): min t subject to
    |c_col e_col - A^T u - v| <= t, u in [0, beta]^m, v in [-beta, 0]^n."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = A.shape
    target = np.zeros(n)
    target[col] = cj
    M = np.hstack([A.T, np.eye(n)])
    ones = np.ones((n, 1))
    res = linprog(
        np.r_[np.zeros(m + n), 1.0],
        A_ub=np.vstack([np.hstack([M, -ones]), np.hstack([-M, -ones])]),
        b_ub=np.r_[target, -target],
        bounds=[(0, beta)] * m + [(-beta, 0)] * n + [(0, None)],
        method="highs",
    )
    assert res.status == 0
    return res.fun


class TestEtaDifferential:
    """The reduced (u, t) LP of eta_j against HiGHS on the full LP."""

    @staticmethod
    def _check(inst, c, beta):
        """Compares every column and returns the eta_j values."""
        sf = to_standard_form(inst)
        values = []
        for j in range(inst.n):
            value, witness = eta_j(sf, c, beta, j)
            reference = _full_epigraph_eta(inst.A, c.c[j], j, beta)
            assert abs(value - reference) <= 1e-8
            q = witness.q
            target = np.zeros(inst.n)
            target[j] = c.c[j]
            residual = np.max(np.abs(target - sf.A1.T @ q))
            assert abs(residual - value) <= 1e-9
            assert np.all(q[: inst.m] >= -1e-9)
            assert np.all(q[inst.m :] <= 1e-9)
            assert np.max(np.abs(q)) <= beta + 1e-9
            values.append(value)
        return values

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(700 + seed)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        inst = random_instance(m, n, seed=700 + seed, max_entry=3)
        c = Weights(rng.uniform(0.2, 1.0, size=n))
        bb = beta_bar(to_standard_form(inst), c)
        for beta in (bb / 2, bb, 2 * bb):
            self._check(inst, c, beta)

    def test_odd_cycle_reaches_zero(self):
        inst, _ = from_independent_set(9, [(i, i % 9 + 1) for i in range(1, 10)])
        c = Weights(np.ones(9))
        assert beta_bar(to_standard_form(inst), c) == pytest.approx(0.5)
        assert max(self._check(inst, c, 0.5)) == pytest.approx(0.0, abs=1e-9)


class TestSStar:
    def test_example1(self, sf1, ones3):
        assert _report(sf1, ones3, 0.5625).s_star == 2

    def test_example3(self, sf3, ones3):
        assert _report(sf3, ones3, 0.375).s_star == 1

    def test_zero_eta_gives_n(self, sf3):
        c = Weights(np.array([0.5, 0.35, 0.3]))
        assert _report(sf3, c, 0.7).s_star == 3


class TestGammaHat:
    def test_example1_published_radius(self, sf1, ones3):
        assert gamma_hat_exact(sf1, ones3, 0.5625, 2) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_s_zero(self, sf1, ones3):
        assert gamma_hat_exact(sf1, ones3, 0.5, 0) == 0.0

    def test_beta_zero_puts_mass_on_best_coordinate(self, sf1, ones3):
        assert gamma_hat_exact(sf1, ones3, 1e-12, 1) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_closed_form_example1(self, sf1, ones3):
        assert gamma_hat_closed_form(sf1, ones3, 0.5625) == pytest.approx(0.0)

    def test_closed_form_beta_zero(self, sf1, ones3):
        assert gamma_hat_closed_form(sf1, ones3, 0.0) == pytest.approx(1.0)

    def test_infinite_beta_kernel_case(self, sf1, ones3):
        # A1 contains the identity block, so its kernel is trivial.
        assert gamma_hat_exact(sf1, ones3, math.inf, 2) == pytest.approx(
            0.0, abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        inst = random_instance(m, n, seed=500 + seed, max_entry=2)
        sf = to_standard_form(inst)
        c = Weights(np.ones(n))
        bb = beta_bar(sf, c)
        for beta in (bb / 2, bb, 2 * bb):
            closed = gamma_hat_closed_form(sf, c, beta)
            for s in (1, 2):
                if s > n:
                    continue
                assert gamma_hat_exact(sf, c, beta, s) == pytest.approx(
                    closed, abs=1e-8
                )

    def test_nondecreasing_in_s(self, sf3, ones3):
        values = [gamma_hat_exact(sf3, ones3, 0.1, s) for s in (1, 2, 3)]
        for small, large in zip(values, values[1:]):
            assert large >= small - 1e-9

    def test_enumeration_guard(self):
        inst = random_instance(2, 50, seed=1)
        sf = to_standard_form(inst)
        with pytest.raises(ValueError, match="guard"):
            gamma_hat_exact(sf, Weights(np.ones(50)), 1.0, 25)


class TestBoundChain:
    @pytest.mark.parametrize("seed", range(20))
    def test_gamma_below_amplified_eta(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        inst = random_instance(m, n, seed=900 + seed, max_entry=2)
        sf = to_standard_form(inst)
        c = Weights(np.ones(n))
        beta = beta_bar(sf, c)
        eta1 = _report(sf, c, beta).eta1
        for s in (1, 2):
            assert gamma_hat_exact(sf, c, beta, s) <= s * eta1 + 1e-8


class TestSufficientVerdict:
    def test_example1_certifies(self, sf1, ones3):
        certified, report = sufficient_verdict(sf1, ones3, 0.5625)
        assert certified
        assert report.eta_s_bound == pytest.approx(0.4375, abs=1e-8)
        assert report.threshold == pytest.approx(0.5)
        assert report.s_star == 2
        assert report.eta1 == pytest.approx(max(report.eta_per_column))

    def test_example2_default_weights_strict_failure(self, sf2, ones3):
        certified, report = sufficient_verdict(sf2, ones3, 0.5)
        assert not certified
        assert report.eta_s_bound == pytest.approx(0.5, abs=1e-8)

    def test_example2_adjusted_weights(self, sf2):
        c = Weights(np.array([0.5, 0.7, 0.8]))
        certified, report = sufficient_verdict(sf2, c, 0.7)
        assert certified
        assert report.eta_s_bound == pytest.approx(0.2, abs=1e-8)
        assert report.threshold == pytest.approx(0.25)

    def test_stops_at_first_decisive_column(self, sf1, ones3):
        # eta_0 = 0.21875 alone gives s_star = floor(0.5 / 0.21875) = 2 < 3.
        certified, report = sufficient_verdict(sf1, ones3, 0.5625, s_observed=3)
        assert not certified and not report.certified
        assert report.eta_per_column == pytest.approx((0.21875,), abs=1e-8)
        assert len(report.witnesses) == 1
        assert report.s_star == 2

    def test_support_within_s_star_solves_every_column(self, sf1, ones3):
        certified, report = sufficient_verdict(sf1, ones3, 0.5625, s_observed=2)
        assert certified
        assert len(report.eta_per_column) == 3

    @pytest.mark.parametrize("example", ["sf1", "sf2", "sf3"])
    def test_default_is_the_full_report(self, example, ones3, request):
        sf = request.getfixturevalue(example)
        beta = beta_bar(sf, ones3)
        solved = [eta_j(sf, ones3, beta, j) for j in range(sf.n)]
        etas = tuple(value for value, _ in solved)
        star = _s_star_from(max(etas), 1.0, sf.n)
        expected = dict(
            beta_bar=beta,
            beta_used=beta,
            eta_per_column=etas,
            eta1=max(etas),
            s_star=star,
            eta_s_bound=star * max(etas),
            gamma_hat=gamma_hat_closed_form(sf, ones3, beta),
            threshold=0.5,
            certified=star * max(etas) < 0.5 - 1e-10,
        )
        for certified, report in (
            sufficient_verdict(sf, ones3, beta),
            sufficient_verdict(sf, ones3, beta, s_observed=0),
        ):
            assert certified == expected["certified"]
            for name, value in expected.items():
                assert getattr(report, name) == value, name
            for witness, (_, reference) in zip(report.witnesses, solved, strict=True):
                np.testing.assert_array_equal(witness.q, reference.q)
                assert witness.achieved_residual == reference.achieved_residual

    def test_witness_invariants(self, sf1, ones3):
        _, report = sufficient_verdict(sf1, ones3, 0.5625)
        m = sf1.m
        for witness in report.witnesses:
            q = witness.q
            assert np.all(q[:m] >= -1e-8)
            assert np.all(q[m:] <= 1e-8)
            assert np.max(np.abs(q)) <= 0.5625 + 1e-8
