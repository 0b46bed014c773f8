import importlib
import math

import numpy as np
import pytest

from wlpcert import (
    Weights,
    ZeroOneInstance,
    beta_bar,
    certify,
    eta_j,
    from_independent_set,
    gamma_hat_closed_form,
    random_instance,
    sufficient_verdict,
    to_standard_form,
)
from wlpcert.goodness import STRICT_GUARD, _s_star_from
from _oracles import gamma_hat_exact, reference_loaded_tableau
from conftest import workload_cases


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
        value, q = eta_j(sf1, ones3, 0.5625, 0)
        assert value == pytest.approx(0.21875, abs=1e-8)
        assert np.all(q[:3] >= -1e-8) and np.all(q[3:] <= 1e-8)
        assert np.max(np.abs(q)) <= 0.5625 + 1e-8

    def test_example2_column1_exact_hit(self, sf2, ones3):
        value, q = eta_j(sf2, ones3, 0.5, 0)
        assert value == pytest.approx(0.0, abs=1e-9)
        target = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(sf2.T @ q, target, atol=1e-8)

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

    def test_every_solve_starts_from_closed_form_point(self, sf1, ones3, monkeypatch):
        # Each LP starts from a tableau whose point is the feasible
        # (u = 0, t = c_j), in a verdict and on its own: the slack-basis
        # tableau with t loaded into row n by one pivot.
        goodness = importlib.import_module("wlpcert.goodness")
        solve = goodness.solve
        calls = []

        def counted(lp, *args, start, **kwargs):
            calls.append((lp, tuple(a.copy() for a in start)))
            return solve(lp, *args, start=start, **kwargs)

        monkeypatch.setattr(goodness, "solve", counted)
        sufficient_verdict(sf1, ones3)
        eta_j(sf1, ones3, 0.5, 2)
        assert len(calls) == 4
        for lp, (T, basis) in calls:
            loaded_T, loaded_basis, loaded = reference_loaded_tableau(lp, basis)
            assert loaded == 1
            assert (T + 0.0).tobytes() == (loaded_T + 0.0).tobytes()
            assert basis.tolist() == loaded_basis
            assert np.all(T[:, -1] >= 0)
            z = np.zeros(T.shape[1] - 1)
            z[basis] = T[:, -1]
            np.testing.assert_array_equal(z[: lp.nvars], [0, 0, 0, 1])


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
            value, q = eta_j(sf, c, beta, j)
            reference = _full_epigraph_eta(inst.A, c.c[j], j, beta)
            assert abs(value - reference) <= 1e-8
            target = np.zeros(inst.n)
            target[j] = c.c[j]
            residual = np.max(np.abs(target - sf.T @ q))
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
        inst = from_independent_set(9, [(i, i % 9 + 1) for i in range(1, 10)])
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

    def test_weights_of_wrong_length_raise(self):
        sf = to_standard_form(random_instance(2, 3, 1))
        with pytest.raises(ValueError, match="length 2, the instance has 3"):
            sufficient_verdict(sf, Weights(c=[1, 1]))

    def test_support_within_s_star_solves_every_column(self, sf1, ones3):
        certified, report = sufficient_verdict(sf1, ones3, 0.5625, s_observed=2)
        assert certified
        assert len(report.eta_per_column) == 3

    @pytest.mark.parametrize("example", ["sf1", "sf2", "sf3"])
    def test_default_is_the_full_report(self, example, ones3, request):
        sf = request.getfixturevalue(example)
        beta = beta_bar(sf, ones3)
        n = sf.shape[1]
        solved = [eta_j(sf, ones3, beta, j) for j in range(n)]
        etas = tuple(value for value, _ in solved)
        star = _s_star_from(max(etas), 1.0, n)
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
            sufficient_verdict(sf, ones3),
            sufficient_verdict(sf, ones3, beta),
            sufficient_verdict(sf, ones3, beta, s_observed=0),
        ):
            assert certified == expected["certified"]
            for name, value in expected.items():
                assert getattr(report, name) == value, name
            for q, (_, reference) in zip(report.witnesses, solved, strict=True):
                np.testing.assert_array_equal(q, reference)

    def test_override_reports_the_default_radius(self, sf1, ones3):
        _, report = sufficient_verdict(sf1, ones3, 0.5625)
        assert report.beta_bar == beta_bar(sf1, ones3) == 0.375
        assert report.beta_used == 0.5625

    def test_witness_invariants(self, sf1, ones3):
        _, report = sufficient_verdict(sf1, ones3, 0.5625)
        m = sf1.shape[0] - sf1.shape[1]
        for q in report.witnesses:
            assert np.all(q[:m] >= -1e-8)
            assert np.all(q[m:] <= 1e-8)
            assert np.max(np.abs(q)) <= 0.5625 + 1e-8


class TestSingleRowLaw:
    """u = (c_j / A_ij) e_i meets c_j e_j exactly in coordinate j and
    leaves c_j A_ik / A_ij to v_k elsewhere, so it zeroes eta_j once
    beta >= (c_j / A_ij) max(1, max_{k != j} A_ik)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_eta_vanishes_at_the_single_row_radius(self, seed):
        rng = np.random.default_rng(900 + seed)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        inst = random_instance(m, n, seed=900 + seed, max_entry=3)
        c = Weights(rng.uniform(0.2, 1.0, size=n))
        A1 = to_standard_form(inst)
        for j in range(n):
            for i in np.flatnonzero(inst.A[:, j]):
                others = np.delete(inst.A[i], j).max(initial=0.0)
                radius = c.c[j] / inst.A[i, j] * max(1.0, others)
                for beta in (radius, 2 * radius):
                    assert eta_j(A1, c, beta, j)[0] <= 1e-12


class TestVerdictMonotoneInBeta:
    """Every eta_j is nonincreasing in beta, and s_star does not shrink as
    eta1 falls. So a verdict that certifies at beta still certifies at
    every larger radius, unless s_star * eta1 lands on the threshold
    (bound_not_strict)."""

    FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 1e3)

    def test_small_workload_verdicts(self, monkeypatch):
        module = importlib.import_module("wlpcert.certify")
        verdicts = []

        def record(A1, c, beta, **kwargs):
            verdicts.append((A1, c, kwargs["s_observed"]))
            return sufficient_verdict(A1, c, beta, **kwargs)

        monkeypatch.setattr(module, "sufficient_verdict", record)
        for case in workload_cases("small", 1, monkeypatch):
            certify(case.instance, case.config, weights=case.weights)
        certified = 0
        for A1, c, s_observed in verdicts:
            bb = beta_bar(A1, c)
            was_certified = False
            for factor in self.FACTORS:
                ok, report = sufficient_verdict(A1, c, factor * bb, s_observed)
                certified += ok
                if was_certified and not ok:
                    assert report.s_star >= s_observed
                    assert report.eta_s_bound >= report.threshold - STRICT_GUARD
                was_certified = ok
        assert certified > 0
