"""Chi-square power machinery and binomial planning against oracles."""

import hashlib
import math

import numpy as np
import pytest
import scipy.stats

from shotbudget import (
    Distribution,
    binomial_cdf,
    binomial_decision,
    binomial_rejection_threshold,
    chi2_distance,
    chisq_validity,
    lambda_noncentral,
    parse_distribution,
    shots_chisq,
    two_proportion_shots,
    w2_fidelity_attaining,
    w2_small_discrepancy,
)
from shotbudget.errors import (
    BaselineNotAboveTarget,
    DegenerateStates,
    DimensionMismatch,
    DomainError,
    ZeroExpectedBin,
)
from shotbudget.stat_power import (
    bhattacharyya_coefficient,
    chi2_cdf,
    chi2_quantile,
    hellinger_distance,
    noncentral_chi2_cdf,
    pearson_statistic,
)

HALF = Distribution(np.array([0.5, 0.5]))
SKEW = Distribution(np.array([0.25, 0.75]))


class TestDistances:
    def test_frozen_half_vs_skew(self):
        # hand-derived: w2 = (1/4)^2/(1/4) + (1/4)^2/(3/4) = 1/3,
        # BC = sqrt(1/8) + sqrt(3/8), H = sqrt(1 - BC)
        assert chi2_distance(HALF, SKEW) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert bhattacharyya_coefficient(HALF, SKEW) == pytest.approx(0.9659258262890683, abs=1e-12)
        assert hellinger_distance(HALF, SKEW) == pytest.approx(0.18459191128251476, abs=1e-12)

    def test_chi2_distance_zero_on_equal(self):
        assert chi2_distance(HALF, HALF) == 0.0

    def test_chi2_distance_asymmetric_reference(self):
        assert chi2_distance(HALF, SKEW) != pytest.approx(chi2_distance(SKEW, HALF))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionMismatch):
            chi2_distance(HALF, Distribution(np.array([0.2, 0.3, 0.5])))

    def test_rejects_zero_reference_bin(self):
        with pytest.raises(ZeroExpectedBin):
            chi2_distance(Distribution(np.array([0.5, 0.25, 0.25])), Distribution(np.array([0.5, 0.5, 0.0])))

    def test_small_discrepancy_limit_links_w2_and_hellinger(self, rng):
        # for q = p + delta with tiny delta, w2 -> 8 H^2
        for _ in range(10):
            p = rng.dirichlet(np.ones(16))
            delta = rng.standard_normal(16) * 1e-4 * p
            delta -= p * np.sum(delta)  # keep the perturbation on the simplex
            q = p + delta
            pd, qd = Distribution(p), Distribution(q)
            w2 = chi2_distance(pd, qd)
            h2 = hellinger_distance(pd, qd) ** 2
            assert w2 == pytest.approx(8.0 * h2, rel=1e-3)


class TestChiSquareCdf:
    def test_central_against_scipy(self):
        for df in (1, 3, 15, 63):
            for x in (0.1, 1.0, 10.0, 80.0):
                assert chi2_cdf(x, df) == pytest.approx(
                    scipy.stats.chi2.cdf(x, df), abs=1e-11
                ), (df, x)

    def test_quantile_round_trip(self):
        # solver stops at ~1e-9 bracket width; the df=1 density near zero
        # is ~6, so allow the product of the two on the probability side
        for df in (1, 7, 31):
            for prob in (0.05, 0.5, 0.99):
                x = chi2_quantile(prob, df)
                assert chi2_cdf(x, df) == pytest.approx(prob, abs=5e-8)

    def test_frozen_critical_value(self):
        # 99th percentile at 15 degrees of freedom
        assert chi2_quantile(0.99, 15) == pytest.approx(30.57791416689249, rel=1e-9)

    def test_noncentral_against_scipy(self):
        for df in (1, 3, 15):
            for nc in (0.5, 5.0, 44.9):
                for x in (1.0, 10.0, 40.0, 90.0):
                    assert noncentral_chi2_cdf(x, df, nc) == pytest.approx(
                        scipy.stats.ncx2.cdf(x, df, nc), abs=1e-10
                    ), (df, nc, x)

    def test_noncentral_zero_reduces_to_central(self):
        assert noncentral_chi2_cdf(5.0, 3, 0.0) == pytest.approx(chi2_cdf(5.0, 3), abs=1e-12)


class TestLambdaNoncentral:
    def test_frozen_anchors(self):
        assert lambda_noncentral(15, 0.01, 0.99) == pytest.approx(44.92809495269625, abs=1e-6)
        assert lambda_noncentral(1, 0.05, 0.80) == pytest.approx(7.848860509326196, abs=1e-6)
        assert lambda_noncentral(3, 0.05, 0.95) == pytest.approx(17.169897871475982, abs=1e-6)

    def test_attained_power_matches_scipy(self):
        for df, alpha, power in ((7, 0.01, 0.9), (31, 0.05, 0.99), (2, 0.1, 0.5)):
            lam = lambda_noncentral(df, alpha, power)
            crit = scipy.stats.chi2.ppf(1.0 - alpha, df)
            attained = 1.0 - scipy.stats.ncx2.cdf(crit, df, lam)
            assert attained == pytest.approx(power, abs=1e-7)

    def test_monotone_in_power_and_df(self):
        lams = [lambda_noncentral(7, 0.05, p) for p in (0.5, 0.8, 0.95, 0.99)]
        assert lams == sorted(lams)
        lams = [lambda_noncentral(df, 0.05, 0.9) for df in (1, 3, 15, 63)]
        assert lams == sorted(lams)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            lambda_noncentral(0, 0.05, 0.9)
        with pytest.raises(DomainError):
            lambda_noncentral(3, 0.0, 0.9)
        with pytest.raises(DomainError):
            lambda_noncentral(3, 0.5, 0.4)  # power below alpha


class TestChiSquarePlanning:
    def test_frozen_fidelity_w2(self):
        assert w2_fidelity_attaining(0.999) == pytest.approx(6.253126954492152e-08, rel=1e-10)
        assert w2_small_discrepancy(0.999) == pytest.approx(0.004001000500312379, rel=1e-12)
        assert w2_fidelity_attaining(0.99) == pytest.approx(6.281446690022607e-06, rel=1e-10)
        assert w2_small_discrepancy(0.99) == pytest.approx(0.04010050314704028, rel=1e-12)

    def test_frozen_shot_plans(self):
        plan = shots_chisq(w2_small_discrepancy(0.999), 16, 0.01, 0.01)
        assert plan.raw == pytest.approx(11229.2, abs=0.5)
        assert plan.shots == 11230
        plan = shots_chisq(w2_fidelity_attaining(0.999), 16, 0.01, 0.01)
        assert plan.shots == 718490050
        plan = shots_chisq(w2_small_discrepancy(0.99), 16, 0.01, 0.01)
        assert plan.shots == 1121
        plan = shots_chisq(w2_fidelity_attaining(0.99), 16, 0.01, 0.01)
        assert plan.shots == 7152508

    def test_attaining_needs_more_than_small(self):
        for f in (0.9, 0.99, 0.999):
            assert w2_fidelity_attaining(f) < w2_small_discrepancy(f)

    def test_zero_w2_is_degenerate(self):
        with pytest.raises(DegenerateStates):
            shots_chisq(0.0, 16, 0.01, 0.01)

    def test_plan_carries_inputs(self):
        plan = shots_chisq(0.01, 8, 0.05, 0.1)
        assert plan.bins == 8
        assert plan.w2 == 0.01
        assert plan.shots == math.ceil(plan.raw)

    def test_pearson_statistic(self):
        stat, df = pearson_statistic([30.0, 70.0], [0.5, 0.5])
        assert stat == pytest.approx((20.0**2) / 50.0 * 2.0, rel=1e-12)
        assert df == 1

    def test_validity_warnings(self):
        quarter = Distribution(np.array([0.25, 0.25, 0.25, 0.25]))
        assert chisq_validity(200, quarter) == ()
        warns = chisq_validity(12, quarter)
        assert any("13" in w for w in warns)
        warns = chisq_validity(16, quarter)  # expected count 4 per bin, below 5
        assert any("5" in w for w in warns)


class TestBinomialPlanning:
    def test_frozen_anchor_perfect_baseline(self):
        plan = two_proportion_shots(1.0, 0.99, 0.01, 0.01)
        assert plan.raw == pytest.approx(2148.5186811291906, rel=1e-12)
        assert plan.shots == 2149

    def test_frozen_anchor_swap_like_target(self):
        plan = two_proportion_shots(1.0, 0.90, 0.01, 0.01)
        assert plan.raw == pytest.approx(200.20352041464903, rel=1e-12)
        assert plan.shots == 201

    def test_two_sided_needs_more(self):
        one = two_proportion_shots(1.0, 0.99, 0.01, 0.01)
        two = two_proportion_shots(1.0, 0.99, 0.01, 0.01, one_sided=False)
        assert two.raw > one.raw
        assert not two.one_sided

    def test_rejects_baseline_not_above(self):
        with pytest.raises(BaselineNotAboveTarget):
            two_proportion_shots(0.9, 0.95, 0.01, 0.01)
        with pytest.raises(BaselineNotAboveTarget):
            two_proportion_shots(0.9, 0.9, 0.01, 0.01)

    def test_decision_frozen_points(self):
        reject, p = binomial_decision(0, 10, 0.9, 0.05)
        assert reject
        assert p == pytest.approx(1e-10, rel=1e-9)
        reject, p = binomial_decision(9, 10, 0.9, 0.05)
        assert not reject
        assert p == pytest.approx(0.6513215599, abs=1e-9)

    def test_decision_matches_scipy_binom(self):
        for n, q0, x in ((50, 0.97, 44), (200, 0.999, 199), (30, 0.6, 12)):
            _, p = binomial_decision(x, n, q0, 0.05)
            assert p == pytest.approx(scipy.stats.binom.cdf(x, n, q0), rel=1e-9)

    def test_cdf_matches_scipy_and_the_decision(self):
        for n, q, k in ((50, 0.97, 44), (300, 0.95, 281), (1, 0.5, 0), (10, 0.9, 10)):
            assert binomial_cdf(k, n, q) == pytest.approx(scipy.stats.binom.cdf(k, n, q), rel=1e-9)
            assert binomial_cdf(k, n, q) == binomial_decision(k, n, q, 0.05)[1]
        assert binomial_cdf(9, 10, 1.0) == 0.0
        assert binomial_cdf(10, 10, 1.0) == 1.0
        for args in ((5, 0, 0.5), (11, 10, 0.5), (-1, 10, 0.5), (5, 10, 0.0), (5, 10, 1.5)):
            with pytest.raises(DomainError):
                binomial_cdf(*args)

    def test_threshold_consistent_with_decision(self):
        for n, q0, alpha in ((40, 0.95, 0.05), (100, 0.99, 0.01), (25, 0.7, 0.1)):
            threshold = binomial_rejection_threshold(n, q0, alpha)
            if threshold >= 0:
                assert binomial_decision(threshold, n, q0, alpha)[0]
            if threshold < n:
                assert not binomial_decision(threshold + 1, n, q0, alpha)[0]

    def test_tail_bits_are_pinned(self):
        # recorded from the two separate log-space loops; thresholds and
        # p-values (at the thresholds, their neighbours and a few fixed
        # counts) must keep every bit
        h = hashlib.sha256()
        for n in (1, 7, 100, 1000, 100_000):
            for q0 in (0.5, 0.9, 0.999, 1.0):
                counts = {0, n // 2, n - 1, n}
                for alpha in (0.01, 0.05, 0.3):
                    threshold = binomial_rejection_threshold(n, q0, alpha)
                    h.update(f"{n} {q0} {alpha} {threshold}\n".encode())
                    counts |= {threshold, threshold + 1}
                for count in sorted(c for c in counts if 0 <= c <= n):
                    reject, p = binomial_decision(count, n, q0, 0.05)
                    h.update(f"{n} {q0} {count} {reject} {p.hex()}\n".encode())
        assert h.hexdigest() == "d120a7778e04a55324593cfcb7161fd095d1eba43108f2ada2f89ca99dc0ea2e"

    def test_threshold_perfect_baseline(self):
        # q0 = 1: any miss at all is proof of degradation
        assert binomial_rejection_threshold(50, 1.0, 0.01) == 49

    def test_threshold_none_possible(self):
        # tiny n with modest q0: even zero successes is not significant
        assert binomial_rejection_threshold(1, 0.5, 0.01) == -1


class TestDistributionContainer:
    def test_renormalizes_within_slack(self):
        d = Distribution(np.array([0.5, 0.5 + 1e-9]))
        assert float(np.sum(d.probs)) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            Distribution(np.array([0.5, 0.6]))

    def test_rejects_negative_and_short(self):
        with pytest.raises(DomainError):
            Distribution(np.array([1.1, -0.1]))
        with pytest.raises(DomainError):
            Distribution(np.array([1.0]))

    def test_parse_round_trip(self):
        d = parse_distribution([0.25, 0.25, 0.5])
        assert d.k == 3
        with pytest.raises(DomainError):
            parse_distribution("not a list")
