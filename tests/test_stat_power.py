"""Chi-square power machinery and binomial planning against oracles."""

import hashlib
import math
import time
from fractions import Fraction

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
from shotbudget import stat_power
from shotbudget import tolerances as tol
from shotbudget.errors import (
    BaselineNotAboveTarget,
    DegenerateStates,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    ZeroExpectedBin,
)
from shotbudget.stat_power import (
    chi2_cdf,
    chi2_quantile,
    noncentral_chi2_cdf,
)

from conftest import walk_binomial_cdf, walk_rejection_threshold

HALF = Distribution(np.array([0.5, 0.5]))
SKEW = Distribution(np.array([0.25, 0.75]))


def _grid(n):
    """(q, count) at the mean and 1, 3 and 6 sd either side of it, counts in [0, n]."""
    for q in (0.5, 0.9, 0.99, 0.999):
        mean, sd = n * q, math.sqrt(n * q * (1.0 - q))
        for count in sorted({round(mean + sign * z * sd) for z in (0, 1, 3, 6) for sign in (-1, 1)}):
            if 0 <= count <= n:
                yield q, count


def _mp_binomial_cdf(mpmath, count, n, q):
    """P[Bin(n, q) <= count] as the exact point probability times the continued fraction
    of Numerical Recipes (6.4) for I_x(a, b), on the side where it converges."""
    if count == n:
        return mpmath.mpf(1)
    q = mpmath.mpf(q)

    def point(k):
        return mpmath.binomial(n, k) * q**k * (1 - q) ** (n - k)

    def fraction(a, b, x):  # 1 / (1 + d1 / (1 + d2 / ...)), by Lentz at working precision
        def term(i):
            m = i // 2
            return (m * (b - m) if i % 2 == 0 else -(a + m) * (a + b + m)) * x / ((a + i - 1) * (a + i))

        c, d = mpmath.mpf(1), 1 / (1 + term(1))
        h = d
        for i in range(2, 10**6):
            an = term(i)
            d, c = 1 / (1 + an * d), 1 + an / c
            h *= d * c
            if abs(d * c - 1) < mpmath.mpf(10) ** (5 - mpmath.mp.dps):
                return h
        raise AssertionError("reference fraction did not converge")

    if (1 - q) * (n + 3) < n - count + 1:
        return q * point(count) * fraction(n - count, count + 1, 1 - q)
    return 1 - (1 - q) * point(count + 1) * fraction(count + 1, n - count, q)


class TestDistances:
    def test_frozen_half_vs_skew(self):
        # hand-derived: w2 = (1/4)^2/(1/4) + (1/4)^2/(3/4) = 1/3
        assert chi2_distance(HALF, SKEW) == pytest.approx(1.0 / 3.0, rel=1e-12)

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

    @pytest.mark.parametrize("entries, index", [([math.nan, 1.0], 0), ([0.5, math.inf], 1),
                                                ([-math.inf, 0.5, 0.5], 0)])
    def test_non_finite_bins_are_named(self, entries, index):
        with pytest.raises(DomainError, match=rf"^bin {index} probability must be finite and >= 0, got "):
            Distribution(np.array(entries))

    def test_small_discrepancy_limit_links_w2_and_hellinger(self, rng):
        # for q = p + delta with tiny delta, w2 -> 8 H^2, with the Hellinger
        # distance H^2 = 1 - sum sqrt(p_i q_i); this backs w2_small_discrepancy
        for _ in range(10):
            p = rng.dirichlet(np.ones(16))
            delta = rng.standard_normal(16) * 1e-4 * p
            delta -= p * np.sum(delta)  # keep the perturbation on the simplex
            q = p + delta
            pd, qd = Distribution(p), Distribution(q)
            w2 = chi2_distance(pd, qd)
            h2 = 1.0 - float(np.sum(np.sqrt(np.asarray(pd.probs) * np.asarray(qd.probs))))
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

    def test_noncentral_at_a_subnormal_point(self):
        # x / m overflows in the Poisson point's deviance at y = 5e-324; logged apart, it reads 2.06e-163
        expected = scipy.stats.ncx2.cdf(1e-323, 1.0, 5.0)
        assert noncentral_chi2_cdf(1e-323, 1.0, 5.0) == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_noncentral_zero_reduces_to_central(self):
        assert noncentral_chi2_cdf(5.0, 3, 0.0) == pytest.approx(chi2_cdf(5.0, 3), abs=1e-12)
        assert noncentral_chi2_cdf(5.0, 3, 5e-324) == chi2_cdf(5.0, 3)  # lam / 2 rounds to 0

    def test_noncentral_where_the_modes_gamma_term_underflows(self):
        # y^a e^-y / Gamma(a + 1) is 0 at the mode a = 2.0008 but P(0.0008, y) ~= 0.66 at j = 0
        x, df, nc = 3.706236248360553e-226, 0.0016349202115137488, 4.154127155578954
        assert noncentral_chi2_cdf(x, df, nc) == pytest.approx(scipy.stats.ncx2.cdf(x, df, nc), abs=1e-12)

    @pytest.mark.parametrize("nc", [6000.0, 7160.0])
    def test_noncentral_where_rounding_stalls_the_mixture_weight(self, nc):
        # the summed Poisson weights stop short of 1 - 1e-12 here, by ~2.5e-12; 7160 is the
        # noncentrality of `chisq --w2 0.1 --bins 1048576`
        expected = scipy.stats.ncx2.cdf(nc, 100.0, nc)
        assert noncentral_chi2_cdf(nc, 100.0, nc) == pytest.approx(expected, abs=1e-11)

    @pytest.mark.parametrize("x, atol", [(chi2_quantile(0.99, 3.0), 1e-12), (5662621.5, 2e-9)])
    def test_noncentral_past_ten_thousand_mixture_steps(self, x, atol):
        # lam = 2.7648 * 2e6, the expected rate of a 2e6-shot validate run, takes ~11,800 steps;
        # up in the tail the rounded log-space weights sum to 1 - 1.1e-9
        expected = scipy.stats.ncx2.cdf(x, 3.0, 5529600.0)
        assert noncentral_chi2_cdf(x, 3.0, 5529600.0) == pytest.approx(expected, abs=atol)

    def test_a_hundred_million_noncentrality_answers_at_the_critical_value(self):
        # ~10^5 mixture terms, all but the mode's by recurrence
        assert noncentral_chi2_cdf(chi2_quantile(0.99, 3.0), 3.0, 1e8) == 0.0

    def test_noncentral_grid_against_scipy(self):
        # df up to 2^16 and lam up to 1e5, at fixed x and at the mean +- 5 sd
        for df in (1, 3, 15, 255, 4095, 2**16):
            for nc in (0.5, 44.9, 1e3, 1e5):
                mean, sd = df + nc, math.sqrt(2.0 * (df + 2.0 * nc))
                for x in (1.0, 10.0, 40.0, 90.0, mean - 5.0 * sd, mean + 5.0 * sd):
                    assert noncentral_chi2_cdf(x, df, nc) == pytest.approx(
                        scipy.stats.ncx2.cdf(x, df, nc), abs=1e-10
                    ), (df, nc, x)

    def test_noncentral_against_a_forty_digit_mixture(self):
        # the full-precision `expected` of `validate --scenario chisq` in the golden tests:
        # 120 shots at w^2 = 0.12 over 4 bins, alpha 0.05
        mpmath = pytest.importorskip("mpmath")
        crit = chi2_quantile(0.95, 3.0)
        with mpmath.workdps(40):
            half = mpmath.mpf(14.4) / 2
            exact = 1 - mpmath.nsum(lambda j: mpmath.exp(-half) * half**j / mpmath.factorial(j)
                                    * mpmath.gammainc(mpmath.mpf(1.5) + j, 0, mpmath.mpf(crit) / 2,
                                                      regularized=True), [0, mpmath.inf])
            assert abs(exact - mpmath.mpf("0.90497585652763443640")) < mpmath.mpf(10) ** -20
            assert abs(1.0 - noncentral_chi2_cdf(crit, 3.0, 14.4) - exact) <= 2e-15

    @pytest.mark.parametrize("nc", [1e5, 1e6, 5529600.0, 1e8])
    def test_noncentral_far_in_the_upper_tail_leaves_only_the_dropped_weight(self, nc):
        # F = 1 to double precision 40 sd above the mean; all it may lose is the 1e-12 of weight not summed
        assert 1.0 - noncentral_chi2_cdf(nc + 40.0 * math.sqrt(2.0 * nc), 3.0, nc) <= 2e-12

    @pytest.mark.parametrize("nc", [math.inf, math.nan])
    def test_noncentrality_must_be_finite(self, nc):
        with pytest.raises(DomainError, match=r"^noncentrality must be finite and >= 0, got (inf|nan)$"):
            noncentral_chi2_cdf(5.0, 3.0, nc)

    def test_kernel_faults_are_named(self):
        # chi2_cdf checks df before x <= 0 could make it 0
        with pytest.raises(DomainError, match=r"^degrees of freedom must be positive, got -5.0$"):
            noncentral_chi2_cdf(-1.0, -5.0, 1.0)
        # past the bins cap: the gamma series runs out of terms
        with pytest.raises(NoConvergence, match=r"^gamma series did not converge for a=8388608.0, "):
            chi2_quantile(0.99, 2**24)


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

    @pytest.mark.parametrize("df, lam", [
        (15, "0x1.676cbd0a00000p+5"), (1023, "0x1.cf275c3600000p+7"), (2**16, "0x1.aa81bfb600000p+10")])
    def test_one_gamma_call_per_mixture(self, df, lam, monkeypatch):
        # besides the critical value's bisection, a search runs one incomplete gamma per CDF it reads
        gamma_calls, cdf_calls = [], []
        gamma_p, cdf = stat_power.regularized_gamma_p, stat_power.noncentral_chi2_cdf
        monkeypatch.setattr(stat_power, "regularized_gamma_p",
                            lambda a, x: gamma_calls.append(a) or gamma_p(a, x))
        chi2_quantile(0.99, float(df))
        quantile_calls = len(gamma_calls)
        gamma_calls.clear()
        monkeypatch.setattr(stat_power, "noncentral_chi2_cdf", lambda *args: cdf_calls.append(args) or cdf(*args))
        assert lambda_noncentral(df, 0.01, 0.99).hex() == lam
        assert cdf_calls and len(gamma_calls) <= quantile_calls + len(cdf_calls)

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

    def test_every_power_of_two_bins_answers_up_to_the_cap(self):
        # bins = 2^k + 1 up to 2^22 + 1, ~0.2 s on a 2-vCPU VM; the bound leaves room for a slow machine
        start = time.perf_counter()
        shots = [shots_chisq(0.1, 2**k + 1, 0.01, 0.01).shots for k in range(1, 23)]
        assert time.perf_counter() - start < 3.0
        assert tol.CHISQ_MAX_BINS == 2**22 + 1
        assert shots == sorted(shots) and (shots[0], shots[-1]) == (275, 134973)
        for bins in (tol.CHISQ_MAX_BINS + 1, 2**24 + 1):
            with pytest.raises(DomainError, match=rf"^bins must lie in \[2, 4194305\], got {bins}$"):
                shots_chisq(0.1, bins, 0.01, 0.01)

    def test_zero_w2_is_degenerate(self):
        with pytest.raises(DegenerateStates):
            shots_chisq(0.0, 16, 0.01, 0.01)

    @pytest.mark.parametrize("w2", [math.nan, math.inf, -math.inf])
    def test_non_finite_w2_rejected(self, w2):
        with pytest.raises(DomainError, match=r"^w\^2 must be finite and >= 0, got "):
            shots_chisq(w2, 16, 0.01, 0.01)

    def test_plan_carries_inputs(self):
        plan = shots_chisq(0.01, 8, 0.05, 0.1)
        assert plan.bins == 8
        assert plan.w2 == 0.01
        assert plan.shots == math.ceil(plan.raw)

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

    @pytest.mark.parametrize("one_sided", [True, False])
    def test_raw_matches_scipy_quantiles(self, one_sided):
        # a quantile probability of 0.925 or less takes AS241's central branch, the rest its tails
        q0, q1 = 0.99, 0.95
        pbar = (q0 + q1) / 2.0
        for alpha in (1e-8, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3):
            for beta in (1e-8, 0.001, 0.01, 0.05, 0.1, 0.2, 0.3):
                z_a = scipy.stats.norm.ppf(1.0 - (alpha if one_sided else alpha / 2.0))
                z_b = scipy.stats.norm.ppf(1.0 - beta)
                root = (z_a * math.sqrt(2.0 * pbar * (1.0 - pbar))
                        + z_b * math.sqrt(q0 * (1.0 - q0) + q1 * (1.0 - q1)))
                plan = two_proportion_shots(q0, q1, alpha, beta, one_sided=one_sided)
                assert plan.raw == pytest.approx(root**2 / (q0 - q1) ** 2, rel=1e-12)

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
            assert p == pytest.approx(scipy.stats.binom.cdf(x, n, q0), rel=1e-11)

    def test_cdf_matches_scipy_and_the_decision(self):
        for n, q, k in ((50, 0.97, 44), (300, 0.95, 281), (1, 0.5, 0), (10, 0.9, 10)):
            assert binomial_cdf(k, n, q) == pytest.approx(scipy.stats.binom.cdf(k, n, q), rel=1e-11)
            assert binomial_cdf(k, n, q) == binomial_decision(k, n, q, 0.05)[1]
        assert binomial_cdf(9, 10, 1.0) == 0.0
        assert binomial_cdf(10, 10, 1.0) == 1.0
        assert binomial_cdf(5, 10, 0.0) == 1.0 == scipy.stats.binom.cdf(5, 10, 0.0)
        for args in ((5, 0, 0.5), (11, 10, 0.5), (-1, 10, 0.5), (5, 10, 1.5)):
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
        # recorded from the package's two log-space loops, now the walk oracle in
        # conftest: its thresholds and p-values (at the thresholds, their
        # neighbours and a few fixed counts) keep every bit, and the package
        # finds the same thresholds
        h = hashlib.sha256()
        for n in (1, 7, 100, 1000, 100_000):
            for q0 in (0.5, 0.9, 0.999, 1.0):
                counts = {0, n // 2, n - 1, n}
                for alpha in (0.01, 0.05, 0.3):
                    threshold = walk_rejection_threshold(n, q0, alpha)
                    assert binomial_rejection_threshold(n, q0, alpha) == threshold, (n, q0, alpha)
                    h.update(f"{n} {q0} {alpha} {threshold}\n".encode())
                    counts |= {threshold, threshold + 1}
                for count in sorted(c for c in counts if 0 <= c <= n):
                    p = walk_binomial_cdf(count, n, q0)
                    h.update(f"{n} {q0} {count} {p <= 0.05} {p.hex()}\n".encode())
        assert h.hexdigest() == "d120a7778e04a55324593cfcb7161fd095d1eba43108f2ada2f89ca99dc0ea2e"

    @pytest.mark.parametrize("n", [10, 1_000, 100_000, 1_000_000, 10_000_000])
    def test_cdf_matches_scipy_around_the_mean(self, n):
        for q, count in _grid(n):
            expected = scipy.stats.binom.cdf(count, n, q)
            if expected >= 1e-300:
                assert binomial_cdf(count, n, q) == pytest.approx(expected, rel=1e-11), (q, count)

    def test_cdf_matches_40_digits_at_a_billion_shots(self):
        # scipy's own error here reaches 1.9e-11 (q = 0.9, mean - 6 sd), so the
        # reference is the textbook continued fraction summed at 40 digits
        mpmath = pytest.importorskip("mpmath")
        n = 10**9
        with mpmath.workdps(40):
            for q, count in _grid(n):
                assert binomial_cdf(count, n, q) == pytest.approx(
                    float(_mp_binomial_cdf(mpmath, count, n, q)), rel=1e-11), (q, count)

    @pytest.mark.parametrize("n", [10, 300, 1_000, 100_000, 1_000_000, 10_000_000])
    def test_threshold_is_scipys_largest_rejected_count(self, n):
        for q0 in (0.5, 0.9, 0.99, 0.999):
            for alpha in (1e-9, 0.001, 0.01, 0.05, 0.3, 0.7):
                k = int(scipy.stats.binom.ppf(alpha, n, q0))  # smallest k with cdf(k) >= alpha
                expected = k if scipy.stats.binom.cdf(k, n, q0) <= alpha else k - 1
                assert binomial_rejection_threshold(n, q0, alpha) == expected, (q0, alpha)

    def test_threshold_at_a_million_shots_sums_a_few_short_fractions(self, monkeypatch):
        # a bisection over [-1, 1e6]: 20 tails, about 1 ms in process; counted rather
        # than timed, so a loaded machine cannot fail it, while a walk over the counts
        # would take 1e6 steps
        terms = []
        fraction = stat_power.lentz_fraction

        def counted(b0, pairs, *args):
            terms.append(0)

            def tally():
                for pair in pairs:
                    terms[-1] += 1
                    yield pair
            return fraction(b0, tally(), *args)

        monkeypatch.setattr(stat_power, "lentz_fraction", counted)
        assert binomial_rejection_threshold(10**6, 0.99, 0.01) == 989767
        assert len(terms) <= (10**6).bit_length() and sum(terms) <= 700, terms

    def test_threshold_perfect_baseline(self):
        # q0 = 1: any miss at all is proof of degradation
        assert binomial_rejection_threshold(50, 1.0, 0.01) == 49

    def test_threshold_none_possible(self):
        # tiny n with modest q0: even zero successes is not significant
        assert binomial_rejection_threshold(1, 0.5, 0.01) == -1


class TestDistributionContainer:
    def test_totals_are_correctly_rounded_sums(self):
        # Fraction is the oracle: w^2 is the correctly rounded sum of its terms, and each stored
        # entry is its input over the correctly rounded total; numpy's pairwise order fails here
        rng = np.random.default_rng(20261020)
        for _ in range(150):
            k = int(rng.integers(2, 1025))
            w = rng.random((2, k)) * 10.0 ** rng.uniform(-3, 3, (2, k))
            raw = (w / w.sum(axis=1, keepdims=True)).tolist()
            p, q = Distribution(raw[0]), Distribution(raw[1])
            total = float(sum(map(Fraction, raw[0])))
            assert p.probs == tuple(v / total for v in raw[0]), k
            terms = [(a - b) * (a - b) / b for a, b in zip(p.probs, q.probs)]
            assert chi2_distance(p, q) == float(sum(map(Fraction, terms))), k

    def test_an_overflowing_sum_is_inf(self):
        # the exact sums pass 2^1024, so they round to inf, which the checks name
        with pytest.raises(DomainError, match=r"^probabilities sum to inf, not 1 within 1.0e-08$"):
            Distribution([1e308, 1e308])
        p, q = Distribution([0.5, 0.5, 0.0]), Distribution([2e-309, 2e-309, 1.0])
        assert chi2_distance(p, q) == math.inf
        with pytest.raises(DomainError, match=r"^w\^2 must be finite and >= 0, got inf$"):
            shots_chisq(chi2_distance(p, q), 3, 0.01, 0.01)

    def test_rejects_2d_input(self):
        with pytest.raises(DomainError, match=r"^bin 0 probability: expected a number, got array\(\[0.5, 0.5\]\)$"):
            Distribution(np.array([[0.5, 0.5], [0.25, 0.75]]))

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
