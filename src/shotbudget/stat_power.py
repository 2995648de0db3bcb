"""Chi-square and binomial power machinery for output-distribution tests.

The chi-square path: a discrepancy between an observed distribution p and
a reference q is summarized by w^2 = sum (p_i - q_i)^2 / q_i, the test
detects it at significance alpha and power 1 - beta once the shot count
reaches lambda / w^2, where lambda is the noncentrality at which the
noncentral chi-square clears the central critical value with the target
power; `chisq_noncentrality` is the one checked way from a test's bins,
alpha and beta to lambda.  Hellinger distance connects w^2 to fidelity:
w^2 >= (1/4) d_H^4 always, w^2 ~= 8 d_H^2 <= 8 (1 - sqrt(F)) for small
discrepancies, and (1/4)(1 - sqrt(F))^2 for the distribution pair that
attains the fidelity bound.

The binomial path plans and decides a success-probability drop from a
baseline q0 to a degraded q1: planning uses the two-sample normal
approximation (one-sided, no continuity correction, z values from
`statistics.NormalDist().inv_cdf`, imported on the planner's first call);
the decision applies the exact one-sample binomial test, the sharper tool
once the baseline is known analytically, so the planner is conservative
for the one-sample use.  One incomplete-beta tail, whose cost grows far
slower than n, serves `binomial_cdf`, the decision and its rejection threshold.

Nothing here imports numpy: a Distribution is a tuple of floats, summed
the way numpy sums float64, so w^2 keeps numpy's bits.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, NamedTuple, Sequence

from .errors import (
    BaselineNotAboveTarget,
    DegenerateStates,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    Record,
    ZeroExpectedBin,
    check_range,
    json_float,
    read_json,
)
from .numerics import lentz_fraction, regularized_gamma_p, solve_increasing
from .shot_estimators import _shot_count
from . import tolerances as tol

__all__ = [
    "Distribution",
    "ChiSquarePlan",
    "BinomialPlan",
    "chi2_distance",
    "chi2_cdf",
    "chi2_quantile",
    "noncentral_chi2_cdf",
    "lambda_noncentral",
    "chisq_noncentrality",
    "shots_chisq",
    "w2_fidelity_attaining",
    "w2_small_discrepancy",
    "chisq_validity",
    "two_proportion_shots",
    "binomial_cdf",
    "binomial_decision",
    "binomial_rejection_threshold",
    "parse_distribution",
    "load_distribution",
]


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 sum, bit for bit: halves cut at multiples of 8 down to blocks of
    at most 128, each summed in 8 interleaved accumulators and then the rest in order."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    whole, total = n - n % 8 if n >= 8 else 0, 0.0
    if whole:
        r = [functools.reduce(operator.add, values[j:whole:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(operator.add, values[whole:], total)


class Distribution(Record):
    """Probability distribution over k >= 2 measurement bins.

    Entries must be finite, nonnegative and sum to 1 within 1e-8; the stored
    tuple of floats is renormalized to sum to 1 exactly.  The input must be
    flat: float() raises TypeError on a nested (2-D) entry.
    """

    __slots__ = _fields = ("probs",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity equality

    def __init__(self, probs: Sequence[float]) -> None:
        probs = tuple(map(float, probs))
        if len(probs) < 2:
            raise DomainError(f"a distribution needs at least 2 bins, got {len(probs)}")
        for i, p in enumerate(probs):
            if not math.isfinite(p):
                raise DomainError(f"bin {i} probability is not finite: {p!r}")
        if min(probs) < 0.0:
            raise DomainError(f"negative probability {min(probs)!r}")
        total = _pairwise_sum(probs)
        if abs(total - 1.0) > tol.DISTRIBUTION_SUM_ATOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1 within {tol.DISTRIBUTION_SUM_ATOL:.1e}")
        self._set(tuple(p / total for p in probs))

    @property
    def k(self) -> int:
        return len(self.probs)


def chi2_distance(p: Distribution, q: Distribution) -> float:
    """Chi-square discrepancy w^2 = sum (p_i - q_i)^2 / q_i against reference q."""
    if p.k != q.k:
        raise DimensionMismatch(f"bin count mismatch: {p.k} vs {q.k}")
    if 0.0 in q.probs:
        raise ZeroExpectedBin(f"reference bin {q.probs.index(0.0)} has zero probability")
    return _pairwise_sum([(a - b) * (a - b) / b for a, b in zip(p.probs, q.probs)])


def chi2_cdf(x: float, df: float) -> float:
    """Central chi-square CDF via the regularized lower incomplete gamma."""
    if df <= 0.0:
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(df / 2.0, x / 2.0)


def chi2_quantile(prob: float, df: float) -> float:
    """Central chi-square quantile, solved by bisection on the CDF."""
    check_range("quantile probability", prob, 0, 1, "()")
    hi = df + 10.0 * math.sqrt(2.0 * df) + 10.0
    return solve_increasing(lambda x: chi2_cdf(x, df), prob, 0.0, hi)


def _poisson_mixture(noncentrality: float, term: Callable[[int], float]) -> float:
    """sum_j Pois(lam/2)(j) * term(j) for lam > 0, capped at 1, summed outward from
    the Poisson mode in log space until all but 1e-12 of the weight is covered."""
    half = noncentrality / 2.0
    log_half = math.log(half)

    def log_weight(j: int) -> float:
        return -half + j * log_half - math.lgamma(j + 1.0)

    mode = int(half)
    total = 0.0
    weight_covered = 0.0
    down, up = mode, mode + 1
    for _ in range(tol.GAMMA_MAX_ITER):
        advanced = False
        if down >= 0:
            w = math.exp(log_weight(down))
            total += w * term(down)
            weight_covered += w
            down -= 1
            advanced = True
        if weight_covered < 1.0 - tol.POISSON_TAIL:
            w = math.exp(log_weight(up))
            total += w * term(up)
            weight_covered += w
            up += 1
            advanced = True
        if weight_covered >= 1.0 - tol.POISSON_TAIL or not advanced:
            return min(1.0, total)
    raise NoConvergence(f"Poisson mixture did not cover its mass for lam={noncentrality}")


def noncentral_chi2_cdf(x: float, df: float, noncentrality: float) -> float:
    """Noncentral chi-square CDF as a Poisson mixture of central CDFs.

    F(x; df, lam) = sum_j Pois(lam/2)(j) * F_central(x; df + 2j), which the
    log-space sum keeps stable out to lam ~= 1e4.
    """
    check_range("noncentrality", noncentrality, 0)
    if x <= 0.0:
        return 0.0
    if noncentrality == 0.0:
        return chi2_cdf(x, df)
    return _poisson_mixture(noncentrality, lambda j: chi2_cdf(x, df + 2.0 * j))


def lambda_noncentral(df: int, alpha: float, power: float) -> float:
    """Noncentrality at which the chi-square test reaches the target power.

    Solves P[ncx2(df, lam) > q_{1-alpha}(df)] = power for lam, with the
    critical value taken from the central distribution.  At lam = 0 the
    left side equals alpha, so power must exceed alpha.  Every search step
    sums the same central terms F_central(crit; df + 2j), memoized once.
    """
    check_range("degrees of freedom", df, 1)
    check_range("alpha", alpha, 0, 1, "()")
    if not alpha < power < 1.0:  # the low end is alpha itself, named in the message
        raise DomainError(f"power must lie in (alpha, 1), got {power}")
    crit = chi2_quantile(1.0 - alpha, float(df))
    central_term = functools.cache(lambda j: chi2_cdf(crit, df + 2.0 * j))

    def attained_power(lam: float) -> float:
        return 1.0 - (_poisson_mixture(lam, central_term) if lam > 0.0 else chi2_cdf(crit, df))

    return solve_increasing(attained_power, power, 0.0, 8.0)


class ChiSquarePlan(NamedTuple):
    """Chi-square shot plan: N = ceil(lambda / w^2) for the given test size."""

    w2: float
    bins: int
    alpha: float
    beta: float
    noncentrality: float
    raw: float
    shots: int


def _check_chisq(bins: int, alpha: float, beta: float) -> None:
    if type(bins) is not int:  # a bool or float count too
        raise DomainError(f"bins must be an integer, got {bins!r}")
    check_range("bins", bins, 2)
    check_range("alpha", alpha, 0, 1, "()")
    check_range("beta", beta, 0, 1, "()")
    if not alpha < 1.0 - beta < 1.0:  # lambda_noncentral's rule on the power, checked before its search
        raise DomainError(f"power must lie in (alpha, 1), got {1.0 - beta}")


def chisq_noncentrality(bins: int, alpha: float, beta: float) -> float:
    """Noncentrality lambda of a chi-square test over an integer bins >= 2 at size
    alpha and power 1 - beta, both in (0, 1); w^2 then takes lambda / w^2 shots."""
    _check_chisq(bins, alpha, beta)
    return lambda_noncentral(bins - 1, alpha, 1.0 - beta)


def shots_chisq(w2: float, bins: int, alpha: float, beta: float) -> ChiSquarePlan:
    """Shots for the chi-square test to detect discrepancy w^2.

    Raises DegenerateStates when w2 = 0: identical distributions produce
    no detectable effect at any shot count.
    """
    lam = chisq_noncentrality(bins, alpha, beta)
    check_range("w^2", w2, 0, finite=True)
    if w2 == 0.0:
        raise DegenerateStates("w^2 = 0: no discrepancy to detect")
    raw = lam / w2
    return ChiSquarePlan(w2=w2, bins=bins, alpha=alpha, beta=beta, noncentrality=lam, raw=raw,
                         shots=_shot_count(raw))


def w2_fidelity_attaining(fid: float) -> float:
    """w^2 of the distribution pair attaining the fidelity bound: (1-sqrt(F))^2 / 4."""
    check_range("fidelity", fid, 0, 1)
    return _w2_fidelity_attaining(fid)


def _w2_fidelity_attaining(fid: float) -> float:  # unchecked, for a fidelity known to lie in [0, 1]
    return 0.25 * (1.0 - math.sqrt(fid)) ** 2


def w2_small_discrepancy(fid: float) -> float:
    """Small-discrepancy ceiling w^2 ~= 8 d_H^2 <= 8 (1 - sqrt(F))."""
    check_range("fidelity", fid, 0, 1)
    return _w2_small_discrepancy(fid)


def _w2_small_discrepancy(fid: float) -> float:  # unchecked, for a fidelity known to lie in [0, 1]
    return 8.0 * (1.0 - math.sqrt(fid))


def chisq_validity(n_shots: float, expected: Distribution) -> tuple[str, ...]:
    """Cochran-style validity heuristics for the chi-square approximation.

    Advisory only: flags shot counts below 13 and bins whose expected
    count N q_i falls below 5.
    """
    warnings: list[str] = []
    if n_shots < 13:
        warnings.append(f"only {n_shots:g} shots planned; chi-square approximation wants at least 13")
    low = [i for i, q in enumerate(expected.probs) if n_shots * q < 5.0]
    if low:
        shown = ", ".join(map(str, low[:8]))
        more = "" if len(low) <= 8 else f" (+{len(low) - 8} more)"
        warnings.append(
            f"expected count below 5 in {len(low)} of {expected.k} bins ({shown}{more}); "
            "merge bins or raise shots"
        )
    return tuple(warnings)


class BinomialPlan(NamedTuple):
    """Two-proportion plan for detecting a success-rate drop q0 -> q1."""

    q0: float
    q1: float
    alpha: float
    beta: float
    one_sided: bool
    raw: float
    shots: int


def two_proportion_shots(
    q0: float, q1: float, alpha: float, beta: float, *, one_sided: bool = True
) -> BinomialPlan:
    """Shots for a normal-approximation two-proportion test of q0 vs q1.

    n = [z_{1-a} sqrt(2 pbar (1-pbar)) + z_{1-b} sqrt(q0(1-q0) + q1(1-q1))]^2
        / (q0 - q1)^2,  pbar = (q0 + q1)/2,
    with no continuity correction.  One-sided by default; the two-sided
    variant swaps z_{1-a} for z_{1-a/2}.  Neither z may be negative.
    """
    if not 0.0 <= q1 <= 1.0 or not 0.0 <= q0 <= 1.0:  # names both values, unlike check_range
        raise DomainError(f"success probabilities must lie in [0, 1], got q0={q0}, q1={q1}")
    if q1 >= q0:
        raise BaselineNotAboveTarget(f"baseline q0={q0} must exceed degraded q1={q1}")
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:  # likewise
        raise DomainError(f"alpha and beta must lie in (0, 1), got alpha={alpha}, beta={beta}")
    p_a, p_b = 1.0 - (alpha if one_sided else alpha / 2.0), 1.0 - beta
    for p in (p_a, p_b):  # an alpha or beta below ~1e-16 rounds 1 - it to 1
        check_range("quantile probability", p, 0, 1, "()")
    if min(p_a, p_b) < 0.5:  # a negative z value would grow the count as the test loosens
        raise DomainError(f"alpha (one-sided) and beta must be at most 0.5, got alpha={alpha}, beta={beta}")
    from statistics import NormalDist  # local: it loads decimal and fractions (~2-4 ms)
    z_a, z_b = map(NormalDist().inv_cdf, (p_a, p_b))
    pbar = (q0 + q1) / 2.0
    numerator = (
        z_a * math.sqrt(2.0 * pbar * (1.0 - pbar))
        + z_b * math.sqrt(q0 * (1.0 - q0) + q1 * (1.0 - q1))
    ) ** 2
    raw = numerator / (q0 - q1) ** 2
    return BinomialPlan(
        q0=q0, q1=q1, alpha=alpha, beta=beta, one_sided=one_sided,
        raw=raw, shots=_shot_count(raw),
    )


def _binomial_log_pmf(k: int, n: int, q: float, d: float) -> float:
    """ln P[Bin(n, q) = k] in Loader's saddle-point form, from d = k - n q to full precision:
    Stirling-series remainders of n!, k! and (n - k)!, and two deviance terms."""
    if k == 0 or k == n:
        return n * (math.log1p(-q) if k == 0 else math.log(q))

    def stirlerr(j: int) -> float:  # ln(j!) - ln(sqrt(2 pi j) (j/e)^j)
        if j <= 15:
            return math.lgamma(j + 1.0) - (j + 0.5) * math.log(j) + j - 0.5 * math.log(2.0 * math.pi)
        jj = 1.0 / (j * j)
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - jj / 1188) * jj) * jj) * jj) / j

    def bd0(x: int, m: float, d: float) -> float:  # x ln(x/m) + m - x, from d = x - m
        if abs(d) >= 0.1 * (x + m):
            return x * math.log(x / m) - d
        v = d / (x + m)  # |v| < 1/19: the series d v + 2 x sum v^j / j over odd j >= 3 is done by v^17
        u = v * v
        return d * v + 2.0 * x * v * u * (1 / 3 + u * (1 / 5 + u * (1 / 7 + u * (1 / 9 + u * (
            1 / 11 + u * (1 / 13 + u * (1 / 15 + u / 17)))))))

    return (stirlerr(n) - stirlerr(k) - stirlerr(n - k) - bd0(k, n * q, d) - bd0(n - k, n * (1.0 - q), -d)
            - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n))


def binomial_cdf(count: int, n_shots: int, q: float) -> float:
    """P[Bin(n_shots, q) <= count] = I_(1-q)(n_shots - count, count + 1), to ~1e-13 relative.

    I_x(a, b) = x^a y^b r / B(a, b) on the side where lam = (a + b) y - b >= 0, else
    1 - I_y(b, a), with r from BFRAC (Didonato and Morris, ACM TOMS 18, 1992) and
    x^a y^b / B(a, b) = a y P[Bin = k].  lam and k - n q, where the cancellation lies,
    are exact.  The cost grows about as n_shots^(1/3) at the mean and falls away from it."""
    check_range("shot count", n_shots, 1)
    if not 0 <= count <= n_shots:
        raise DomainError(f"observed count {count} outside [0, {n_shots}]")
    check_range("success probability", q, 0, 1, "(]")
    if count == n_shots or q == 1.0:
        return float(count == n_shots)
    n, count, (num, den) = int(n_shots), int(count), float(q).as_integer_ratio()  # exact ints, not numpy's
    lam = ((n + 1) * num - (count + 1) * den) / den  # (n + 1) q - (count + 1)
    k, a, b, x = (count, n - count, count + 1, 1.0 - q) if lam >= 0.0 else (count + 1, count + 1, n - count, q)
    y, c, c0, c1 = 1.0 - x, abs(lam) + 1.0, b / a, 1.0 + 1.0 / a

    def terms():
        p, s = 1.0, a + 1.0
        for i in range(1, tol.GAMMA_MAX_ITER + math.isqrt(n)):  # ~4,300 terms at the mean of Bin(1e9, 1/2)
            t, w, e = i / a, i * (b - i) * x, a / s
            yield p * (p + c0) * e * e * (w * x), i + w / s + (t + 1.0) / (c1 + t + t) * (c + i * (y + 1.0))
            p, s = t + 1.0, s + 2.0

    r = lentz_fraction(c / c1, terms(), tol.BETA_RTOL, "binomial tail at count=%s, n=%s, q=%s", (count, n, q))
    side = a * y * math.exp(_binomial_log_pmf(k, n, q, (k * den - n * num) / den)) * r
    return side if k == count else 1.0 - side


def binomial_decision(zero_count: int, n_shots: int, q0: float, alpha: float) -> tuple[bool, float]:
    """Exact one-sample binomial test of observed successes against baseline q0.

    p_value = P[Bin(n_shots, q0) <= zero_count] (see binomial_cdf).
    Rejects (the success rate has dropped below q0) when p_value <= alpha.
    """
    check_range("alpha", alpha, 0, 1, "()")
    p_value = binomial_cdf(zero_count, n_shots, q0)
    return p_value <= alpha, p_value


def binomial_rejection_threshold(n_shots: int, q0: float, alpha: float) -> int:
    """Largest observed count still rejected by binomial_decision, or -1.

    The decision rule is monotone in the observed count, so a single
    threshold characterizes it; simulation code uses this to classify
    many trials without recomputing tail sums.  Bisection keeps P[... <= lo]
    <= alpha < P[... <= hi], for alpha < 1/2 from the normal approximation's
    bracket: sqrt(2 ln(1/alpha)) sd below the mean, or -1 if that misses.
    """
    check_range("shot count", n_shots, 1)
    check_range("baseline q0", q0, 0, 1, "(]")
    check_range("alpha", alpha, 0, 1, "()")
    if q0 == 1.0:
        return n_shots - 1

    def rejected(k: int) -> bool:  # P[Bin(n_shots, q0) <= k] <= alpha, for -1 <= k < n_shots
        return k < 0 or binomial_cdf(k, n_shots, q0) <= alpha

    lo, hi, mean = -1, n_shots, n_shots * q0  # P[... <= -1] = 0 <= alpha < 1 = P[... <= n_shots]
    if alpha < 0.5:  # a median lies within 1 of the mean, so P[... <= hi] >= 1/2 > alpha
        lo = max(lo, math.floor(mean - math.sqrt(-2.0 * math.log(alpha) * mean * (1.0 - q0)) - 1.0))
        lo, hi = lo if rejected(lo) else -1, min(hi, math.ceil(mean) + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if rejected(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# Distribution file format: a JSON array of bin probabilities.


def parse_distribution(obj) -> Distribution:
    """Build a Distribution from its JSON array form."""
    if not isinstance(obj, list):
        raise DomainError(f"distribution document must be a JSON array, got {type(obj).__name__}")
    probs = [json_float("bin %d probability", x, args=(i,)) for i, x in enumerate(obj)]
    for i, p in enumerate(probs):  # named as the file gives it, as parse_state does
        if not math.isfinite(p):
            raise DomainError(f"bin {i} probability is not finite: {obj[i]!r}")
    return Distribution(probs=probs)


def load_distribution(path: str) -> Distribution:
    """Load a distribution file (see parse_distribution for the schema)."""
    return parse_distribution(read_json(path))
