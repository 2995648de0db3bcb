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

Nothing here imports numpy: a Distribution is a tuple of floats, and its
total and w^2 are correctly rounded sums (`math.fsum`).
"""

import math
import sys
from typing import NamedTuple, Sequence

from .errors import (
    BaselineNotAboveTarget,
    DegenerateStates,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    Record,
    ZeroExpectedBin,
    check_count,
    check_range,
    read_json,
)
from .numerics import _bd0, _poisson_point, _stirlerr, lentz_fraction, regularized_gamma_p, solve_increasing
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


def _fsum(values) -> float:  # math.fsum of nonnegative floats, inf where their exact sum overflows
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


class Distribution(Record):
    """Probability distribution over k >= 2 measurement bins.

    Each entry is a number >= 0 by `check_range`'s rule, named by its bin, and the
    entries sum to 1 within 1e-8; the stored tuple holds each entry divided by their
    correctly rounded sum, so it sums to 1 only up to round-off.
    """

    __slots__ = _fields = ("probs",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity equality

    def __init__(self, probs: Sequence[float]) -> None:
        probs = tuple(check_range("bin %d probability", p, 0, args=(i,)) for i, p in enumerate(probs))
        if len(probs) < 2:
            raise DomainError(f"a distribution needs at least 2 bins, got {len(probs)}")
        total = _fsum(probs)
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
    return _fsum((a - b) * (a - b) / b for a, b in zip(p.probs, q.probs))


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


def noncentral_chi2_cdf(x: float, df: float, noncentrality: float) -> float:
    """Noncentral chi-square CDF as a Poisson mixture of central CDFs.

    F(x; df, lam) = sum_j Pois(lam/2)(j) * P(df/2 + j, x/2), capped at 1, summed outward from
    the Poisson mode m until all but 1e-12 of the weight is covered or a step covers none; its
    GAMMA_MAX_ITER + 8 isqrt(m) steps outlast the ~7.1 sqrt(m) that coverage takes.  Only the
    mode's term runs the incomplete gamma; AS 275's recurrences (Ding, 1992) give the others:
    P(a + 1, y) = P(a, y) - t(a), t(a) = y^a e^-y / Gamma(a + 1), and Pois(j + 1) = Pois(j) lam / (2j + 2).
    """
    check_range("noncentrality", noncentrality, 0)
    half, y = noncentrality / 2.0, x / 2.0
    if half == 0.0 or y <= 0.0 or df <= 0.0:  # one term, or chi2_cdf names the bad df
        return chi2_cdf(x, df)
    mode = int(half)
    p_up = p_down = regularized_gamma_p(df / 2.0 + mode, y)
    t_up = t_down = _poisson_point(df / 2.0 + mode, y)
    w_up = w_down = _poisson_point(mode, half) if mode else math.exp(-half)
    total = 0.0
    weight_covered = 0.0
    down = up = mode
    for _ in range(tol.GAMMA_MAX_ITER + 8 * math.isqrt(mode)):
        before = weight_covered  # rounding can stall it short of 1 - 1e-12; the weights only shrink
        if down >= 0:
            total += w_down * p_down
            weight_covered += w_down
            a = df / 2.0 + down  # t(a - 1) = t(a) a / y; for y << a a subnormal t(a) can grow back to matter
            t_down = _poisson_point(a - 1.0, y) if t_down < sys.float_info.min and a > 1.0 else t_down * a / y
            p_down += t_down
            w_down *= down / half
            down -= 1
        if weight_covered < 1.0 - tol.POISSON_TAIL:
            p_up -= t_up
            up += 1
            t_up *= y / (df / 2.0 + up)
            w_up *= half / up
            total += w_up * p_up
            weight_covered += w_up
        if weight_covered >= 1.0 - tol.POISSON_TAIL or 0.0 < weight_covered == before:
            return min(1.0, total)
    raise NoConvergence(f"Poisson mixture did not cover its mass for lam={noncentrality}")


def lambda_noncentral(df: int, alpha: float, power: float) -> float:
    """Noncentrality at which the chi-square test reaches the target power.

    Solves P[ncx2(df, lam) > q_{1-alpha}(df)] = power for lam, with the
    critical value taken from the central distribution.  At lam = 0 the
    left side equals alpha, so power must exceed alpha.
    """
    df = check_range("degrees of freedom", df, 1, kind=int)
    alpha, power = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "()"), check_range("power", power)
    if not alpha < power < 1.0:  # the low end is alpha itself, named in the message
        raise DomainError(f"power must lie in (alpha, 1), got {power}")
    crit = chi2_quantile(1.0 - alpha, float(df))
    return solve_increasing(lambda lam: 1.0 - noncentral_chi2_cdf(crit, df, lam), power, 0.0, 8.0)


class ChiSquarePlan(NamedTuple):
    """Chi-square shot plan: N = ceil(lambda / w^2) for the given test size."""

    w2: float
    bins: int
    alpha: float
    beta: float
    noncentrality: float
    raw: float
    shots: int


def _check_chisq(bins: int, alpha: float, beta: float) -> tuple[int, float, float]:
    bins = check_range("bins", bins, 2, tol.CHISQ_MAX_BINS, kind=int)
    alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "()")
    beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "()")
    if not alpha < 1.0 - beta:  # lambda_noncentral's rule on the power, checked before its search
        raise DomainError(f"power must lie in (alpha, 1), got {1.0 - beta}")
    return bins, alpha, beta


def chisq_noncentrality(bins: int, alpha: float, beta: float) -> float:
    """Noncentrality lambda of a chi-square test over an integer bins >= 2 at size
    alpha and power 1 - beta, both in (0, 1); w^2 then takes lambda / w^2 shots."""
    bins, alpha, beta = _check_chisq(bins, alpha, beta)
    return lambda_noncentral(bins - 1, alpha, 1.0 - beta)


def shots_chisq(w2: float, bins: int, alpha: float, beta: float) -> ChiSquarePlan:
    """Shots for the chi-square test to detect discrepancy w^2.

    Raises DegenerateStates when w2 = 0: identical distributions produce
    no detectable effect at any shot count.
    """
    bins, alpha, beta = _check_chisq(bins, alpha, beta)  # the plan stores the checked values
    lam = chisq_noncentrality(bins, alpha, beta)
    w2 = check_range("w^2", w2, 0)
    if w2 == 0.0:
        raise DegenerateStates("w^2 = 0: no discrepancy to detect")
    raw = lam / w2
    check_range("lambda / w^2 (w^2 = %s)", raw, args=(w2,))  # a subnormal w^2 overflows it
    return ChiSquarePlan(w2=w2, bins=bins, alpha=alpha, beta=beta, noncentrality=lam, raw=raw,
                         shots=_shot_count(raw))


def w2_fidelity_attaining(fid: float) -> float:
    """w^2 of the distribution pair attaining the fidelity bound: (1-sqrt(F))^2 / 4."""
    return _w2_fidelity_attaining(check_range("fidelity", fid, 0, 1))


def _w2_fidelity_attaining(fid: float) -> float:  # unchecked, for a fidelity known to lie in [0, 1]
    return 0.25 * (1.0 - math.sqrt(fid)) ** 2


def w2_small_discrepancy(fid: float) -> float:
    """Small-discrepancy ceiling w^2 ~= 8 d_H^2 <= 8 (1 - sqrt(F))."""
    return _w2_small_discrepancy(check_range("fidelity", fid, 0, 1))


def _w2_small_discrepancy(fid: float) -> float:  # unchecked, for a fidelity known to lie in [0, 1]
    return 8.0 * (1.0 - math.sqrt(fid))


def chisq_validity(n_shots: int, expected: Distribution) -> tuple[str, ...]:
    """Cochran-style validity heuristics for the chi-square approximation.

    Advisory only: flags shot counts below 13 and bins whose expected
    count N q_i falls below 5.
    """
    n_shots = check_range("shot count", n_shots, 1, kind=int)
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
    q0, q1 = check_range("q0", q0, 0, 1), check_range("q1", q1, 0, 1)
    alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR * (1 if one_sided else 2), 1, "()")  # 1 - alpha/2
    beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "()")
    if q1 >= q0:
        raise BaselineNotAboveTarget(f"baseline q0={q0} must exceed degraded q1={q1}")
    p_a, p_b = 1.0 - (alpha if one_sided else alpha / 2.0), 1.0 - beta
    if min(p_a, p_b) < 0.5:  # a negative z value would grow the count as the test loosens
        raise DomainError(f"alpha (one-sided) and beta must be at most 0.5, got alpha={alpha}, beta={beta}")
    from statistics import NormalDist  # local: it loads decimal and fractions (~2-4 ms)
    z_a, z_b = map(NormalDist().inv_cdf, (p_a, p_b))
    pbar = (q0 + q1) / 2.0
    numerator = (
        z_a * math.sqrt(2.0 * pbar * (1.0 - pbar))
        + z_b * math.sqrt(q0 * (1.0 - q0) + q1 * (1.0 - q1))
    ) ** 2
    if (q0 - q1) ** 2 == 0.0:  # a gap below ~1.5e-162 squares to 0
        raise DomainError(f"q0 - q1 = {q0 - q1} is too small to plan for: its square underflows to 0")
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
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * q, d) - _bd0(n - k, n * (1.0 - q), -d)
            - 0.5 * math.log(2.0 * math.pi * k * (n - k) / n))


def binomial_cdf(count: int, n_shots: int, q: float) -> float:
    """P[Bin(n_shots, q) <= count] = I_(1-q)(n_shots - count, count + 1), to ~1e-13 relative.

    I_x(a, b) = x^a y^b r / B(a, b) on the side where lam = (a + b) y - b >= 0, else
    1 - I_y(b, a), with r from BFRAC (Didonato and Morris, ACM TOMS 18, 1992) and
    x^a y^b / B(a, b) = a y P[Bin = k].  lam and k - n q, where the cancellation lies,
    are exact.  The cost grows about as n_shots^(1/3) at the mean and falls away from it."""
    n = check_count("shot count", n_shots)
    count = check_range("observed count", count, 0, n, kind=int)
    q = check_range("success probability", q, 0, 1)
    if count == n or q in (0.0, 1.0):  # all the mass at 0 or at n_shots
        return float(count == n or q == 0.0)
    num, den = q.as_integer_ratio()
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
    alpha = check_range("alpha", alpha, 0, 1, "()")
    p_value = binomial_cdf(zero_count, n_shots, q0)
    return p_value <= alpha, p_value


def binomial_rejection_threshold(n_shots: int, q0: float, alpha: float) -> int:
    """Largest observed count still rejected by binomial_decision, or -1.

    The decision rule is monotone in the observed count, so a single
    threshold characterizes it; simulation code uses this to classify
    many trials without recomputing tail sums.  Bisection over [-1, n_shots]
    keeps P[... <= lo] <= alpha < P[... <= hi].
    """
    n_shots = check_count("shot count", n_shots)
    q0, alpha = check_range("baseline q0", q0, 0, 1, "(]"), check_range("alpha", alpha, 0, 1, "()")
    lo, hi = -1, n_shots  # P[... <= -1] = 0 <= alpha < 1 = P[... <= n_shots]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if binomial_cdf(mid, n_shots, q0) <= alpha else (lo, mid)
    return lo


# ---------------------------------------------------------------------------
# Distribution file format: a JSON array of bin probabilities.


def parse_distribution(obj) -> Distribution:
    """Build a Distribution from its JSON array form; Distribution checks every entry."""
    if not isinstance(obj, list):
        raise DomainError(f"distribution document must be a JSON array, got {type(obj).__name__}")
    return Distribution(obj)


def load_distribution(path: str) -> Distribution:
    """Load a distribution file (see parse_distribution for the schema)."""
    return parse_distribution(read_json(path))
