"""Chi-square and binomial power machinery for output-distribution tests.

The chi-square path: a discrepancy between an observed distribution p and
a reference q is summarized by w^2 = sum (p_i - q_i)^2 / q_i, the test
detects it at significance alpha and power 1 - beta once the shot count
reaches lambda / w^2, where lambda is the noncentrality at which the
noncentral chi-square clears the central critical value with the target
power.  Hellinger distance connects w^2 to fidelity: w^2 >= (1/4) d_H^4
always, w^2 ~= 8 d_H^2 <= 8 (1 - sqrt(F)) for small discrepancies, and
(1/4)(1 - sqrt(F))^2 for the distribution pair that attains the fidelity
bound.

The binomial path plans and decides a success-probability drop from a
baseline q0 to a degraded q1: planning uses the two-sample normal
approximation (one-sided, no continuity correction, z values from
`statistics.NormalDist().inv_cdf`, imported on the planner's first call);
the decision applies the exact one-sample binomial test, the sharper tool
once the baseline is known analytically, so the planner is conservative
for the one-sample use.  One log-space loop sums the binomial CDF for
`binomial_cdf`, the decision and its rejection threshold.

Only `Distribution` imports numpy, when the first one is built; every
planner and tail here runs on the standard library alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import (
    BaselineNotAboveTarget,
    DegenerateStates,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    ZeroExpectedBin,
    check_range,
    read_json,
)
from .numerics import regularized_gamma_p, solve_increasing
from . import tolerances as tol

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Distribution",
    "ChiSquarePlan",
    "BinomialPlan",
    "chi2_distance",
    "chi2_cdf",
    "chi2_quantile",
    "noncentral_chi2_cdf",
    "lambda_noncentral",
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


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability distribution over k >= 2 measurement bins.

    Entries must be finite, nonnegative and sum to 1 within 1e-8; the stored
    vector is renormalized to sum to 1 exactly.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        probs = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if probs.size < 2:
            raise DomainError(f"a distribution needs at least 2 bins, got {probs.size}")
        bad = np.flatnonzero(~np.isfinite(probs))
        if bad.size:
            raise DomainError(f"bin {bad[0]} probability is not finite: {float(probs[bad[0]])!r}")
        if np.any(probs < 0.0):
            raise DomainError(f"negative probability {float(probs.min())!r}")
        total = float(probs.sum())
        if abs(total - 1.0) > tol.DISTRIBUTION_SUM_ATOL:
            raise DomainError(f"probabilities sum to {total!r}, not 1 within {tol.DISTRIBUTION_SUM_ATOL:.1e}")
        object.__setattr__(self, "probs", probs / total)

    @property
    def k(self) -> int:
        return self.probs.size


def chi2_distance(p: Distribution, q: Distribution) -> float:
    """Chi-square discrepancy w^2 = sum (p_i - q_i)^2 / q_i against reference q."""
    pa, qa = p.probs, q.probs
    if pa.size != qa.size:
        raise DimensionMismatch(f"bin count mismatch: {pa.size} vs {qa.size}")
    if (qa == 0.0).any():
        raise ZeroExpectedBin(f"reference bin {int(qa.argmin())} has zero probability")
    return float(((pa - qa) ** 2 / qa).sum())


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


@dataclass(frozen=True)
class ChiSquarePlan:
    """Chi-square shot plan: N = ceil(lambda / w^2) for the given test size."""

    w2: float
    bins: int
    alpha: float
    beta: float
    noncentrality: float
    raw: float
    shots: int


def shots_chisq(w2: float, bins: int, alpha: float, beta: float) -> ChiSquarePlan:
    """Shots for the chi-square test to detect discrepancy w^2.

    Raises DegenerateStates when w2 = 0: identical distributions produce
    no detectable effect at any shot count.
    """
    check_range("bins", bins, 2)
    check_range("w^2", w2, 0, finite=True)
    if w2 == 0.0:
        raise DegenerateStates("w^2 = 0: no discrepancy to detect")
    check_range("beta", beta, 0, 1, "()")
    lam = lambda_noncentral(bins - 1, alpha, 1.0 - beta)
    raw = lam / w2
    return ChiSquarePlan(
        w2=w2, bins=bins, alpha=alpha, beta=beta, noncentrality=lam,
        raw=raw, shots=max(1, math.ceil(raw)),
    )


def w2_fidelity_attaining(fid: float) -> float:
    """w^2 of the distribution pair attaining the fidelity bound: (1-sqrt(F))^2 / 4."""
    check_range("fidelity", fid, 0, 1)
    return 0.25 * (1.0 - math.sqrt(fid)) ** 2


def w2_small_discrepancy(fid: float) -> float:
    """Small-discrepancy ceiling w^2 ~= 8 d_H^2 <= 8 (1 - sqrt(F))."""
    check_range("fidelity", fid, 0, 1)
    return 8.0 * (1.0 - math.sqrt(fid))


def chisq_validity(n_shots: float, expected: Distribution) -> tuple[str, ...]:
    """Cochran-style validity heuristics for the chi-square approximation.

    Advisory only: flags shot counts below 13 and bins whose expected
    count N q_i falls below 5.
    """
    qa = expected.probs
    warnings: list[str] = []
    if n_shots < 13:
        warnings.append(f"only {n_shots:g} shots planned; chi-square approximation wants at least 13")
    low = (n_shots * qa < 5.0).nonzero()[0]
    if low.size:
        shown = ", ".join(str(int(i)) for i in low[:8])
        more = "" if low.size <= 8 else f" (+{low.size - 8} more)"
        warnings.append(
            f"expected count below 5 in {low.size} of {qa.size} bins ({shown}{more}); "
            "merge bins or raise shots"
        )
    return tuple(warnings)


@dataclass(frozen=True)
class BinomialPlan:
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
        raw=raw, shots=max(1, math.ceil(raw)),
    )


def _binomial_log_cdf(n_shots: int, q: float, last: int, log_stop: float = math.inf) -> tuple[int, float]:
    """Walk ln P[Bin(n_shots, q) <= i] for i = 0..last in log space, for 0 < q < 1.

    Returns (i, log_cdf) at the first i whose value exceeds log_stop, or
    (last + 1, ln P[... <= last]) when none does.  The log-add of each
    term is written out inline: a call per term costs ~10% at n = 1e6.
    """
    log_q, log_1mq = math.log(q), math.log1p(-q)
    log, log1p, exp = math.log, math.log1p, math.exp
    log_cdf = -math.inf
    log_pmf = n_shots * log_1mq
    for i in range(last + 1):
        if i > 0:
            log_pmf += log(n_shots - i + 1) - log(i) + log_q - log_1mq
        if log_cdf >= log_pmf:
            log_cdf += log1p(exp(log_pmf - log_cdf))
        else:  # also the first term: log_pmf + log1p(0) is log_pmf exactly
            log_cdf = log_pmf + log1p(exp(log_cdf - log_pmf))
        if log_cdf > log_stop:
            return i, log_cdf
    return last + 1, log_cdf


def binomial_cdf(count: int, n_shots: int, q: float) -> float:
    """P[Bin(n_shots, q) <= count], summed in log space so q near 1 does not underflow."""
    check_range("shot count", n_shots, 1)
    if not 0 <= count <= n_shots:
        raise DomainError(f"observed count {count} outside [0, {n_shots}]")
    check_range("success probability", q, 0, 1, "(]")
    if q == 1.0:
        return 1.0 if count == n_shots else 0.0
    return min(1.0, math.exp(_binomial_log_cdf(n_shots, q, count)[1]))


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
    many trials without recomputing tail sums.
    """
    check_range("shot count", n_shots, 1)
    check_range("baseline q0", q0, 0, 1, "(]")
    check_range("alpha", alpha, 0, 1, "()")
    if q0 == 1.0:
        return n_shots - 1
    return _binomial_log_cdf(n_shots, q0, n_shots, math.log(alpha))[0] - 1


# ---------------------------------------------------------------------------
# Distribution file format: a JSON array of bin probabilities.


def parse_distribution(obj) -> Distribution:
    """Build a Distribution from its JSON array form."""
    if not isinstance(obj, list):
        raise DomainError(f"distribution document must be a JSON array, got {type(obj).__name__}")
    try:
        probs = [float(x) for x in obj]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"distribution entries must be numbers: {exc}") from None
    return Distribution(probs=probs)


def load_distribution(path: str) -> Distribution:
    """Load a distribution file (see parse_distribution for the schema)."""
    return parse_distribution(read_json(path))
