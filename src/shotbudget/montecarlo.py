"""Monte Carlo oracles that validate the analytic shot formulas.

Each simulator replays the physical acceptance process of a test at a
known ground truth and estimates the probability the formulas predict:
miss rates for the inverse and swap tests, rejection rates for the
chi-square and binomial tests.  The inverse and swap tests accept each
shot at the per-shot acceptance of their `shot_estimators.FORMULAS` row.
Randomness comes exclusively from the splitmix64 substreams in `rng`, so
a (seed, trials) configuration reproduces bit-identical results on any
platform and any chunking.

Sampling contracts (fixed, documented, test-pinned):
  Bernoulli(p)      one uniform u, success iff u < p.
  Binomial(n, p)    count of n consecutive stream uniforms below p.
  Multinomial(N, q) sequential binomial conditioning: bins 0..k-2 in
                    order draw Binomial(remaining, q_i / tail_i) from
                    the trial stream, the last bin takes the remainder.
  Early exit        a trial stops at its first reject (inverse, swap) or
                    once it is detected (binomial); the result is unchanged.

One kernel, `_count_below`, draws for all of them, in tiles of at most
`_CHUNK_ELEMENTS` draws over blocks of as many trials, so memory stays
bounded whatever the shot or trial count.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BaselineNotAboveTarget, DomainError, Record, check_count, check_range
from .rng import MASK64, sub_seeds, uniform_block
from .shot_estimators import FORMULAS, Formula
from .stat_power import (
    Distribution,
    binomial_rejection_threshold,
    chi2_distance,
    chi2_quantile,
    chisq_validity,
)
from . import tolerances as tol

__all__ = [
    "McConfig",
    "McResult",
    "simulate_inverse_miss_rate",
    "simulate_swap_miss_rate",
    "simulate_chisq_power",
    "simulate_binomial_detection",
]

# Cap on draws per tile, sized to stay in cache, and on trials per block; results depend on neither.
_CHUNK_ELEMENTS = 1 << 16
_REJECT_SCAN = 64  # columns per tile while many early-exit trials are live


class McConfig(Record):
    """Trial count and master seed; the RNG itself is fixed by the package."""

    __slots__ = _fields = ("trials", "seed")

    def __init__(self, trials: int, seed: int = 20_260_822) -> None:
        trials, seed = check_count("trials", trials), check_range("seed", seed, kind=int)
        if not 0 <= seed <= MASK64:  # an integer range, shown as 2^64
            raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
        self._set(trials, seed)


class McResult(NamedTuple):
    """Fraction of trials that hit, with the trial count it rests on.

    The error bar is the caller's: `validate` takes its standard error
    from the predicted rate, not from this estimate.
    """

    estimate: float
    trials: int
    warnings: tuple[str, ...] = ()


def _trial_blocks(config: McConfig):
    """Substream seeds of the configured trials, _CHUNK_ELEMENTS trials at a time."""
    for first in range(0, config.trials, _CHUNK_ELEMENTS):
        yield sub_seeds(config.seed, first, min(_CHUNK_ELEMENTS, config.trials - first))


def _count_below(seeds, p: float, lengths, starts=0, stop_after: int | None = None):
    """Per row i, how many of its draws starts[i] .. starts[i]+lengths[i]-1 lie below p.

    Walks column tiles over the live rows in row blocks of at most
    _CHUNK_ELEMENTS draws, masking draws past a row's length.  With
    stop_after = k a row leaves after the tile that holds its k-th draw >= p;
    its count is then at most lengths[i] - k, and exact otherwise.
    """
    lengths, starts = np.broadcast_to(lengths, seeds.shape), np.broadcast_to(starts, seeds.shape)
    limit = np.uint64(min(math.ceil(p * 2.0**53), 2**53))
    counts = np.zeros(seeds.size, dtype=np.int64)
    scratch = np.empty(2 * _CHUNK_ELEMENTS, dtype=np.uint64)
    live = np.flatnonzero(lengths > 0)
    done = 0
    while live.size:
        width = int(lengths[live].max()) - done
        if stop_after:
            width = min(width, max(_REJECT_SCAN, _CHUNK_ELEMENTS // live.size))
        width = min(width, _CHUNK_ELEMENTS)
        block = max(1, _CHUNK_ELEMENTS // width)
        for lo in range(0, live.size, block):
            rows = live[lo : lo + block]
            below = uniform_block(seeds[rows], starts[rows] + done, width, scratch) < limit
            left = lengths[rows] - done
            if left.min() < width:
                below &= np.arange(width) < left[:, None]
            counts[rows] += np.count_nonzero(below, axis=1)
        done += width
        live = live[lengths[live] > done]
        if stop_after:
            live = live[done - counts[live] < stop_after]
    return counts


def _early_exit(p: float, n_shots: int, stop_after: int, config: McConfig) -> int:
    """Trials with at least stop_after of their n_shots draws >= p."""
    reached = 0
    for seeds in _trial_blocks(config):
        counts = _count_below(seeds, p, n_shots, stop_after=stop_after)
        reached += int(np.count_nonzero(n_shots - counts >= stop_after))
    return reached


def _miss_rate(fid: float, formula: Formula, n_shots: int, config: McConfig) -> McResult:
    """Trials in which all n_shots shots accept at the formula's per-shot acceptance."""
    fid = check_range("fidelity", fid, 0, 1, "[)")  # at 1 every shot accepts, so no trial misses
    n_shots = check_count("n_shots", n_shots)
    rejected = _early_exit(FORMULAS[formula].per_shot(fid), n_shots, 1, config)
    return McResult((config.trials - rejected) / config.trials, config.trials)


def simulate_inverse_miss_rate(fid: float, n_shots: int, config: McConfig) -> McResult:
    """Miss rate of the inverse test: every shot accepts although F < 1.

    Each shot accepts with probability F; the test only flags a defect on
    the first reject, so a miss is n_shots straight accepts.  The
    estimate should sit within sampling error of F^n_shots.
    """
    return _miss_rate(fid, Formula.INVERSE_IDEAL, n_shots, config)


def simulate_swap_miss_rate(fid: float, n_shots: int, config: McConfig) -> McResult:
    """Miss rate of the swap test: all ancilla reads come up 0.

    Per-shot acceptance is (1 + F)/2; expect ((1 + F)/2)^n_shots.
    """
    return _miss_rate(fid, Formula.SWAP_IDEAL, n_shots, config)


def simulate_chisq_power(p: Distribution, q: Distribution, n_shots: int, alpha: float,
                         config: McConfig) -> McResult:
    """Rejection rate of the chi-square test when data follow p and q is tested.

    Each trial samples a multinomial of n_shots outcomes from p, adds each
    bin's Pearson term against q as that bin is sampled, and rejects above
    the central 1 - alpha quantile at k - 1 degrees of freedom.  With p = q
    this estimates the realized Type I rate; with p != q, the power.  Results
    carry the chi-square validity warnings for the planned shot count.
    A bin-count mismatch or a zero reference bin raises before any draw.
    """
    n_shots = check_count("n_shots", n_shots)
    alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "()")
    chi2_distance(p, q)  # raises DimensionMismatch or ZeroExpectedBin
    crit = chi2_quantile(1.0 - alpha, float(q.k - 1))
    rejections = 0
    with np.errstate(over="ignore"):  # a reference bin below ~1e-300 / n_shots: its Pearson term is inf
        for seeds in _trial_blocks(config):
            position = np.zeros(seeds.size, dtype=np.int64)
            remaining = np.full(seeds.size, n_shots, dtype=np.int64)
            stat = np.zeros(seeds.size)
            tail = 1.0
            for p_i, q_i in zip(p.probs[:-1], q.probs):
                p_cond = 1.0 if tail <= p_i else p_i / tail
                counts = _count_below(seeds, p_cond, remaining, position)
                stat += (counts - n_shots * q_i) ** 2 / (n_shots * q_i)
                position += remaining
                remaining -= counts
                tail = max(tail - p_i, 0.0)
            stat += (remaining - n_shots * q.probs[-1]) ** 2 / (n_shots * q.probs[-1])
            rejections += int(np.count_nonzero(stat > crit))
    return McResult(rejections / config.trials, config.trials, chisq_validity(n_shots, q))


def simulate_binomial_detection(
    q0: float, q1: float, n_shots: int, alpha: float, config: McConfig
) -> McResult:
    """Detection rate of the exact binomial test when the true rate is q1.

    Each trial draws the all-zeros count from Binomial(n_shots, q1) and
    applies the one-sample decision against baseline q0.  The rule is
    monotone in the count, so trials are classified by the precomputed
    rejection threshold and stop once n_shots - threshold shots fail.  The
    threshold checks alpha before its tail bisection; q0, q1 and n_shots
    are checked here, before it.
    """
    q0, q1 = check_range("baseline q0", q0, 0, 1, "(]"), check_range("true rate q1", q1, 0, 1)
    if q1 > q0:
        raise BaselineNotAboveTarget(f"true rate q1={q1} exceeds baseline q0={q0}")
    n_shots = check_count("shot count", n_shots)
    threshold = binomial_rejection_threshold(n_shots, q0, alpha)
    detected = _early_exit(q1, n_shots, n_shots - threshold, config)
    return McResult(detected / config.trials, config.trials)
