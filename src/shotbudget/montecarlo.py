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
  Inverse/swap      a trial stops at its first reject; the result is
                    unchanged.

One kernel, `_count_below`, draws for all of them, in tiles of at most
`_CHUNK_ELEMENTS` draws, so memory stays bounded whatever the shot count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BaselineNotAboveTarget, DomainError, Record, check_range
from .rng import MASK64, sub_seeds, uniform_block
from .shot_estimators import FORMULAS, Formula
from .stat_power import (
    Distribution,
    binomial_rejection_threshold,
    chi2_distance,
    chi2_quantile,
    chisq_validity,
)

__all__ = [
    "McConfig",
    "McResult",
    "simulate_inverse_miss_rate",
    "simulate_swap_miss_rate",
    "simulate_chisq_power",
    "simulate_binomial_detection",
]

# Cap on draws held per tile, sized to stay in cache; results do not depend on it.
_CHUNK_ELEMENTS = 1 << 16
_REJECT_SCAN = 64  # columns per tile while many early-exit trials are live


class McConfig(Record):
    """Trial count and master seed; the RNG itself is fixed by the package."""

    __slots__ = _fields = ("trials", "seed")

    def __init__(self, trials: int, seed: int = 20_260_822) -> None:
        check_range("trials", trials, 1)
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
    uniforms_drawn: int = 0  # draws generated; a diagnostic kept out of the CLI output


def _finish(hits: int, drawn: int, config: McConfig, warnings: tuple[str, ...] = ()) -> McResult:
    return McResult(hits / config.trials, config.trials, warnings, drawn)


def _count_below(seeds, p: float, lengths, starts=0, stop_at_reject: bool = False):
    """Per row i, how many of its draws starts[i] .. starts[i]+lengths[i]-1 lie below p.

    Walks column tiles over the live rows in row blocks of at most
    _CHUNK_ELEMENTS draws, masking draws past a row's length.  With
    stop_at_reject a row leaves after the tile of its first draw >= p, so
    its count reaches its length only if it never rejects.  Returns the
    counts and the number of draws generated.
    """
    lengths, starts = np.broadcast_to(lengths, seeds.shape), np.broadcast_to(starts, seeds.shape)
    limit = np.uint64(min(math.ceil(p * 2.0**53), 2**53))
    counts = np.zeros(seeds.size, dtype=np.int64)
    scratch = np.empty(2 * _CHUNK_ELEMENTS, dtype=np.uint64)
    live = np.flatnonzero(lengths > 0)
    done = drawn = 0
    while live.size:
        width = int(lengths[live].max()) - done
        if stop_at_reject:
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
            drawn += below.size
        done += width
        live = live[lengths[live] > done]
        if stop_at_reject:
            live = live[counts[live] == done]
    return counts, drawn


def _miss_rate(fid: float, formula: Formula, n_shots: int, config: McConfig) -> McResult:
    """Trials in which all n_shots shots accept at the formula's per-shot acceptance."""
    if not 0.0 <= fid < 1.0:  # the message says why 1 is left out
        raise DomainError(f"fidelity must lie in [0, 1) to have misses, got {fid}")
    check_range("n_shots", n_shots, 1)
    seeds = sub_seeds(config.seed, 0, config.trials)
    counts, drawn = _count_below(seeds, FORMULAS[formula].per_shot(fid), n_shots, stop_at_reject=True)
    return _finish(int(np.count_nonzero(counts == n_shots)), drawn, config)


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


def _multinomial_counts(seeds: np.ndarray, n_shots: int, probs: tuple[float, ...]):
    """Bin counts per trial seed, shape (trials, k), and the draws generated.

    Each bin conditions all trials at once, each from its own stream position.
    """
    counts = np.empty((seeds.size, len(probs)), dtype=np.int64)
    position = np.zeros(seeds.size, dtype=np.int64)
    remaining = np.full(seeds.size, n_shots, dtype=np.int64)
    tail, drawn = 1.0, 0
    for i in range(len(probs) - 1):
        p_cond = 1.0 if tail <= probs[i] else probs[i] / tail
        counts[:, i], used = _count_below(seeds, p_cond, remaining, position)
        drawn += used
        position += remaining
        remaining -= counts[:, i]
        tail = max(tail - probs[i], 0.0)
    counts[:, -1] = remaining
    return counts, drawn


def simulate_chisq_power(p: Distribution, q: Distribution, n_shots: int, alpha: float,
                         config: McConfig) -> McResult:
    """Rejection rate of the chi-square test when data follow p and q is tested.

    Each trial samples a multinomial of n_shots outcomes from p, forms
    the Pearson statistic against q, and rejects above the central
    1 - alpha quantile at k - 1 degrees of freedom.  With p = q this
    estimates the realized Type I rate; with p != q, the power.  Results
    carry the chi-square validity warnings for the planned shot count.
    A bin-count mismatch or a zero reference bin raises before any draw.
    """
    check_range("n_shots", n_shots, 1)
    check_range("alpha", alpha, 0, 1, "()")
    chi2_distance(p, q)  # raises DimensionMismatch or ZeroExpectedBin
    crit = chi2_quantile(1.0 - alpha, float(q.k - 1))
    expected = n_shots * np.asarray(q.probs)
    # trial blocks keep the (trials, k) count matrix within the tile cap
    block = max(1, _CHUNK_ELEMENTS // q.k)
    rejections = drawn = 0
    for first in range(0, config.trials, block):
        seeds = sub_seeds(config.seed, first, min(block, config.trials - first))
        counts, used = _multinomial_counts(seeds, n_shots, p.probs)
        stat = np.sum((counts - expected) ** 2 / expected, axis=1)
        rejections += int(np.count_nonzero(stat > crit))
        drawn += used
    return _finish(rejections, drawn, config, warnings=chisq_validity(n_shots, q))


def simulate_binomial_detection(
    q0: float, q1: float, n_shots: int, alpha: float, config: McConfig
) -> McResult:
    """Detection rate of the exact binomial test when the true rate is q1.

    Each trial draws the all-zeros count from Binomial(n_shots, q1) and
    applies the one-sample decision against baseline q0.  The rule is
    monotone in the count, so trials are classified by the precomputed
    rejection threshold.  That threshold checks n_shots, q0 and alpha
    before its O(n_shots) sum; q1 is checked here, before it.
    """
    check_range("true rate q1", q1, 0, 1)
    if q1 > q0:
        raise BaselineNotAboveTarget(f"true rate q1={q1} exceeds baseline q0={q0}")
    threshold = binomial_rejection_threshold(n_shots, q0, alpha)
    counts, drawn = _count_below(sub_seeds(config.seed, 0, config.trials), q1, n_shots)
    return _finish(int(np.count_nonzero(counts <= threshold)), drawn, config)
