"""Golden Monte Carlo estimates: hit and rejection counts pinned bit for bit.

Every simulator draws from fixed splitmix64 substreams, so a (seed,
trials, shots, distribution) case has exactly one outcome.  The counts
below were recorded from the straightforward per-trial implementation
and must survive any change to how the draws are tiled or vectorized.
The cases span several chunks, runs of more trials than one trial block,
single trials far longer than one tile, F = 0 and F near 1, and a
chi-square data distribution with a zero bin.
"""

import numpy as np
import pytest

from shotbudget import (
    Distribution,
    McConfig,
    simulate_binomial_detection,
    simulate_chisq_power,
    simulate_inverse_miss_rate,
    simulate_swap_miss_rate,
)

MISS_CASES = [
    # (scenario, fidelity, shots, seed, trials, hits)
    ("inverse", 0.99, 458, 1, 3000, 30),
    ("inverse", 0.99, 458, 20260822, 25000, 239),
    ("inverse", 0.98, 200, 5, 3000, 58),
    ("inverse", 0.0, 10, 3, 1000, 0),
    ("inverse", 0.5, 1, 4, 777, 399),
    ("inverse", 0.9999, 5000, 6, 2000, 1227),
    ("inverse", 1.0 - 1e-9, 1000, 7, 500, 500),
    ("inverse", 1.0 - 1e-7, 300_000, 8, 1, 1),
    ("inverse", 1.0 - 5e-6, 100_000, 11, 8, 6),
    ("inverse", 0.99, 6_450_000, 9, 1, 0),
    ("inverse", 0.999999, 70_001, 10, 3, 3),
    ("swap", 0.99, 919, 2, 10_000, 106),
    ("swap", 0.0, 7, 13, 5000, 41),
    ("swap", 0.8, 33, 14, 4321, 151),
    ("swap", 1.0 - 1e-12, 2000, 15, 300, 300),
    ("swap", 0.9999, 20_000, 16, 20, 7),
    ("inverse", 0.9, 5, 50, 70_000, 41430),  # more trials than one block holds
    ("swap", 0.8, 12, 51, 70_000, 19752),
]

BINOMIAL_CASES = [
    # (q0, q1, shots, alpha, seed, trials, detections)
    (0.999, 0.99, 300, 0.05, 1, 5000, 4039),
    (0.999, 0.99, 250, 0.05, 2, 45_000, 32166),
    (1.0, 0.5, 1, 0.05, 31, 10_000, 4964),
    (1.0, 0.99, 2149, 0.01, 32, 3000, 3000),
    (0.9, 0.9, 100, 0.05, 33, 2000, 63),
    (0.99, 0.0, 17, 0.05, 34, 500, 500),
    (0.999, 0.998, 300_000, 0.05, 35, 1, 1),
    (0.999, 0.9988, 100_000, 0.05, 37, 6, 1),
    (0.9, 0.85, 70_001, 0.05, 36, 3, 3),
    (0.99, 0.9, 20, 0.05, 52, 70_000, 42586),
]

_RAMP16 = np.linspace(1.0, 2.0, 16) / np.linspace(1.0, 2.0, 16).sum()

CHISQ_CASES = [
    # (p, q, shots, alpha, seed, trials, rejections)
    ([0.125] * 8, [0.125] * 8, 400, 0.05, 20260822, 2000, 96),
    ([0.3, 0.3, 0.2, 0.2], [0.25] * 4, 430, 0.05, 22, 1500, 1431),
    ([0.25] * 4, [0.25] * 4, 400, 0.05, 21, 1000, 48),
    ([0.3, 0.0, 0.35, 0.35], [0.25, 0.05, 0.35, 0.35], 60, 0.05, 40, 800, 124),
    ([0.1, 0.2, 0.7, 0.0], [0.1, 0.2, 0.3, 0.4], 4, 0.01, 41, 600, 3),
    ([0.6, 0.4], [0.5, 0.5], 200, 0.05, 42, 1200, 1001),
    ([1 / 64] * 64, [1 / 64] * 64, 50, 0.05, 43, 400, 17),
    (list(_RAMP16), [1 / 16] * 16, 400, 0.05, 44, 500, 367),
    ([0.25] * 4, [0.25] * 4, 1, 0.05, 45, 300, 0),
    ([0.2, 0.3, 0.5], [0.21, 0.3, 0.49], 5000, 0.05, 46, 40, 13),
    ([0.2, 0.3, 0.5], [0.205, 0.3, 0.495], 70_000, 0.05, 47, 3, 3),
    ([0.6, 0.4], [0.5, 0.5], 20, 0.05, 53, 70_000, 8910),
]


@pytest.mark.parametrize("scenario, fid, shots, seed, trials, hits", MISS_CASES)
def test_miss_rate_hits_are_pinned(scenario, fid, shots, seed, trials, hits):
    simulate = simulate_inverse_miss_rate if scenario == "inverse" else simulate_swap_miss_rate
    result = simulate(fid, shots, McConfig(trials=trials, seed=seed))
    assert result.estimate == hits / trials


@pytest.mark.parametrize("q0, q1, shots, alpha, seed, trials, hits", BINOMIAL_CASES)
def test_binomial_detections_are_pinned(q0, q1, shots, alpha, seed, trials, hits):
    result = simulate_binomial_detection(q0, q1, shots, alpha, McConfig(trials=trials, seed=seed))
    assert result.estimate == hits / trials


@pytest.mark.parametrize("p, q, shots, alpha, seed, trials, hits", CHISQ_CASES)
def test_chisq_rejections_are_pinned(p, q, shots, alpha, seed, trials, hits):
    p_dist, q_dist = Distribution(np.array(p)), Distribution(np.array(q))
    result = simulate_chisq_power(p_dist, q_dist, shots, alpha, McConfig(trials=trials, seed=seed))
    assert result.estimate == hits / trials
