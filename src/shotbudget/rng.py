"""Deterministic splitmix64 streams for the Monte Carlo validators.

The generator is splitmix64 (Steele et al.'s SplittableRandom finalizer,
as published by Vigna): output n of the stream over `seed` is

    mix64(seed + (n + 1) * 0x9E3779B97F4A7C15)  mod 2^64

with mix64 the xor-shift-multiply avalanche of `_mix64_inplace`.
Reference outputs for seed 0 are e220a8397b1dcdaf, 6e789e6aa1b965f4,
06c45d188009454f, f88bb8a8724c81ec; tests pin them.

Trial substreams: trial i draws from the splitmix64 stream whose seed is
output i of the master stream over the configured seed.  Draw j of trial
i is therefore a pure function of (seed, i, j), so results never depend
on evaluation order or chunking.  A draw is the top 53 bits m = x >> 11
of an output and stands for the uniform u = m * 2^-53 in [0, 1).  Since
m is an integer, u < p holds exactly when m < ceil(p * 2^53), so
consumers compare the integers and never form the doubles.

Everything here is exact 64-bit integer arithmetic; the numpy paths wrap
on uint64 overflow exactly like the scalar definition, which the tests
keep as their reference and compare with bit for bit.
"""

import numpy as np

__all__ = ["GAMMA", "MASK64", "sub_seeds", "uniform_block"]

GAMMA = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1
_MIX = ((30, np.uint64(0xBF58476D1CE4E5B9)), (27, np.uint64(0x94D049BB133111EB)))


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix64 on every element of the uint64 array z, in place; tmp is scratch of z's shape."""
    for shift, mult in _MIX:
        np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, 31, out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


def sub_seeds(seed: int, start: int, count: int) -> np.ndarray:
    """Substream seeds for trials start .. start+count-1 as uint64."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        states = np.uint64(seed & MASK64) + idx * np.uint64(GAMMA)
    return _mix64_inplace(states, np.empty_like(states))


def uniform_block(trial_seeds: np.ndarray, start: int | np.ndarray, count: int, scratch: np.ndarray) -> np.ndarray:
    """53-bit draws start .. start+count-1 of each trial seed, shape (trials, count).

    `start` is one stream position for every row or an array holding each
    row's own position.  The block is computed in place in `scratch`, a
    uint64 buffer of at least 2 * trials * count elements that callers
    reuse across blocks, and the result is a view into it, valid until the
    buffer is reused.
    """
    rows = trial_seeds.size
    size = rows * count
    z = scratch[:size].reshape(rows, count)
    tmp = scratch[size : 2 * size].reshape(rows, count)
    with np.errstate(over="ignore"):
        first = trial_seeds + (np.asarray(start, dtype=np.uint64) + np.uint64(1)) * np.uint64(GAMMA)
        np.multiply(np.arange(count, dtype=np.uint64), np.uint64(GAMMA), out=tmp[0])
        np.add(first[:, None], tmp[0], out=z)
    _mix64_inplace(z, tmp)
    return np.right_shift(z, 11, out=z)
