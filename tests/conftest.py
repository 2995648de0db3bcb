"""Shared builders for random test states, the grid oracle for Chernoff Q,
the scalar splitmix64 reference for the vectorized streams in `rng`, and
the O(n) log-space binomial tail the package used before its incomplete
beta route, a wall-clock deadline for cases that must fail fast, and
`counting`, which counts solver work from outside the package."""

import contextlib
import importlib
import math
import signal
import sys

import numpy as np
import pytest

from shotbudget import DensityMatrix, PureState
from shotbudget.errors import DomainError
from shotbudget.rng import GAMMA, MASK64
from shotbudget.states import _support_mask


def random_pure(rng, qubits):
    """Haar-ish random pure state: complex Gaussian amplitudes, normalized."""
    dim = 2**qubits
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(raw / np.linalg.norm(raw))


def random_density(rng, qubits, rank=None):
    """Random density matrix A A^dagger / tr with A of shape (dim, rank)."""
    dim = 2**qubits
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = a @ a.conj().T
    return DensityMatrix(mat / np.trace(mat).real)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


class Overtime(BaseException):
    """Raised by `deadline`; no Exception, so no handler in the code under test takes it."""


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise Overtime in the block once `seconds` of wall time pass (SIGALRM), so a
    case that never returns fails instead of stalling the suite."""
    def expire(signum, frame):
        raise Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _calls(fn, add):
    """fn, adding 1 per call."""
    def counted(*args, **kwargs):
        add(1)
        return fn(*args, **kwargs)
    return counted


def _items(iterable, add):
    """The items of iterable, adding 1 per item taken."""
    for item in iterable:
        add(1)
        yield item


def _sizes(fn, add):
    """fn, adding the size of each array it returns."""
    def sized(*args, **kwargs):
        result = fn(*args, **kwargs)
        add(result.size)
        return result
    return sized


# work -> (module, function, how a wrapper of the function adds to the work's count)
WORK = {
    "eigensolves": ("numerics", "hermitian_eigendecomposition", _calls),
    "objective_calls": ("states", "_chernoff_objective", lambda fn, add: lambda *a: _calls(fn(*a), add)),
    "gamma_calls": ("numerics", "regularized_gamma_p", _calls),
    "root_evaluations": ("numerics", "solve_increasing", lambda fn, add: lambda f, *a: fn(_calls(f, add), *a)),
    "fraction_terms": ("numerics", "lentz_fraction",
                       lambda fn, add: lambda b0, terms, *a: fn(b0, _items(terms, add), *a)),
    "uniforms": ("rng", "uniform_block", _sizes),
}


@contextlib.contextmanager
def counting(*works):
    """Count the named kinds of WORK (all by default) done in the block, into the dict it yields.

    Each function is replaced by a counting wrapper in every shotbudget module that holds it,
    which is where its callers look it up, and restored on exit.
    """
    counts = dict.fromkeys(works or WORK, 0)
    with pytest.MonkeyPatch.context() as patch:
        for work in counts:
            home, name, wrap = WORK[work]

            def add(n, work=work):
                counts[work] += n

            original = getattr(importlib.import_module(f"shotbudget.{home}"), name)
            wrapper = wrap(original, add)
            for key, module in list(sys.modules.items()):
                if key.partition(".")[0] == "shotbudget":
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patch.setattr(module, attr, wrapper)
        yield counts


def qcb_grid_oracle(rho, sigma, grid_points: int = 100_001) -> tuple[float, float]:
    """Brute-force Chernoff minimum over a uniform s-grid with endpoints.

    Evaluates Tr(rho^s sigma^(1-s)) through the spectral overlap matrix
    O_ij = |<u_i|v_j>|^2 as sum_ij l_i^s O_ij m_j^(1-s), vectorized over
    the whole grid.  Zero eigenvalues contribute nothing at any s (the
    0^0 = 0 support convention).  Returns (q_min, s_at_min).
    """
    if grid_points < 2:
        raise DomainError(f"grid needs at least 2 points, got {grid_points}")
    dm_rho = rho.to_density() if isinstance(rho, PureState) else rho
    dm_sigma = sigma.to_density() if isinstance(sigma, PureState) else sigma
    if dm_rho.dim != dm_sigma.dim:
        raise DomainError(f"dimension mismatch: {dm_rho.dim} vs {dm_sigma.dim}")
    lam, u = dm_rho.eigensystem()
    mu, v = dm_sigma.eigensystem()
    overlap = np.abs(u.conj().T @ v) ** 2
    s = np.linspace(0.0, 1.0, grid_points)

    def spectrum_powers(vals: np.ndarray, exponents: np.ndarray) -> np.ndarray:
        out = np.zeros((vals.size, exponents.size))
        pos = _support_mask(vals)  # rank cut, same convention as qcb_q
        if np.any(pos):
            out[pos, :] = np.exp(np.outer(np.log(vals[pos]), exponents))
        return out

    lam_pow = spectrum_powers(lam, s)
    mu_pow = spectrum_powers(mu, 1.0 - s)
    g = np.einsum("ig,ij,jg->g", lam_pow, overlap, mu_pow)
    best = int(np.argmin(g))
    q = float(min(1.0, max(0.0, g[best])))
    return q, float(s[best])


def mix64(z: int) -> int:
    """Scalar splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_output(seed: int, index: int) -> int:
    """Output `index` (0-based) of the splitmix64 stream over `seed`."""
    return mix64((seed + (index + 1) * GAMMA) & MASK64)


def binomial_log_cdf_walk(n_shots: int, q: float, last: int, log_stop: float = math.inf) -> tuple[int, float]:
    """Walk ln P[Bin(n_shots, q) <= i] for i = 0..last in log space, for 0 < q < 1.

    Returns (i, log_cdf) at the first i whose value exceeds log_stop, or
    (last + 1, ln P[... <= last]) when none does.  Each term comes from the
    last by the pmf ratio and is log-added, so the relative error grows
    with n: 2.4e-12 at n = 1e3, 3.3e-9 at 1e5 and 2.6e-7 at 1e6 against
    scipy.stats.binom.cdf.
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


def walk_binomial_cdf(count: int, n_shots: int, q: float) -> float:
    """P[Bin(n_shots, q) <= count] by the walk, with the package's q = 1 convention."""
    if q == 1.0:
        return 1.0 if count == n_shots else 0.0
    return min(1.0, math.exp(binomial_log_cdf_walk(n_shots, q, count)[1]))


def walk_rejection_threshold(n_shots: int, q0: float, alpha: float) -> int:
    """Largest count whose walked CDF is at most alpha, or -1."""
    if q0 == 1.0:
        return n_shots - 1
    return binomial_log_cdf_walk(n_shots, q0, n_shots, math.log(alpha))[0] - 1
