"""Shared builders for random test states, the grid oracle for Chernoff Q,
and the scalar splitmix64 reference for the vectorized streams in `rng`."""

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
