"""Chernoff Q on rank-deficient and degenerate states against exact spectra.

Every state here is built as U diag(lam) U^dagger from a known spectrum
and a known unitary, so the reference needs no eigensolver: the overlap
O = |U^dagger V|^2 comes straight from the bases and Q is minimized over
the exact spectra.  The reference applies the same rank cut as qcb_q
(eigenvalues at or below max * d * eps count as zero), so it pins the
support convention, not just the arithmetic.

Storing U diag(lam) U^dagger in floating point already moves each
eigenvalue by about d * eps and turns the eigenvectors of a tiny
eigenvalue next to a null space by about d * eps / lam.  No solver can
undo that, so Q carries a first-order error of d * eps times the largest
divided difference of x^s on the kept spectra: lam_min^(s*-1) for rho and
mu_min^(-s*) for sigma.  The tolerance is that bound on top of 1e-8.  It
stays at 1e-8 for projectors, degenerate spectra and other well-separated
spectra, and grows only where a kept eigenvalue sits a few decades above
the rank cut and the minimizer s* is small.
"""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from shotbudget import DensityMatrix, qcb_q

EPS = np.finfo(float).eps
BASE_ATOL = 1e-8


def _unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _state(vals, basis):
    mat = (basis * vals) @ basis.conj().T
    return DensityMatrix((mat + mat.conj().T) / 2.0)


def _kept(vals):
    return vals > vals.max() * vals.size * EPS


def _exact_q(lam, u, mu, v):
    """(Q, s*) from the exact spectra and bases, with qcb_q's rank cut."""
    kl, km = _kept(lam), _kept(mu)
    overlap = np.abs(u[:, kl].conj().T @ v[:, km]) ** 2
    log_l, log_m = np.log(lam[kl]), np.log(mu[km])

    def f(s):
        return float(np.exp(s * log_l) @ overlap @ np.exp((1.0 - s) * log_m))

    res = minimize_scalar(f, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
    return min((f(0.0), 0.0), (f(1.0), 1.0), (float(res.fun), float(res.x)))


def _tolerance(lam, mu, s_star):
    d = lam.size
    lam_min = lam[_kept(lam)].min()
    mu_min = mu[_kept(mu)].min()
    return BASE_ATOL + d * EPS * (lam_min ** (s_star - 1.0) + mu_min ** (-s_star))


def _eps_mixture(d, eps, split):
    """1 - eps on one direction, eps on one or (split) two more, zeros after."""
    vals = np.zeros(d)
    vals[1] = eps
    if split and d > 2:
        vals[1], vals[2] = 0.75 * eps, 0.25 * eps
    vals[0] = 1.0 - vals.sum()
    return vals


def _partner(rng, d, kind):
    if kind == "full":
        return rng.dirichlet(np.ones(d))
    if kind == "mix":
        return _eps_mixture(d, 1e-3, split=False)
    vals = np.zeros(d)
    k = max(1, d // 2)
    vals[:k] = rng.dirichlet(np.ones(k))
    return vals


def _check_pair(lam, u, mu, v):
    rho, sigma = _state(lam, u), _state(mu, v)
    worst = 0.0
    for (a, ua, sa), (b, ub, sb) in (((lam, u, rho), (mu, v, sigma)), ((mu, v, sigma), (lam, u, rho))):
        q_ref, s_ref = _exact_q(a, ua, b, ub)
        err = abs(qcb_q(sa, sb).q - q_ref)
        assert err <= _tolerance(a, b, s_ref), (q_ref, s_ref, err)
        worst = max(worst, err)
    return worst


@pytest.mark.parametrize("d", [2, 8, 32])
@pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
def test_eps_mixtures(d, eps):
    rng = np.random.default_rng(int(d * 1000 + round(-np.log10(eps))))
    for kind in ("full", "mix", "lowrank"):
        for split in (False, True):
            lam = _eps_mixture(d, eps, split)
            mu = _partner(rng, d, kind)
            _check_pair(lam, _unitary(rng, d), mu, _unitary(rng, d))


@pytest.mark.parametrize("d", [2, 8, 32])
def test_projectors(d):
    # normalized projectors of every rank pairing, including pure states;
    # the tolerance stays at 1e-8 because every kept eigenvalue is >= 1/d
    rng = np.random.default_rng(d)
    for ra in sorted({1, 2, d // 2, d}):
        for rb in sorted({1, d // 2, d}):
            lam = np.zeros(d)
            lam[:ra] = 1.0 / ra
            mu = np.zeros(d)
            mu[:rb] = 1.0 / rb
            assert _check_pair(lam, _unitary(rng, d), mu, _unitary(rng, d)) <= BASE_ATOL


@pytest.mark.parametrize("d", [2, 8, 32])
def test_degenerate_spectra(d):
    # repeated eigenvalues leave the eigenvectors free inside each
    # eigenspace; Q depends only on the eigenspaces
    rng = np.random.default_rng(100 + d)
    half = d // 2
    lam = np.concatenate([np.full(half, 0.75 / half), np.full(d - half, 0.25 / (d - half))])
    mu = np.concatenate([np.full(d - 1, 0.5 / (d - 1)), [0.5]])
    u = _unitary(rng, d)
    assert _check_pair(lam, u, mu, _unitary(rng, d)) <= BASE_ATOL
    # shared eigenbasis: the classical Chernoff bound of the two spectra
    assert _check_pair(lam, u, mu, u) <= BASE_ATOL
    # degenerate against a state inside one of its eigenspaces
    inside = np.zeros(d)
    inside[:half] = 1.0 / half
    assert _check_pair(lam, u, inside, u) <= BASE_ATOL
