"""Kernels against library oracles and hand-frozen values."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from shotbudget.errors import (
    DomainError,
    InvalidBracket,
    NoBracket,
    NotHermitian,
)
from shotbudget.numerics import (
    hermitian_eigendecomposition,
    minimize_unimodal,
    normal_quantile,
    regularized_gamma_p,
    solve_increasing,
)

from conftest import random_hermitian


class TestEigendecomposition:
    def test_matches_numpy_on_random_hermitian(self, rng):
        for dim in (2, 3, 4, 5, 8):
            for _ in range(20):
                mat = random_hermitian(rng, dim)
                dec = hermitian_eigendecomposition(mat)
                ref = np.linalg.eigvalsh(mat)
                assert np.allclose(dec.values, ref, atol=1e-10 * max(1.0, np.abs(ref).max()))

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(20):
            mat = random_hermitian(rng, 6)
            dec = hermitian_eigendecomposition(mat)
            u = dec.vectors
            recon = (u * dec.values) @ u.conj().T
            assert np.allclose(recon, mat, atol=1e-9)
            assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-10)

    def test_values_ascending(self, rng):
        dec = hermitian_eigendecomposition(random_hermitian(rng, 7))
        assert np.all(np.diff(dec.values) >= 0)

    def test_one_by_one(self):
        dec = hermitian_eigendecomposition(np.array([[3.5]]))
        assert dec.values[0] == 3.5
        assert dec.vectors[0, 0] == 1.0

    def test_already_diagonal(self):
        dec = hermitian_eigendecomposition(np.diag([2.0, -1.0, 0.5]))
        assert np.allclose(dec.values, [-1.0, 0.5, 2.0])

    def test_degenerate_spectrum(self, rng):
        # repeated eigenvalues: reconstruction is the only stable check
        u = np.linalg.qr(random_hermitian(rng, 4))[0]
        mat = (u * np.array([1.0, 1.0, 1.0, 2.0])) @ u.conj().T
        dec = hermitian_eigendecomposition(mat)
        assert np.allclose(sorted(dec.values), [1.0, 1.0, 1.0, 2.0], atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            hermitian_eigendecomposition(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        # NaN slips past the Hermiticity test (nan > tol is False)
        for bad in (np.nan, np.inf):
            mat = np.eye(3, dtype=complex)
            mat[1, 2] = mat[2, 1] = bad
            with pytest.raises(DomainError, match=r"\(1, 2\)"):
                hermitian_eigendecomposition(mat)


class TestRegularizedGammaP:
    def test_frozen_unit_point(self):
        # P(1, 1) = 1 - exp(-1), hand-computed; series truncates at its
        # own 1e-12 relative target, so don't ask for more than that
        assert regularized_gamma_p(1.0, 1.0) == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_against_scipy_grid(self):
        for a in (0.5, 1.0, 2.5, 7.5, 40.0, 300.0):
            for x in (0.0, 0.1, 1.0, 5.0, 40.0, 350.0):
                mine = regularized_gamma_p(a, x)
                ref = scipy.special.gammainc(a, x)
                assert mine == pytest.approx(ref, abs=1e-12, rel=1e-10), (a, x)

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            regularized_gamma_p(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_p(1.0, -0.1)


class TestNormalQuantile:
    def test_frozen_99th_percentile(self):
        assert normal_quantile(0.99) == pytest.approx(2.3263478740408408, abs=1e-9)

    def test_median_and_symmetry(self):
        assert normal_quantile(0.5) == 0.0
        for p in (0.6, 0.9, 0.995, 0.9999):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-12)

    def test_round_trip_through_erf_cdf(self):
        for z in np.linspace(-6.0, 6.0, 121):
            p = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            assert normal_quantile(p) == pytest.approx(z, abs=1e-7)

    def test_against_scipy(self):
        for p in (1e-8, 1e-4, 0.025, 0.31, 0.5, 0.84, 0.975, 1.0 - 1e-7):
            assert normal_quantile(p) == pytest.approx(scipy.stats.norm.ppf(p), abs=1e-9)

    def test_rejects_endpoints(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)


class TestMinimizeUnimodal:
    def test_quadratic(self):
        x, fx = minimize_unimodal(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0, 1e-12)
        # argmin of a quadratic is only resolvable to ~sqrt(eps) from
        # function values; the minimum value itself is much tighter
        assert x == pytest.approx(0.3, abs=5e-8)
        assert fx == pytest.approx(1.0, abs=1e-12)

    def test_boundary_minimum(self):
        x, _ = minimize_unimodal(lambda x: x, 0.0, 1.0, 1e-12)
        assert x == pytest.approx(0.0, abs=1e-8)

    def test_rejects_empty_bracket(self):
        with pytest.raises(InvalidBracket):
            minimize_unimodal(lambda x: x, 1.0, 1.0, 1e-12)


class TestSolveIncreasing:
    def test_cube_root(self):
        root = solve_increasing(lambda x: x**3, 2.0, 0.0, 1.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-8)

    def test_expands_initial_bracket(self):
        # target far beyond hi: the doubling phase has to find it
        root = solve_increasing(lambda x: x, 1e6, 0.0, 1.0)
        assert root == pytest.approx(1e6, rel=1e-8)

    def test_rejects_target_below_range(self):
        with pytest.raises(NoBracket):
            solve_increasing(lambda x: x, -1.0, 0.0, 1.0)

    def test_rejects_empty_bracket(self):
        with pytest.raises(InvalidBracket):
            solve_increasing(lambda x: x, 0.5, 1.0, 1.0)
