"""Kernels against library oracles and hand-frozen values."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

from shotbudget.errors import DomainError, NoConvergence
from shotbudget.numerics import (
    hermitian_eigendecomposition,
    lentz_fraction,
    minimize_unimodal,
    regularized_gamma_p,
    solve_increasing,
)

from conftest import random_hermitian


class TestEigendecomposition:
    def test_matches_numpy_on_random_hermitian(self, rng):
        for dim in (2, 3, 4, 5, 8):
            for _ in range(20):
                mat = random_hermitian(rng, dim)
                values, _ = hermitian_eigendecomposition(mat)
                ref = np.linalg.eigvalsh(mat)
                assert np.allclose(values, ref, atol=1e-10 * max(1.0, np.abs(ref).max()))

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(20):
            mat = random_hermitian(rng, 6)
            values, u = hermitian_eigendecomposition(mat)
            recon = (u * values) @ u.conj().T
            assert np.allclose(recon, mat, atol=1e-9)
            assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-10)

    def test_values_ascending(self, rng):
        values, _ = hermitian_eigendecomposition(random_hermitian(rng, 7))
        assert np.all(np.diff(values) >= 0)

    def test_one_by_one(self):
        values, vectors = hermitian_eigendecomposition(np.array([[3.5]]))
        assert values[0] == 3.5
        assert vectors[0, 0] == 1.0

    def test_already_diagonal(self):
        values, _ = hermitian_eigendecomposition(np.diag([2.0, -1.0, 0.5]))
        assert np.allclose(values, [-1.0, 0.5, 2.0])

    def test_degenerate_spectrum(self, rng):
        # repeated eigenvalues: reconstruction is the only stable check
        u = np.linalg.qr(random_hermitian(rng, 4))[0]
        mat = (u * np.array([1.0, 1.0, 1.0, 2.0])) @ u.conj().T
        values, _ = hermitian_eigendecomposition(mat)
        assert np.allclose(sorted(values), [1.0, 1.0, 1.0, 2.0], atol=1e-10)


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

    @pytest.mark.parametrize("a", [1e4 + 0.5, 2.0**16 + 0.5, 2.0**20 + 0.5, 2.0**21 + 0.5])
    def test_upper_tail_two_sd_out_against_forty_digits(self, a):
        # Q = 1 - P at x = a + 2 sqrt(a), where the prefactor x^a e^-x / Gamma(a) must not cancel:
        # the reference sums the gamma series P = x^a e^-x / Gamma(a + 1) sum_k x^k / (a+1)...(a+k)
        mpmath = pytest.importorskip("mpmath")
        x = a + 2.0 * math.sqrt(a)
        with mpmath.workdps(40):
            ma, mx = mpmath.mpf(a), mpmath.mpf(x)
            term = total = mpmath.mpf(1)
            k = 0
            while term > total * mpmath.mpf(10) ** -42:
                k += 1
                term *= mx / (ma + k)
                total += term
            exact = 1 - mpmath.exp(ma * mpmath.log(mx) - mx - mpmath.loggamma(ma + 1)) * total
            assert abs((1.0 - regularized_gamma_p(a, x)) - exact) <= 1e-12 * exact

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            regularized_gamma_p(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_gamma_p(1.0, -0.1)


class TestLentzFraction:
    def test_golden_ratio(self):
        # 1 / (1 + 1 / (1 + ...)) = 1 / phi
        ones = ((1.0, 1.0) for _ in range(100))
        assert lentz_fraction(1.0, ones, 1e-15, "ones") == pytest.approx((5**0.5 - 1) / 2, rel=1e-15)

    @pytest.mark.parametrize("b0, terms", [
        (1, [(-2, -1), (-2, 0), (-2, 1), (-2, 1)]),  # C_2 = b2 + a2 / C_1 is exactly 0
        (1, [(-2, 0), (-2, -1), (-2, -1)]),  # D_2's denominator b2 + a2 D_1 is exactly 0
        (1, [(0.5, 0), (-1, 2), (-2, -2)]),  # C_1 below tiny, then D_2's denominator 0
        (0, [(1, 0), (0.5, 2)]),  # b0 = 0 too
    ])
    def test_zero_partial_denominators_against_exact_fractions(self, b0, terms):
        # a zero partial numerator ends the fraction; its value bottom-up in exact rationals
        tail = Fraction(0)
        for a, b in reversed(terms):
            tail = Fraction(a) / (b + tail)
        exact = float(1 / (b0 + tail))
        assert lentz_fraction(float(b0), terms + [(0.0, 1.0)], 1e-15, "f") == pytest.approx(exact, rel=1e-15)

    def test_running_out_of_terms_names_the_fraction(self):
        with pytest.raises(NoConvergence, match=r"^ones at 3 did not converge$"):
            lentz_fraction(1.0, [(1.0, 1.0)] * 3, 1e-15, "ones at %s", (3,))


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
        with pytest.raises(DomainError):
            minimize_unimodal(lambda x: x, 1.0, 1.0, 1e-12)


class TestSolveIncreasing:
    def test_cube_root(self):
        root = solve_increasing(lambda x: x**3, 2.0, 0.0, 1.0)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-8)

    def test_expands_initial_bracket(self):
        # target far beyond hi: the doubling phase has to find it
        root = solve_increasing(lambda x: x, 1e6, 0.0, 1.0)
        assert root == pytest.approx(1e6, rel=1e-8)

    def test_target_at_the_low_end_is_the_low_end(self):
        assert solve_increasing(lambda x: max(x, 0.5), 0.5, 0.25, 1.0) == 0.25

    def test_rejects_target_below_range(self):
        with pytest.raises(DomainError):
            solve_increasing(lambda x: x, -1.0, 0.0, 1.0)

    def test_target_never_enclosed(self):
        with pytest.raises(NoConvergence, match=r"^target 1.0 not enclosed after 128 doublings$"):
            solve_increasing(lambda x: 0.0, 1.0, 0.0, 1.0)

    def test_rejects_empty_bracket(self):
        with pytest.raises(DomainError):
            solve_increasing(lambda x: x, 0.5, 1.0, 1.0)
