"""Numerical kernels used by every other module.

The Hermitian eigensolver is LAPACK's, reached through numpy.linalg.eigh
behind one checked entry point.  The scalar kernels are implemented here:
the regularized lower incomplete gamma function (series plus continued
fraction), an AS241-class normal quantile, a golden-section minimizer,
and a bracket-doubling bisection solver for increasing functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    InvalidBracket,
    NoBracket,
    NoConvergence,
    NotHermitian,
)
from . import tolerances as tol

__all__ = [
    "EigenDecomposition",
    "hermitian_eigendecomposition",
    "regularized_gamma_p",
    "normal_quantile",
    "minimize_unimodal",
    "solve_increasing",
]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Result of a Hermitian eigendecomposition.

    values:  real eigenvalues in ascending order.
    vectors: unitary matrix whose k-th column is the eigenvector for
             values[k], so  H = vectors @ diag(values) @ vectors^dagger.
    """

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigendecomposition(matrix: np.ndarray) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK (numpy.linalg.eigh).

    The solver sees the exactly Hermitian average (H + H^dagger)/2, so
    round-off in the input cannot bias one triangle over the other.
    Eigenvalues carry an absolute error of a few eps * ||H||; ones within
    that distance of zero keep little relative accuracy, which is why the
    functionals in `states` apply a rank cut before taking logarithms.

    Args:
        matrix: square complex array, Hermitian within 1e-10 max-abs.

    Returns:
        EigenDecomposition with ascending eigenvalues.

    Raises:
        DomainError: if the matrix is not square or has a non-finite entry.
        NotHermitian: if max |H - H^dagger| exceeds the tolerance.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        raise DomainError(f"matrix entry {tuple(bad[0].tolist())} is not finite")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol.HERMITICITY_ATOL:
        raise NotHermitian(f"max |H - H^dagger| = {dev:.3e} exceeds {tol.HERMITICITY_ATOL:.1e}")
    values, vectors = np.linalg.eigh((a + a.conj().T) / 2.0)
    return EigenDecomposition(values=values, vectors=vectors)


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Series representation for x < a + 1, continued fraction for the
    complementary Q otherwise; both are iterated to 1e-12 relative
    accuracy.  P(k/2, x/2) is the chi-square CDF with k degrees of
    freedom, which is what the power calculations feed it.

    Raises:
        DomainError: if a <= 0 or x < 0.
        NoConvergence: if the iteration budget runs out.
    """
    if a <= 0.0 or x < 0.0 or not (math.isfinite(a) and math.isfinite(x)):
        raise DomainError(f"regularized_gamma_p needs a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0.0:
        return 0.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # Ascending series for P.
        term = 1.0 / a
        total = term
        k = a
        for _ in range(tol.GAMMA_MAX_ITER):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * tol.GAMMA_RTOL:
                return min(1.0, math.exp(log_prefactor) * total)
        raise NoConvergence(f"gamma series did not converge for a={a}, x={x}")
    # Modified Lentz continued fraction for Q, then P = 1 - Q.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, tol.GAMMA_MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol.GAMMA_RTOL:
            q = math.exp(log_prefactor) * h
            return max(0.0, 1.0 - q)
    raise NoConvergence(f"gamma continued fraction did not converge for a={a}, x={x}")


# AS241 (Wichura) rational approximation constants, |error| < 1e-15.
_AS241_A = (
    3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
    1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
    3.3430575583588128105e4, 2.5090809287301226727e3,
)
_AS241_B = (
    1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
    2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_AS241_C = (
    1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
    3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
    2.27238449892691845833e-2, 7.74545014278341407640e-4,
)
_AS241_D = (
    1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
    1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_AS241_E = (
    6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
    2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
    2.71155556874348757815e-5, 2.01033439929228813265e-7,
)
_AS241_F = (
    1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
    7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _rational(num: tuple, den: tuple, r: float) -> float:
    n = 0.0
    for coeff in reversed(num):
        n = n * r + coeff
    d = 0.0
    for coeff in reversed(den):
        d = d * r + coeff
    return n / d


def normal_quantile(p: float) -> float:
    """Standard normal quantile (inverse CDF) for p in (0, 1).

    AS241-class rational approximation: a central polynomial for
    |p - 1/2| <= 0.425 and two tail regimes in sqrt(-log(tail)).
    Absolute error is below 1e-9 over the whole open interval.

    Raises:
        DomainError: if p is not strictly inside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile needs p in (0, 1), got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _rational(_AS241_A, _AS241_B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        value = _rational(_AS241_C, _AS241_D, r - 1.6)
    else:
        value = _rational(_AS241_E, _AS241_F, r - 5.0)
    return -value if q < 0.0 else value


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def minimize_unimodal(
    f: Callable[[float], float], lo: float, hi: float, x_tol: float
) -> tuple[float, float]:
    """Golden-section minimization of a unimodal function on [lo, hi].

    Returns (x_min, f(x_min)) once the bracket width drops below x_tol,
    after about log(x_tol / (hi - lo)) / log(0.618) + 3 calls of f.  The
    endpoints themselves are never evaluated: a caller whose minimum may
    sit on the boundary compares f(lo) and f(hi) itself.  Derivative-free
    on purpose: the Chernoff objective is convex in s, so unimodal, but
    its derivative is not worth maintaining.

    Raises:
        InvalidBracket: if lo >= hi.
    """
    if not lo < hi:
        raise InvalidBracket(f"need lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    while h > x_tol:
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INVPHI * h
            yd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def solve_increasing(
    f: Callable[[float], float], target: float, lo: float, hi: float
) -> float:
    """Solve f(x) = target for a nondecreasing f, starting from [lo, hi].

    The upper end is doubled outward until it encloses the target, then
    plain bisection runs until the bracket width is below
    1e-9 * max(1, |x|).  Requires f(lo) <= target, otherwise an
    increasing function can never come back down to the target.

    Raises:
        InvalidBracket: if hi <= lo.
        NoBracket: if f(lo) > target, or the target is still not enclosed
            after 128 doublings of the interval.
    """
    if not lo < hi:
        raise InvalidBracket(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo > target:
        raise NoBracket(f"f(lo)={flo} already exceeds target {target}")
    if flo == target:
        return lo
    width = hi - lo
    fhi = f(hi)
    doublings = 0
    while fhi < target:
        doublings += 1
        if doublings > tol.ROOT_MAX_DOUBLINGS:
            raise NoBracket(f"target {target} not enclosed after {tol.ROOT_MAX_DOUBLINGS} doublings")
        lo = hi
        width *= 2.0
        hi += width
        fhi = f(hi)
    for _ in range(tol.ROOT_MAX_BISECTIONS):
        mid = (lo + hi) / 2.0
        if hi - lo <= tol.ROOT_RTOL * max(1.0, abs(mid)):
            return mid
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0
