"""Numerical kernels used by every other module.

The Hermitian eigensolver is LAPACK's, reached through numpy.linalg.eigh
behind one unchecked entry point, the only function here that imports
numpy (on its first call); states are checked once, where `states`
builds them.  The scalar kernels are implemented here on the standard
library alone: the Poisson point probability x^a e^-x / Gamma(a + 1) in
Loader's saddle-point form, shared with the binomial tail; the regularized
lower incomplete gamma function (series plus continued fraction, with that
point probability as prefactor); one modified-Lentz continued-fraction
kernel for it and the binomial tails; a golden-section minimizer; and a
bracket-doubling bisection solver for increasing functions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable

from .errors import DomainError, NoConvergence
from . import tolerances as tol

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "hermitian_eigendecomposition",
    "lentz_fraction",
    "regularized_gamma_p",
    "minimize_unimodal",
    "solve_increasing",
]


def hermitian_eigendecomposition(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of a Hermitian matrix from LAPACK (numpy.linalg.eigh):
    ascending eigenvalues, and the unitary whose k-th column belongs to values[k].

    The solver sees the exactly Hermitian average (H + H^dagger)/2, so
    round-off in the input cannot bias one triangle over the other.
    Eigenvalues carry an absolute error of a few eps * ||H||; ones within
    that distance of zero keep little relative accuracy, which is why the
    functionals in `states` apply a rank cut before taking logarithms.
    Nothing is checked here: every matrix comes from states that were
    checked when they were built.
    """
    import numpy as np

    a = np.asarray(matrix, dtype=np.complex128)
    return np.linalg.eigh((a + a.conj().T) / 2.0)


def _stirlerr(n: float) -> float:  # ln(n!) - ln(sqrt(2 pi n) (n/e)^n), n > 0
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    nn = 1.0 / (n * n)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - nn / 1188) * nn) * nn) * nn) / n


def _bd0(x: float, m: float, d: float) -> float:  # x ln(x/m) + m - x, from d = x - m
    if abs(d) >= 0.1 * (x + m):  # x / m may overflow at a subnormal m, so each is logged alone
        return x * (math.log(x) - math.log(m)) - d if x > m * 1e300 else x * math.log(x / m) - d
    v = d / (x + m)  # |v| < 1/19: the series d v + 2 x sum v^j / j over odd j >= 3 is done by v^17
    u = v * v
    return d * v + 2.0 * x * v * u * (1 / 3 + u * (1 / 5 + u * (1 / 7 + u * (1 / 9 + u * (
        1 / 11 + u * (1 / 13 + u * (1 / 15 + u / 17)))))))


def _poisson_point(k: float, mean: float) -> float:  # mean^k e^-mean / Gamma(k + 1), k > 0, in Loader's form
    return math.exp(-_stirlerr(k) - _bd0(k, mean, k - mean)) / math.sqrt(2.0 * math.pi * k)


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Series representation for x < a + 1, continued fraction for the
    complementary Q otherwise, each times x^a e^-x / Gamma(a) in Loader's
    form.  The fraction stops at a step under 1e-12 relative, the series at
    a term under 1e-12 of its total; near x ~= a the tail past that term is
    about term k / (k - x), so P reads 1.3e-11 off at a = 1e4 + 1/2, x =
    0.99 a, and 2.2e-10 at a = x = 2^21 + 1/2.  P(k/2, x/2) is the chi-square
    CDF with k degrees of freedom, which is what the power calculations feed it.

    Raises:
        DomainError: if a <= 0 or x < 0.
        NoConvergence: if the iteration budget runs out.
    """
    if a <= 0.0 or x < 0.0 or not (math.isfinite(a) and math.isfinite(x)):
        raise DomainError(f"regularized_gamma_p needs a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0.0:
        return 0.0
    prefactor = a * _poisson_point(a, x)  # x^a e^-x / Gamma(a)
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
                return min(1.0, prefactor * total)
        raise NoConvergence(f"gamma series did not converge for a={a}, x={x}")
    # Continued fraction for Q, then P = 1 - Q.
    b0 = x + 1.0 - a

    def terms():
        b = b0
        for i in range(1, tol.GAMMA_MAX_ITER + 1):
            b += 2.0
            yield -i * (i - a), b

    q = prefactor * lentz_fraction(
        b0, terms(), tol.GAMMA_RTOL, "gamma continued fraction for a=%s, x=%s", (a, x))
    return max(0.0, 1.0 - q)


def lentz_fraction(b0: float, terms: Iterable[tuple[float, float]], rtol: float, what: str, args=()) -> float:
    """1 / (b0 + a1 / (b1 + a2 / (b2 + ...))) over the (a_i, b_i) pairs of terms, by the
    modified Lentz method, to the first step that moves it by under rtol (relative).
    NoConvergence, naming `what % args`, if the terms run out first."""
    tiny = 1e-150  # stands in for a zero; 1 / tiny**2 stays finite, so d * c cannot overflow
    c = 1.0 / tiny
    d = 1.0 / b0 if b0 != 0.0 else c
    h = d
    for an, bn in terms:
        d = an * d + bn
        if abs(d) < tiny:
            d = tiny
        c = bn + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < rtol:
            return h
    raise NoConvergence(f"{what % args} did not converge")


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
        DomainError: if lo >= hi.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
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
        DomainError: if hi <= lo, or f(lo) > target.
        NoConvergence: if the target is still not enclosed after 128
            doublings of the interval.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    if flo > target:
        raise DomainError(f"f(lo)={flo} already exceeds target {target}")
    if flo == target:
        return lo
    width = hi - lo
    fhi = f(hi)
    doublings = 0
    while fhi < target:
        doublings += 1
        if doublings > tol.ROOT_MAX_DOUBLINGS:
            raise NoConvergence(f"target {target} not enclosed after {tol.ROOT_MAX_DOUBLINGS} doublings")
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
