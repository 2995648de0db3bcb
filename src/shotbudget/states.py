"""Quantum state containers and distinguishability functionals.

PureState and DensityMatrix validate their invariants at construction and
report exactly which one failed; `parse_state` checks a state file's
fields before either is built.  These are the only places a state is
checked.  On top of them sit the Uhlmann fidelity, trace distance, the
quantum Chernoff bound Q with its error exponent, the fidelity-only
sandwich bounds on Q and the Fuchs-van de Graaf bounds, which trust the
states they are given.  Every eigendecomposition goes through
`numerics.hermitian_eigendecomposition`, which checks nothing; those of
validated density matrices are cached on the instance because every
functional needs them again.

Support convention: 0^0 = 0 in matrix powers, so states with disjoint
support yield Q = 0 (perfect one-shot distinguishability) instead of an
error.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidState, Record, check_range, json_float, read_json
from .numerics import hermitian_eigendecomposition, minimize_unimodal
from .shot_estimators import FORMULAS, Formula
from . import tolerances as tol

__all__ = [
    "PureState",
    "DensityMatrix",
    "QcbResult",
    "fidelity",
    "fidelity_pure",
    "trace_distance",
    "qcb_q",
    "q_bounds_mixed",
    "fuchs_van_de_graaf_bounds",
    "parse_state",
    "load_state",
]


def _first_nonfinite(values: np.ndarray) -> int | None:
    """Flat index of the first NaN or infinite entry, or None."""
    bad = np.flatnonzero(~np.isfinite(values))
    return int(bad[0]) if bad.size else None


def _qubit_count(dim: int, what: str) -> int:
    n = int(dim).bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise InvalidState(f"{what} dimension {dim} is not 2**n for n >= 1")
    return n


class PureState(Record):
    """Normalized state vector on n qubits."""

    __slots__ = _fields = ("amplitudes",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity equality

    def __init__(self, amplitudes: np.ndarray) -> None:
        amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        _qubit_count(amps.size, "state vector")
        bad = _first_nonfinite(amps)
        if bad is not None:
            raise InvalidState(f"amplitude {bad} is not finite: {amps[bad]!r}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > tol.NORM_ATOL:
            raise InvalidState(f"state vector norm {norm!r} differs from 1 beyond {tol.NORM_ATOL:.1e}")
        self._set(amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def qubits(self) -> int:
        return self.dim.bit_length() - 1

    def to_density(self) -> "DensityMatrix":
        """Rank-1 projector |psi><psi| as a DensityMatrix.

        The projector is Hermitian, unit-trace and PSD by construction,
        so the eigenvalue validation is skipped.
        """
        mat = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(matrix=(mat + mat.conj().T) / 2.0, _validated=True)


class DensityMatrix(Record):
    """Density matrix on n qubits: Hermitian, unit trace, PSD.

    Validation reports the first failed invariant by name.  Eigenvalues in
    [-1e-10, 0] are tolerated as round-off and clamped to zero wherever
    the spectrum is consumed.
    """

    __slots__, _fields = ("matrix", "_eig"), ("matrix",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # identity equality

    def __init__(self, matrix: np.ndarray, _validated: bool = False, _eig=None) -> None:
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidState(f"density matrix must be square, got shape {mat.shape}")
        _qubit_count(mat.shape[0], "density matrix")
        self._set(mat, _eig)
        if _validated:
            return
        bad = _first_nonfinite(mat)
        if bad is not None:
            i, j = divmod(bad, mat.shape[1])
            raise InvalidState(f"density matrix entry ({i}, {j}) is not finite: {mat[i, j]!r}")
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > tol.HERMITICITY_ATOL:
            raise InvalidState(f"not Hermitian: max |rho - rho^dagger| = {dev:.3e}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > tol.TRACE_ATOL:
            raise InvalidState(f"trace {tr!r} differs from 1 beyond {tol.TRACE_ATOL:.1e}")
        eig = hermitian_eigendecomposition(mat)
        if float(eig[0][0]) < tol.PSD_CLAMP_FLOOR:
            raise InvalidState(
                f"not positive semidefinite: eigenvalue {eig[0][0]:.3e} "
                f"below {tol.PSD_CLAMP_FLOOR:.1e}"
            )
        object.__setattr__(self, "_eig", eig)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def qubits(self) -> int:
        return self.dim.bit_length() - 1

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached (values, vectors) of the matrix, the values clamped to >= 0."""
        if self._eig is None:
            object.__setattr__(self, "_eig", hermitian_eigendecomposition(self.matrix))
        values, vectors = self._eig
        return np.where(values > 0.0, values, 0.0), vectors


class QcbResult(NamedTuple):
    """Quantum Chernoff bound value with its minimizer and error exponent.

    q is min over s in [0, 1] of Tr(rho^s sigma^(1-s)); exponent is
    -ln(q), infinite when the supports are disjoint and q = 0.

    evaluations counts the objective calls the search made; it is a
    diagnostic and stays out of the CLI output.
    """

    q: float
    s_star: float
    exponent: float
    evaluations: int = 0


def _density_pair(rho, sigma) -> list[DensityMatrix]:
    pair = [s.to_density() if isinstance(s, PureState) else s for s in (rho, sigma)]
    _check_same_dim(*pair)
    return pair


def _check_same_dim(a, b) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"dimension mismatch: {a.dim} vs {b.dim}")


def _clamp_unit(value: float, what: str) -> float:
    if value > 1.0 + tol.UNIT_INTERVAL_SLACK:
        raise InvalidState(f"{what} = {value!r} exceeds 1 beyond numerical slack")
    if value < -tol.UNIT_INTERVAL_SLACK:
        raise InvalidState(f"{what} = {value!r} is negative beyond numerical slack")
    return min(1.0, max(0.0, value))


def _support_mask(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues that count as support: a rank cut, not a sign test.

    The eigensolver leaves junk of either sign near 1e-16 on
    rank-deficient inputs.  A positive speck would pass a plain > 0
    test and contribute speck^s -> 1 as s -> 0, wrecking the boundary
    of the Chernoff objective.
    """
    cut = float(vals.max()) * vals.size * np.finfo(float).eps
    return vals > cut


def fidelity_pure(psi: PureState, phi: PureState) -> float:
    """Overlap fidelity |<phi|psi>|^2 of two pure states."""
    _check_same_dim(psi, phi)
    overlap = complex(np.vdot(phi.amplitudes, psi.amplitudes))
    return _clamp_unit(abs(overlap) ** 2, "fidelity")


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity of two states, (trace norm of sqrt(rho) sqrt(sigma))^2.

    Computed as the squared sum of the singular values of
    sqrt(rho) sqrt(sigma); those are the square roots of the eigenvalues
    of sqrt(sigma) rho sqrt(sigma), so two eigendecompositions suffice.
    Accepts PureState or DensityMatrix on either side.
    """
    if isinstance(rho, PureState) and isinstance(sigma, PureState):
        return fidelity_pure(rho, sigma)
    # One pure argument reduces to an expectation value, which is exact;
    # the general route below would add ~sqrt(eps) noise from the square
    # roots of the rank-deficient inner matrix's junk eigenvalues.
    for pure, other in ((rho, sigma), (sigma, rho)):
        if isinstance(pure, PureState):
            _check_same_dim(pure, other)  # a DensityMatrix: two pure states returned above
            amp = pure.amplitudes
            return _clamp_unit(float(np.real(amp.conj() @ other.matrix @ amp)), "fidelity")
    dm_rho, dm_sigma = _density_pair(rho, sigma)
    values, vectors = dm_sigma.eigensystem()
    sqrt_sigma = (vectors * np.sqrt(values)) @ vectors.conj().T
    vals = hermitian_eigendecomposition(sqrt_sigma @ dm_rho.matrix @ sqrt_sigma)[0]
    vals = np.where(vals > 0.0, vals, 0.0)
    return _clamp_unit(float(np.sum(np.sqrt(vals))) ** 2, "fidelity")


def trace_distance(rho, sigma) -> float:
    """Trace distance, half the trace norm of rho - sigma."""
    dm_rho, dm_sigma = _density_pair(rho, sigma)
    vals = hermitian_eigendecomposition(dm_rho.matrix - dm_sigma.matrix)[0]
    return _clamp_unit(0.5 * float(np.sum(np.abs(vals))), "trace distance")


def _chernoff_objective(rho: DensityMatrix, sigma: DensityMatrix) -> Callable[[float], float]:
    """s -> Tr(rho^s sigma^(1-s)) at O(d^2) per call, with 0^0 = 0.

    With rho = U diag(l) U^dagger and sigma = V diag(m) V^dagger the trace
    is sum_ij l_i^s O_ij m_j^(1-s) for the overlap O = |U^dagger V|^2,
    computed once and restricted to the rank-cut supports of both spectra.
    """
    lam, u = rho.eigensystem()
    mu, v = sigma.eigensystem()
    keep_r = _support_mask(lam)
    keep_s = _support_mask(mu)
    overlap = np.abs(u[:, keep_r].conj().T @ v[:, keep_s]) ** 2
    log_l = np.log(lam[keep_r])
    log_m = np.log(mu[keep_s])

    def objective(s: float) -> float:
        return float(np.exp(s * log_l) @ overlap @ np.exp((1.0 - s) * log_m))

    return objective


def qcb_q(rho, sigma) -> QcbResult:
    """Quantum Chernoff bound Q = min_s Tr(rho^s sigma^(1-s)) on [0, 1].

    Both spectra are decomposed once and the objective is evaluated in the
    spectral-overlap form of `_chernoff_objective`.  The objective is
    convex in s (Audenaert et al., PRL 98, 160501, 2007), so a golden-
    section search over all of [0, 1] to a 1e-10 bracket finds the
    interior minimum; f(0) and f(1) are then compared with it, and ties
    go to the smaller s.  That is about 53 objective calls in all.  For
    commuting states this reduces to the classical Chernoff bound; if
    either state is pure the objective is monotone and the minimum sits
    on an endpoint.  If both are pure it is constant, so no search runs
    and s_star is 0; the same holds, with Q = 1, for two equal matrices,
    whose spectra would otherwise round Q to just below 1.

    Accuracy: eigenvalues carry an absolute error of a few eps, so a
    kept eigenvalue a few decades above the rank cut has lost relative
    accuracy, and Q inherits that loss through l^s at small s*.  On the
    eps-mixtures pinned in tests/test_spectral_pins.py, Q is off the
    exact-spectrum value by at most 2.4e-7 when the smallest kept
    eigenvalue is 1e-12, 2.9e-6 at 1e-13, 7.3e-5 at 1e-14 and 1.9e-4 at
    1e-15 (d = 2 only; at d >= 8 it falls under the cut).  The worst is a
    relative error of 5.8e-4 in the shot count.  A cyclic Jacobi solver
    with a 1e-14 off-diagonal stop is 3-12x closer at d = 2 and 1.4-770x
    further off at d = 8 and 32.
    """
    dm_rho, dm_sigma = _density_pair(rho, sigma)
    objective = _chernoff_objective(dm_rho, dm_sigma)
    evaluations = 0

    def counted(s: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return objective(s)

    ranks = [np.count_nonzero(_support_mask(dm.eigensystem()[0])) for dm in (dm_rho, dm_sigma)]
    if np.array_equal(dm_rho.matrix, dm_sigma.matrix):
        # one state twice: f is 1 on all of [0, 1], however its spectrum rounds
        q_min, s_star = 1.0, 0.0
    elif ranks == [1, 1]:
        # two rank-1 supports: f is the constant |<u|v>|^2, and ties go to s = 0
        q_min, s_star = counted(0.0), 0.0
    else:
        s_in, q_in = minimize_unimodal(counted, 0.0, 1.0, tol.QCB_S_TOL)
        q_min, s_star = min((q_in, s_in), (counted(0.0), 0.0), (counted(1.0), 1.0))
    q = _clamp_unit(q_min, "Chernoff Q")
    # + 0.0 normalizes the -0.0 that -log(1.0) would produce
    exponent = math.inf if q == 0.0 else -math.log(q) + 0.0
    return QcbResult(q=q, s_star=s_star, exponent=exponent, evaluations=evaluations)


def q_bounds_mixed(fid: float) -> tuple[float, float]:
    """Fidelity-only sandwich on Q: 1 - sqrt(1 - F) <= Q <= sqrt(F)."""
    check_range("fidelity", fid, 0, 1)
    return FORMULAS[Formula.MIXED_LOWER].per_shot(fid), math.sqrt(fid)


def fuchs_van_de_graaf_bounds(fid: float) -> tuple[float, float]:
    """Fuchs-van de Graaf bounds on trace distance: 1 - sqrt(F) <= T <= sqrt(1 - F)."""
    check_range("fidelity", fid, 0, 1)
    return 1.0 - math.sqrt(fid), math.sqrt(1.0 - fid)


# ---------------------------------------------------------------------------
# State file format: {"kind": "pure"|"density", "n": qubits,
#                     "data": [[re, im], ...]} with density data row-major.


def parse_state(obj: dict) -> PureState | DensityMatrix:
    """Build a state from its JSON object form, validating invariants."""
    if not isinstance(obj, dict):
        raise InvalidState(f"state document must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in ("pure", "density"):
        raise InvalidState(f'state "kind" must be "pure" or "density", got {kind!r}')
    n = obj.get("n")
    if type(n) is not int or n < 1:  # a bool count is rejected too
        raise InvalidState(f'state "n" must be a positive integer qubit count, got {n!r}')
    data = obj.get("data")
    if not isinstance(data, list):
        raise InvalidState('state "data" must be a list of [re, im] pairs')
    try:
        pairs = [(re, im) for re, im in data]
    except (TypeError, ValueError) as exc:
        raise InvalidState(f'state "data" entries must be [re, im] pairs: {exc}') from None
    flat = np.array([complex(*(json_float('state "data"[%d]', x, InvalidState, args=(i,)) for x in pair))
                     for i, pair in enumerate(pairs)], dtype=np.complex128)
    bad = _first_nonfinite(flat)
    if bad is not None:
        raise InvalidState(f'state "data"[{bad}] is not finite: {data[bad]!r}')
    dim = 2**n
    if kind == "pure":
        if flat.size != dim:
            raise InvalidState(f"pure state on {n} qubits needs {dim} amplitudes, got {flat.size}")
        return PureState(amplitudes=flat)
    if flat.size != dim * dim:
        raise InvalidState(f"density matrix on {n} qubits needs {dim * dim} entries, got {flat.size}")
    return DensityMatrix(matrix=flat.reshape(dim, dim))


def load_state(path: str) -> PureState | DensityMatrix:
    """Load a state file (see parse_state for the schema)."""
    return parse_state(read_json(path, InvalidState))
