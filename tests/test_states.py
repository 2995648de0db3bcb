"""States, fidelity, trace distance, and the Chernoff quantity."""

import copy
import json
import math
import pickle

import numpy as np
import pytest
import scipy.linalg

from shotbudget import (
    DensityMatrix,
    PureState,
    bures_angle,
    fidelity,
    fidelity_pure,
    fuchs_van_de_graaf_bounds,
    load_state,
    parse_state,
    q_bounds_mixed,
    qcb_q,
    trace_distance,
)
from shotbudget import tolerances as tol
from shotbudget.errors import DomainError, InvalidState
from shotbudget.states import _chernoff_objective

from conftest import counting, random_density, random_pure


def numpy_fidelity(rho, sigma):
    """Independent oracle: (tr sqrt(sqrt(sigma) rho sqrt(sigma)))^2 via eigh."""
    lam, u = np.linalg.eigh(sigma)
    root = (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T
    inner = root @ rho @ root
    ev = np.linalg.eigvalsh(inner)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


ZERO = PureState(np.array([1.0, 0.0], dtype=complex))
ONE = PureState(np.array([0.0, 1.0], dtype=complex))
PLUS = PureState(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0))


class TestStateValidation:
    def test_pure_norm_enforced(self):
        with pytest.raises(InvalidState, match="norm"):
            PureState(np.array([1.0, 1.0]))

    def test_pure_dimension_power_of_two(self):
        with pytest.raises(InvalidState):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_trace_enforced(self):
        with pytest.raises(InvalidState, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_density_hermiticity_enforced(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvalidState, match="Hermitian"):
            DensityMatrix(mat)

    def test_density_must_be_square(self):
        with pytest.raises(InvalidState, match=r"^density matrix must be square, got shape \(2, 3\)$"):
            DensityMatrix(np.zeros((2, 3)))

    def test_density_psd_enforced(self):
        with pytest.raises(InvalidState, match="positive semidefinite"):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_non_finite_entries_rejected(self):
        # NaN also passes the norm, trace and Hermiticity tests
        with pytest.raises(InvalidState, match=r"amplitude 1 must be finite, got \(nan\+0j\)"):
            PureState(np.array([1.0, np.nan]))
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = mat[1, 0] = np.inf
        with pytest.raises(InvalidState, match=r"entry \(0, 1\) must be finite, got \(inf\+0j\)"):
            DensityMatrix(mat)

    @pytest.mark.parametrize("build, atol, message", [
        (lambda t: PureState([1.0 + t, 0.0]), tol.NORM_ATOL, "state vector norm "),
        (lambda t: DensityMatrix(np.diag([0.5 + t, 0.5])), tol.TRACE_ATOL, "trace "),
        (lambda t: DensityMatrix([[0.5, t], [0.0, 0.5]]), tol.HERMITICITY_ATOL, "not Hermitian: "),
        (lambda t: DensityMatrix(np.diag([1.0 - t, t])), tol.PSD_CLAMP_FLOOR, "not positive semidefinite: "),
    ], ids=["NORM_ATOL", "TRACE_ATOL", "HERMITICITY_ATOL", "PSD_CLAMP_FLOOR"])
    def test_each_tolerance_holds_at_its_edge(self, build, atol, message):
        # read from tolerances, so a changed constant moves the edge, while a check that
        # compares against another value fails one side
        build(atol / 2)
        with pytest.raises(InvalidState, match=f"^{message}"):
            build(2 * atol)

    @pytest.mark.parametrize("build, message", [
        (lambda: PureState([1e308, 1e308]), "state vector norm inf differs from 1"),
        (lambda: DensityMatrix([[0.5, 1e308], [-1e308, 0.5]]), "not Hermitian: max |rho - rho^dagger| = inf"),
        (lambda: DensityMatrix([[1e308, 0], [0, 1e308]]), "trace (inf+0j) differs from 1"),
        (lambda: DensityMatrix([[0.5, 1e308], [1e308, 0.5]]), "not positive semidefinite: eigenvalue nan"),
    ], ids=["norm", "hermitian", "trace", "spectrum"])
    def test_entries_near_the_float_limit_fail_their_check_without_a_warning(self, build, message):
        # the overflow to inf (and the NaN spectrum eigh makes of it) is named, not warned
        with pytest.raises(InvalidState) as info:
            build()
        assert str(info.value).startswith(message)

    def test_states_hold_a_read_only_copy(self):
        amps, mat = np.array([1.0, 0.0]), np.diag([0.5, 0.5]).astype(complex)
        pure, dm = PureState(amps), DensityMatrix(mat)
        amps[0], mat[0, 0] = 3.0, 3.0  # the caller's arrays, edited after the check
        assert pure.amplitudes[0] == 1.0 and dm.matrix[0, 0] == 0.5
        assert np.array_equal(dm.eigensystem()[0], [0.5, 0.5])
        for array in (pure.amplitudes, dm.matrix, pure.to_density().matrix):
            with pytest.raises(ValueError):
                array[0] = 3.0

    def test_cached_spectrum_is_read_only(self):
        a, b = DensityMatrix(np.diag([0.75, 0.25])), DensityMatrix([[0.5, 0.2], [0.2, 0.5]])
        fid, q = fidelity(b, a), qcb_q(a, b).q
        for dm in (a, b, PureState([0.6, 0.8]).to_density()):  # cached by the PSD check, or on first use
            dm.eigensystem()
            for array in dm._eig:
                with pytest.raises(ValueError):
                    array[:] = 0.0
        assert fidelity(b, a) == fid == pytest.approx(0.897, abs=5e-4) and qcb_q(a, b).q == q

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s, 4))],
                             ids=["copy", "deepcopy", "pickle4"])
    def test_copies_and_pickles_stay_read_only(self, clone):
        pure, checked, unsolved = PureState([0.6, 0.8]), DensityMatrix(np.diag([0.75, 0.25])), ZERO.to_density()
        arrays = [clone(pure).amplitudes, clone(unsolved).matrix, clone(checked).matrix, *clone(checked)._eig]
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert clone(unsolved)._eig is None and clone(checked).eigensystem()[1].flags.writeable is False

    def test_to_density_round_trip(self, rng):
        psi = random_pure(rng, 2)
        rho = psi.to_density()
        assert np.allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert rho.dim == 4


class TestFidelity:
    def test_frozen_zero_plus(self):
        assert fidelity_pure(ZERO, PLUS) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_tilted_pure(self):
        # |psi> at polar angle pi/6 on the Bloch sphere: overlap with |0>
        # is cos^2(pi/12) = (2 + sqrt(3))/4
        tilted = PureState(np.array([math.cos(math.pi / 12.0), math.sin(math.pi / 12.0)]))
        assert fidelity_pure(ZERO, tilted) == pytest.approx(0.9330127018922193, abs=1e-12)

    def test_matches_numpy_oracle_on_mixed_pairs(self, rng):
        for _ in range(25):
            qubits = rng.integers(1, 3)
            rho, sigma = random_density(rng, qubits), random_density(rng, qubits)
            f = fidelity(rho, sigma)
            assert f == pytest.approx(numpy_fidelity(rho.matrix, sigma.matrix), abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            sigma = random_density(rng, 2)
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)

    def test_self_fidelity_is_one(self, rng):
        rho = random_density(rng, 2)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_pure_mixed_agrees_with_expectation_value(self, rng):
        psi = random_pure(rng, 1)
        rho = random_density(rng, 1)
        expect = float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))
        assert fidelity(psi, rho) == pytest.approx(expect, abs=1e-10)

    def test_mixed_input_accepts_pure_wrappers(self, rng):
        psi = random_pure(rng, 1)
        assert fidelity(psi, psi.to_density()) == pytest.approx(1.0, abs=1e-10)


class TestTraceDistance:
    def test_frozen_zero_plus(self):
        assert trace_distance(ZERO, PLUS) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_orthogonal_is_one(self):
        assert trace_distance(ZERO, ONE) == pytest.approx(1.0, abs=1e-12)

    def test_pure_pure_equals_sqrt_one_minus_f(self, rng):
        for _ in range(10):
            a, b = random_pure(rng, 2), random_pure(rng, 2)
            t = trace_distance(a, b)
            assert t == pytest.approx(math.sqrt(1.0 - fidelity_pure(a, b)), abs=1e-9)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            a, b, c = (random_density(rng, 1) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


class TestBoundsAndAngles:
    def test_fuchs_van_de_graaf_frozen(self):
        lo, hi = fuchs_van_de_graaf_bounds(0.75)
        assert lo == pytest.approx(0.1339745962155614, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_fuchs_van_de_graaf_encloses_distance(self, rng):
        for _ in range(25):
            qubits = rng.integers(1, 3)
            rho, sigma = random_density(rng, qubits), random_density(rng, qubits)
            lo, hi = fuchs_van_de_graaf_bounds(fidelity(rho, sigma))
            t = trace_distance(rho, sigma)
            assert lo - 1e-9 <= t <= hi + 1e-9

    def test_q_bounds_frozen(self):
        lo, hi = q_bounds_mixed(0.99)
        assert lo == pytest.approx(0.9, abs=1e-12)
        assert hi == pytest.approx(0.99498743710662, abs=1e-12)

    def test_bures_angle_frozen(self):
        assert bures_angle(0.99) == pytest.approx(0.10016742116155969, abs=1e-12)
        assert bures_angle(1.0) == 0.0


class TestChernoffQuantity:
    def test_pure_pure_collapses_to_fidelity(self, rng):
        for _ in range(10):
            a, b = random_pure(rng, 1), random_pure(rng, 2 if rng.random() < 0.5 else 1)
            if a.dim != b.dim:
                continue
            result = qcb_q(a, b)
            assert result.q == pytest.approx(fidelity_pure(a, b), abs=1e-9)

    def test_pure_pairs_report_s_star_zero_without_search(self, rng):
        # two rank-1 supports make the objective constant on [0, 1]; the
        # tie rule picks s = 0, whether the states come as vectors or matrices
        for _ in range(20):
            qubits = int(rng.integers(1, 6))
            a, b = random_pure(rng, qubits), random_pure(rng, qubits)
            for rho, sigma in ((a, b), (a.to_density(), b.to_density())):
                with counting("objective_calls") as work:
                    result = qcb_q(rho, sigma)
                assert result.s_star == 0.0
                assert work["objective_calls"] == 1
                assert result.q == pytest.approx(fidelity_pure(a, b), abs=1e-12)

    def test_pure_vs_mixed_minimum_sits_at_left_edge(self, rng):
        # rank-1 rho makes s -> tr(rho^s sigma^(1-s)) nondecreasing, so the
        # minimum is the s = 0 overlap <psi|sigma|psi>
        psi = random_pure(rng, 1)
        sigma = random_density(rng, 1)
        result = qcb_q(psi, sigma)
        assert result.q == pytest.approx(fidelity(psi, sigma), abs=1e-9)
        assert result.s_star == pytest.approx(0.0, abs=1e-6)

    def test_commuting_symmetric_pair(self):
        # diagonal (3/4, 1/4) against (1/4, 3/4): symmetry pins s* = 1/2
        # and Q = 2 sqrt(3/16) = sqrt(3)/2
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        sigma = DensityMatrix(np.diag([0.25, 0.75]))
        result = qcb_q(rho, sigma)
        assert result.q == pytest.approx(0.8660254037844386, abs=1e-9)
        assert result.s_star == pytest.approx(0.5, abs=1e-4)
        assert result.exponent == pytest.approx(-math.log(0.8660254037844386), abs=1e-9)

    def test_commuting_matches_scalar_grid(self, rng):
        # independent oracle: for commuting states Q is a plain scalar
        # minimization over the shared eigenbasis
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            grid = np.linspace(0.0, 1.0, 20001)
            vals = [float(np.sum(p**s * q ** (1.0 - s))) for s in grid]
            expected = min(vals)
            result = qcb_q(DensityMatrix(np.diag(p)), DensityMatrix(np.diag(q)))
            assert result.q == pytest.approx(expected, abs=1e-7)

    def test_orthogonal_supports_give_zero(self):
        result = qcb_q(ZERO, ONE)
        assert result.q == 0.0
        assert result.exponent == math.inf

    def test_identical_states_give_one(self, rng):
        rho = random_density(rng, 1)
        result = qcb_q(rho, rho)
        assert result.q == pytest.approx(1.0, abs=1e-10)
        assert result.exponent == pytest.approx(0.0, abs=1e-10)

    def test_equal_matrices_give_exactly_one_without_search(self, rng):
        # the spectra alone would round Q to just below 1
        rho = random_density(rng, 2)
        with counting("objective_calls") as work:
            result = qcb_q(rho, DensityMatrix(rho.matrix.copy()))
        assert (result.q, result.s_star, result.exponent, work["objective_calls"]) == (1.0, 0.0, 0.0, 0)

    def test_sandwich_bounds_hold(self, rng):
        for _ in range(25):
            qubits = rng.integers(1, 3)
            rho, sigma = random_density(rng, qubits), random_density(rng, qubits)
            f = fidelity(rho, sigma)
            lo, hi = q_bounds_mixed(f)
            q = qcb_q(rho, sigma).q
            assert lo - 1e-9 <= q <= hi + 1e-9

    def test_search_cost_is_bounded(self, rng):
        # golden section over [0, 1] to 1e-10 plus the two endpoints;
        # the scan it replaced cost about 78 calls
        for qubits in (1, 2, 3):
            rho, sigma = random_density(rng, qubits), random_density(rng, qubits)
            with counting("objective_calls") as work:
                qcb_q(rho, sigma)
            assert 0 < work["objective_calls"] <= 60

    def test_objective_matches_dense_fractional_powers(self, rng):
        # independent oracle: Tr(rho^s sigma^(1-s)) from scipy's dense
        # fractional matrix powers, no shared spectral code
        for qubits in (1, 2, 3):
            rho = random_density(rng, qubits)
            sigma = random_density(rng, qubits)
            objective = _chernoff_objective(rho, sigma)
            for s in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                dense = scipy.linalg.fractional_matrix_power(rho.matrix, s) @ (
                    scipy.linalg.fractional_matrix_power(sigma.matrix, 1.0 - s)
                )
                assert objective(s) == pytest.approx(np.trace(dense).real, abs=1e-10)


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path, rng):
        psi = random_pure(rng, 2)
        doc = {
            "kind": "pure",
            "n": 2,
            "data": [[float(z.real), float(z.imag)] for z in psi.amplitudes],
        }
        path = tmp_path / "psi.json"
        path.write_text(json.dumps(doc))
        loaded = load_state(str(path))
        assert isinstance(loaded, PureState)
        assert np.allclose(loaded.amplitudes, psi.amplitudes)

    def test_density_round_trip(self, tmp_path, rng):
        rho = random_density(rng, 1)
        flat = rho.matrix.reshape(-1)
        doc = {
            "kind": "density",
            "n": 1,
            "data": [[float(z.real), float(z.imag)] for z in flat],
        }
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(doc))
        loaded = load_state(str(path))
        assert isinstance(loaded, DensityMatrix)
        assert np.allclose(loaded.matrix, rho.matrix)

    def test_rejects_unknown_kind(self):
        with pytest.raises(InvalidState, match="kind"):
            parse_state({"kind": "stabilizer", "n": 1, "data": []})

    def test_rejects_wrong_length(self):
        with pytest.raises(InvalidState, match="amplitudes"):
            parse_state({"kind": "pure", "n": 2, "data": [[1.0, 0.0]]})

    def test_rejects_non_finite_data(self, tmp_path):
        # json.load accepts NaN and Infinity; the error names the entry
        path = tmp_path / "nan.json"
        path.write_text('{"kind": "density", "n": 1, '
                        '"data": [[0.5, 0], [0, 0], [NaN, 0], [0.5, 0]]}')
        with pytest.raises(InvalidState, match=r'"data"\[2\] must be finite, got nan'):
            load_state(str(path))
        with pytest.raises(InvalidState, match=r'"data"\[0\] must be finite, got inf'):
            parse_state({"kind": "pure", "n": 1, "data": [[float("inf"), 0.0], [0.0, 0.0]]})

    def test_rejects_invalid_density(self):
        data = [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.6, 0.0]]
        with pytest.raises(InvalidState, match="trace"):
            parse_state({"kind": "density", "n": 1, "data": data})

    @pytest.mark.parametrize("content", [b"{not json", b'{"n": ' + b"1" * 5000 + b"}", b'{"n": "\xff"}'],
                             ids=["syntax", "integer_past_digit_limit", "not_utf8"])
    def test_rejects_bad_json_file(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(InvalidState, match="not valid JSON"):
            load_state(str(path))
