"""The record types: a type that checks its input checks it on every route
that builds one, no record's field can be assigned, and equality, hash,
repr, copy and pickle behave as they did for the frozen dataclasses."""

import copy
import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import shotbudget
from shotbudget import (
    BlockSpec,
    DensityMatrix,
    Distribution,
    Formula,
    HardwareRates,
    McConfig,
    McResult,
    PureState,
    ShotBounds,
    allocate,
    estimate,
    parse_program_spec,
    qcb_q,
    shots_chisq,
    two_proportion_shots,
)
from shotbudget import cli, states
from shotbudget.errors import DomainError, InvalidState, ShotBudgetError
from shotbudget.shot_estimators import FORMULAS, FormulaRow

LOW, HIGH = estimate(Formula.MIXED_LOWER, 0.9, 0.05), estimate(Formula.MIXED_UPPER, 0.9, 0.05)
PARAMS = cli.TestPlanParams()  # not imported by name: pytest would collect a Test* class

# (type, keyword arguments in field order, error type, message): the messages are
# those the dataclass versions of these types raised
BAD_INPUTS = [
    (HardwareRates, {"r1": float("nan"), "r2": 1e-10}, DomainError,
     "hardware rate r1 must be finite and >= 0, got nan"),
    (HardwareRates, {"r1": 1e-11, "r2": 1e-10, "gamma": -1.0}, DomainError,
     "hardware rate gamma must be finite and >= 0, got -1.0"),
    (BlockSpec, {"name": "a", "multiplicity": 0}, DomainError,
     "block 'a': multiplicity must be an integer >= 1, got 0"),
    (BlockSpec, {"name": "a", "multiplicity": 2.0}, DomainError,
     "block 'a': multiplicity must be an integer >= 1, got 2.0"),
    (BlockSpec, {"name": "a", "multiplicity": 10**400}, DomainError,
     f"block 'a': multiplicity must be finite, got {10**400}"),
    (BlockSpec, {"name": "a", "multiplicity": 1, "g1": 0.0, "g2": -1.0}, DomainError,
     "block 'a': g2 must be finite and >= 0, got -1.0"),
    (BlockSpec, {"name": "a", "multiplicity": 1, "g1": 0.0, "g2": 0.0, "depth": 0.0,
                 "explicit_weight": float("inf")}, DomainError, "block 'a': weight must be finite, got inf"),
    (ShotBounds, {"lower": HIGH, "upper": LOW}, DomainError,
     f"shot bounds inverted: lower {HIGH.raw} > upper {LOW.raw}"),
    (Distribution, {"probs": (1.0,)}, DomainError, "a distribution needs at least 2 bins, got 1"),
    (Distribution, {"probs": (0.5, float("nan"))}, DomainError, "bin 1 probability is not finite: nan"),
    (Distribution, {"probs": (1.5, -0.5)}, DomainError, "negative probability -0.5"),
    (Distribution, {"probs": (0.7, 0.7)}, DomainError, "probabilities sum to 1.4, not 1 within 1.0e-08"),
    (McConfig, {"trials": 0}, DomainError, "trials must be >= 1, got 0"),
    (McConfig, {"trials": 1, "seed": 2**64}, DomainError, f"seed must lie in [0, 2^64), got {2**64}"),
    (cli.CurveRequest, {"curve": "fid_vs_shots", "start": 0.9, "stop": 0.99, "points": 1, "params": PARAMS},
     ShotBudgetError, "curve needs at least 2 points, got 1"),
    (cli.CurveRequest, {"curve": "fid_vs_shots", "start": 0.99, "stop": 0.9, "points": 5, "params": PARAMS},
     ShotBudgetError, "curve needs start < stop, got [0.99, 0.9]"),
    (PureState, {"amplitudes": [1.0, 0.0, 0.0]}, InvalidState,
     "state vector dimension 3 is not 2**n for n >= 1"),
    (PureState, {"amplitudes": [1.0, 1.0]}, InvalidState,
     "state vector norm 1.4142135623730951 differs from 1 beyond 1.0e-10"),
    (DensityMatrix, {"matrix": np.eye(2)}, InvalidState, "trace (2+0j) differs from 1 beyond 1.0e-10"),
    (DensityMatrix, {"matrix": np.diag([1.5, -0.5])}, InvalidState,
     "not positive semidefinite: eigenvalue -5.000e-01 below -1.0e-10"),
]


@pytest.mark.parametrize("cls, kwargs, error, message", BAD_INPUTS,
                         ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(BAD_INPUTS)])
def test_checked_types_reject_bad_input_on_every_route(cls, kwargs, error, message):
    for build in (lambda: cls(**kwargs), lambda: cls(*kwargs.values())):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message
    # no NamedTuple route around the check
    assert not hasattr(cls, "_make") and not hasattr(cls, "_replace")


def _records() -> list:
    """One valid instance of every record type in the package."""
    rates, block = HardwareRates(1e-11, 1e-10), BlockSpec("a", 2, g1=5e4)
    report = allocate([block], rates, 0.99, 0.05)
    spec = parse_program_spec({"fidelity_target": 0.99, "p_e": 0.05, "hardware": {"r1": 1e-11, "r2": 1e-10},
                               "blocks": [{"name": "a", "g1": 5e4}]})
    pure = PureState([0.6, 0.8])
    return [
        LOW, ShotBounds(LOW, HIGH), FORMULAS[Formula.PURE], Distribution((0.25, 0.75)),
        shots_chisq(0.01, 16, 0.01, 0.01), two_proportion_shots(0.99, 0.95, 0.01, 0.01),
        rates, block, report.allocations[0], report, spec,
        PARAMS, cli.CurveRequest("fid_vs_shots", 0.9, 0.99, 5, PARAMS), cli._Result({}, []),
        pure, DensityMatrix(np.diag([0.75, 0.25])), qcb_q(pure, PureState([1.0, 0.0])),
        McConfig(10), McResult(0.5, 10),
    ]


def test_every_record_type_is_covered():
    defined = set()
    for info in pkgutil.iter_modules(shotbudget.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"shotbudget.{info.name}")
            defined |= {value for value in vars(module).values() if isinstance(value, type)
                        and value.__module__ == module.__name__ and hasattr(value, "_fields")}
    assert {type(record) for record in _records()} == defined


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_no_field_can_be_assigned_or_deleted(record):
    assert record._fields
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


def test_checked_records_compare_copy_and_print_as_dataclasses_did():
    rates = HardwareRates(1e-11, 1e-10)
    assert rates == HardwareRates(r1=1e-11, r2=1e-10, gamma=0.0) and rates != HardwareRates(1e-11, 1e-9)
    assert hash(rates) == hash(HardwareRates(1e-11, 1e-10))
    assert repr(rates) == "HardwareRates(r1=1e-11, r2=1e-10, gamma=0.0)"
    assert McConfig(5) != McConfig(5, seed=1) and McConfig(5) != (5, 20_260_822)
    for record in _records():
        if isinstance(record, FormulaRow):
            continue  # its per-shot lambda cannot be pickled
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and clone._fields == record._fields
            if type(record) not in (Distribution, PureState, DensityMatrix):
                assert clone == record
    # these three compare by identity
    dist, pure = Distribution((0.25, 0.75)), PureState([0.6, 0.8])
    assert dist == dist and dist != Distribution((0.25, 0.75))
    assert pure == pure and pure != PureState([0.6, 0.8])
    assert pure.to_density() != pure.to_density()


def test_density_matrix_caches_its_eigensystem(monkeypatch):
    calls, solve = [], states.hermitian_eigendecomposition

    def counted(matrix):
        calls.append(matrix)
        return solve(matrix)

    monkeypatch.setattr(states, "hermitian_eigendecomposition", counted)
    checked = DensityMatrix(np.diag([0.75, 0.25]))  # the PSD check solves once
    projector = PureState([0.6, 0.8]).to_density()  # built unchecked, so not solved yet
    assert len(calls) == 1
    for dm in (checked, projector):
        values, vectors = dm.eigensystem()
        again = dm.eigensystem()
        assert again[1] is vectors and np.array_equal(again[0], values)
    assert len(calls) == 2
    clone = copy.deepcopy(checked)  # the cache travels with a copy
    clone.eigensystem()
    assert len(calls) == 2
