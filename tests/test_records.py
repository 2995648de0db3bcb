"""The record types: a type that checks its input checks it on every route
that builds one, no record's field can be assigned, and equality, hash,
repr, copy and pickle behave as they did for the frozen dataclasses."""

import copy
import importlib
import json
import math
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
    ProgramSpec,
    PureState,
    ShotBounds,
    allocate,
    allocate_program,
    estimate,
    parse_program_spec,
    qcb_q,
    shots_chisq,
    simulate_inverse_miss_rate,
    two_proportion_shots,
)
from shotbudget import budget, cli, states
from shotbudget.errors import DomainError, InvalidState, ShotBudgetError
from shotbudget.shot_estimators import FORMULAS, FormulaRow

LOW, HIGH = estimate(Formula.MIXED_LOWER, 0.9, 0.05), estimate(Formula.MIXED_UPPER, 0.9, 0.05)
PARAMS = cli.TestPlanParams()  # not imported by name: pytest would collect a Test* class
RATES = HardwareRates(1e-11, 1e-10)


def _spec(hardware=RATES, chisq_bins=16, **changes) -> dict:
    """ProgramSpec keyword arguments in field order: one block 'a', with `changes` to its columns."""
    columns = {"name": ("a",), "multiplicity": (1,), "g1": (5e4,), "g2": (1e4,), "depth": (0.0,),
               "explicit_weight": (None,), **changes}
    return {"fidelity_target": 0.99, "p_e": 0.05, "regime_factor": 1.0, "hardware": hardware,
            "columns": columns, "chisq_bins": chisq_bins}


# (type, keyword arguments in field order, error type, message): the messages are
# those the dataclass versions of these types raised
BAD_INPUTS = [
    (HardwareRates, {"r1": float("nan"), "r2": 1e-10}, DomainError,
     "hardware rate r1 must be finite and >= 0, got nan"),
    (HardwareRates, {"r1": 1e-11, "r2": 1e-10, "gamma": -1.0}, DomainError,
     "hardware rate gamma must be finite and >= 0, got -1.0"),
    (BlockSpec, {"name": "a", "multiplicity": 0}, DomainError,
     "block 'a': multiplicity must be >= 1, got 0"),
    (BlockSpec, {"name": "a", "multiplicity": 2.0}, DomainError,
     "block 'a': multiplicity: expected an integer, got 2.0"),
    (BlockSpec, {"name": "a", "multiplicity": 10**400}, DomainError,
     f"block 'a': multiplicity must be finite, got {10**400}"),
    (BlockSpec, {"name": "a", "multiplicity": 1, "g1": 0.0, "g2": -1.0}, DomainError,
     "block 'a': g2 must be finite and >= 0, got -1.0"),
    (BlockSpec, {"name": "a", "multiplicity": 1, "g1": 0.0, "g2": 0.0, "depth": 0.0,
                 "explicit_weight": float("inf")}, DomainError, "block 'a': weight must be finite, got inf"),
    (ShotBounds, {"lower": HIGH, "upper": LOW}, DomainError,
     f"shot bounds inverted: lower {HIGH.raw} > upper {LOW.raw}"),
    (Distribution, {"probs": (1.0,)}, DomainError, "a distribution needs at least 2 bins, got 1"),
    (Distribution, {"probs": (0.5, float("nan"))}, DomainError, "bin 1 probability must be finite and >= 0, got nan"),
    (Distribution, {"probs": (1.5, -0.5)}, DomainError, "bin 1 probability must be finite and >= 0, got -0.5"),
    (Distribution, {"probs": (0.7, 0.7)}, DomainError, "probabilities sum to 1.4, not 1 within 1.0e-08"),
    (McConfig, {"trials": 0}, DomainError, "trials must be >= 1, got 0"),
    (McConfig, {"trials": 1, "seed": 2**64}, DomainError, f"seed must lie in [0, 2^64), got {2**64}"),
    (cli.CurveRequest, {"curve": "fid_vs_shots", "start": 0.9, "stop": 0.99, "points": 1, "params": PARAMS},
     DomainError, "curve points must be >= 2, got 1"),
    (cli.CurveRequest, {"curve": "fid_vs_shots", "start": 0.99, "stop": 0.9, "points": 5, "params": PARAMS},
     ShotBudgetError, "curve needs start < stop, got [0.99, 0.9]"),
    (PureState, {"amplitudes": [1.0, 0.0, 0.0]}, InvalidState,
     "state vector dimension 3 is not 2**n for n >= 1"),
    (PureState, {"amplitudes": [1.0, 1.0]}, InvalidState,
     "state vector norm 1.4142135623730951 differs from 1 beyond 1.0e-10"),
    (DensityMatrix, {"matrix": np.eye(2)}, InvalidState, "trace (2+0j) differs from 1 beyond 1.0e-10"),
    (DensityMatrix, {"matrix": np.diag([1.5, -0.5])}, InvalidState,
     "not positive semidefinite: eigenvalue -5.000e-01 below -1.0e-10"),
    # a hand-built spec's blocks obey BlockSpec's rules, its other fields allocate's
    (ProgramSpec, _spec(multiplicity=(10**400,)), DomainError,
     f"block 'a': multiplicity must be finite, got {10**400}"),
    (ProgramSpec, _spec(multiplicity=(2.5,)), DomainError, "block 'a': multiplicity: expected an integer, got 2.5"),
    (ProgramSpec, _spec(name=(3,)), DomainError, "block name: expected a nonempty string, got 3"),
    (ProgramSpec, _spec(g1=(5e4, 1.0)), DomainError, "columns: 'g1' has 2 entries for 1 blocks"),
    (ProgramSpec, _spec(chisq_bins=2.5), DomainError, "bins: expected an integer, got 2.5"),
    (ProgramSpec, _spec(chisq_bins=2**22 + 2), DomainError, "bins must lie in [2, 4194305], got 4194306"),
    (ProgramSpec, {**_spec(), "columns": [("a",)]}, DomainError,
     f"columns: expected one column for each BlockSpec field {BlockSpec._fields}"),
    (ProgramSpec, {**_spec(), "chisq_alpha": 0.6, "chisq_beta": 0.5}, DomainError,
     "power must lie in (alpha, 1), got 0.5"),  # allocate's rule, checked when the spec is built
    (ProgramSpec, _spec(hardware={"r1": 0.0, "r2": 0.0}), DomainError, "hardware: expected HardwareRates, got dict"),
    (ProgramSpec, _spec(name=("a", "b"), multiplicity=(1, 1), g1=(5e4, float("nan")), g2=(1e4, 1e4),
                        depth=(0.0, 0.0), explicit_weight=(None, None)), DomainError,
     "block 'b': g1 must be finite and >= 0, got nan"),  # a NaN that min and max pass over
    # the spec file's number rule: a bool is no number
    (HardwareRates, {"r1": "x", "r2": 0}, DomainError, "hardware rate r1: expected a number, got 'x'"),
    (HardwareRates, {"r1": True, "r2": 0}, DomainError, "hardware rate r1: expected a number, got True"),
    (BlockSpec, {"name": "a", "multiplicity": 1, "g1": "x"}, DomainError,
     "block 'a': g1: expected a number, got 'x'"),
    (BlockSpec, {"name": "a", "multiplicity": 1, "g1": 0.0, "g2": 0.0, "depth": 0.0, "explicit_weight": "1"},
     DomainError, "block 'a': weight: expected a number, got '1'"),
    (BlockSpec, {"name": "", "multiplicity": 1}, DomainError, "block name: expected a nonempty string, got ''"),
    (BlockSpec, {"name": 3, "multiplicity": 1}, DomainError, "block name: expected a nonempty string, got 3"),
    # a curve's grid bounds are finite
    (cli.CurveRequest, {"curve": "fid_vs_shots", "start": 0.9, "stop": math.inf, "points": 5, "params": PARAMS},
     DomainError, "curve stop must be finite, got inf"),
    (cli.CurveRequest, {"curve": "fid_vs_shots", "start": -math.inf, "stop": 0.9, "points": 5, "params": PARAMS},
     DomainError, "curve start must be finite, got -inf"),
    (cli.CurveRequest, {"curve": "fid_vs_shots", "start": math.nan, "stop": 0.9, "points": 5, "params": PARAMS},
     DomainError, "curve start must be finite, got nan"),  # checked before the order test
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


def test_a_checked_spec_stays_checked(monkeypatch):
    spec = ProgramSpec(**_spec(multiplicity=(3,)))
    totals = allocate_program(spec).totals
    with pytest.raises(TypeError):
        spec.columns["multiplicity"] = (2.5,)
    assert spec.columns["multiplicity"] == (3,) and allocate_program(spec).totals == totals
    calls, check = [], budget._checked_columns
    monkeypatch.setattr(budget, "_checked_columns", lambda columns: calls.append(columns) or check(columns))
    for clone in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert clone == spec and clone.columns is not spec.columns
        with pytest.raises(TypeError):
            clone.columns["multiplicity"] = (2.5,)
    assert len(calls) == 3  # each copy was built and checked anew


def test_records_store_the_python_ints_their_checks_return():
    # a numpy count or number is kept as the Python int or float it equals, so what is built
    # on it serializes
    result = simulate_inverse_miss_rate(0.9, 5, McConfig(np.int64(1000)))
    assert json.loads(json.dumps(result._asdict())) == {**result._asdict(), "warnings": []}
    chisq = shots_chisq(np.float32(0.01), np.int64(16), np.float64(0.01), np.float32(0.01))
    binomial = two_proportion_shots(np.float32(0.99), np.float32(0.9), np.float64(0.01), np.float32(0.01))
    for plan in (chisq, binomial):
        assert json.loads(json.dumps(plan._asdict())) == plan._asdict()
        assert {type(value) for value in plan} <= {int, float, bool}, plan
    config = McConfig(np.uint64(10), seed=np.int64(3))
    request = cli.CurveRequest("fid_vs_shots", 0.9, 0.99, np.int64(5), PARAMS)
    spec = ProgramSpec(**_spec(multiplicity=(np.int64(3),), chisq_bins=np.int32(16)))
    counts = (config.trials, config.seed, request.points, BlockSpec("a", np.int16(2)).multiplicity,
              spec.columns["multiplicity"][0], spec.chisq_bins)
    assert counts == (10, 3, 5, 2, 3, 16) and {type(count) for count in counts} == {int}
