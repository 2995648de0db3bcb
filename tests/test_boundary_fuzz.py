"""The boundary gate: mutated state, distribution and spec files, and edge values on
every numeric flag, run in process through `cli.main`.  Every case exits 0, 1, 2 or 3;
no exception leaves main (it turns each ShotBudgetError into exit 2 or 3, and argparse
exits 2), and nothing warns.  Below the CLI, every public entry that takes a count or a
real number, and both state constructors, are driven directly, where argparse's `int`
and `float` do not stand in front of them."""

import ast
import contextlib
import copy
import io
import json
import math
import pathlib
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import deadline
from shotbudget import (
    BlockSpec,
    DensityMatrix,
    Distribution,
    Formula,
    HardwareRates,
    McConfig,
    ProgramSpec,
    PureState,
    ShotBudgetError,
    allocate,
    binomial_cdf,
    binomial_decision,
    binomial_rejection_threshold,
    bures_angle,
    chisq_noncentrality,
    chisq_validity,
    estimate,
    fuchs_van_de_graaf_bounds,
    lambda_noncentral,
    parse_distribution,
    parse_program_spec,
    parse_state,
    q_bounds_mixed,
    shots_chisq,
    shots_inverse_ideal,
    shots_swap_ideal,
    simulate_binomial_detection,
    simulate_chisq_power,
    simulate_inverse_miss_rate,
    simulate_swap_miss_rate,
    two_proportion_shots,
    w2_fidelity_attaining,
    w2_small_discrepancy,
)
import shotbudget
from shotbudget import cli
from shotbudget.errors import DomainError, InvalidState, check_range

EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, 1e308, 1.0 - 2.0**-53]
EDGE_INTS = [2**62, 2**63 - 1, 2**63, 2**64, 10**30]
NOT_NUMBERS = [True, False, None, "0.5", "", [], {}]

STATES = [
    {"kind": "pure", "n": 1, "data": [[1, 0], [0, 0]]},
    {"kind": "pure", "n": 2, "data": [[0.5, 0], [0.5, 0], [0.5, 0], [0, 0.5]]},
    {"kind": "density", "n": 1, "data": [[0.7, 0], [0.1, 0.05], [0.1, -0.05], [0.3, 0]]},
]
DISTRIBUTIONS = [[0.3, 0.7], [0.25, 0.25, 0.25, 0.25]]
SPEC = {
    "fidelity_target": 0.99, "p_e": 0.05, "regime_factor": 1.0,
    "chisq": {"bins": 16, "alpha": 0.01, "beta": 0.01},
    "hardware": {"r1": 1e-3, "r2": 1e-2, "gamma": 1e-4},
    "blocks": [{"name": "A", "multiplicity": 3, "g1": 5, "g2": 2, "depth": 4},
               {"name": "B", "g1": 1.5, "weight": 0.25}],
}


def _run(argv: list[str]) -> int:
    """cli.main's exit code; any exception or warning fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: a value its type cannot read
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    return code


def _slots(doc, path=()):
    """The path of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


def _mutated(doc, rng: random.Random):
    """doc with one to three slots set to an edge value or a wrong type, or dropped."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_slots(doc)))
        *head, key = path
        parent = doc
        for step in head:
            parent = parent[step]
        if isinstance(parent, dict) and rng.random() < 0.15:
            del parent[key]
            continue
        parent[key] = rng.choice(EDGE_FLOATS + EDGE_INTS + NOT_NUMBERS + [-1, 0, 1, 2, 64])
    return doc


def test_mutated_files_exit_with_a_code(tmp_path):
    rng = random.Random(20_261_019)
    good_state, good_dist = tmp_path / "state.json", tmp_path / "dist.json"
    good_state.write_text(json.dumps(STATES[0]))
    good_dist.write_text(json.dumps(DISTRIBUTIONS[0]))
    bad = tmp_path / "bad.json"
    codes = set()
    for _ in range(400):
        bad.write_text(json.dumps(_mutated(rng.choice(STATES), rng)))
        codes.add(_run(["qcb", str(bad), str(good_state), "--pe", "0.05", "--json"]))
        bad.write_text(json.dumps(_mutated(rng.choice(DISTRIBUTIONS), rng)))
        codes.add(_run(["chisq", "--p", str(bad), "--q", str(good_dist)]))
        codes.add(_run(["validate", "--scenario", "chisq", "--p", str(good_dist), "--q", str(bad),
                        "--shots", "5", "--trials", "10"]))
        bad.write_text(json.dumps(_mutated(SPEC, rng)))
        codes.add(_run(["budget", "--spec", str(bad), "--out", rng.choice(["table", "json", "csv"])]))
    assert {0, 2} <= codes  # the mutations leave some files valid


# One working command line per scenario; each numeric flag is set in turn.
COMMANDS = [
    ["shots", "--fidelity", "0.99"],
    ["shots", "--trace-distance", "0.1"],
    ["qcb", "{a}", "{b}", "--pe", "0.05"],
    ["chisq", "--w2", "0.01"],
    ["chisq", "--fidelity", "0.99"],
    ["chisq", "--p", "{p}", "--q", "{q}"],
    ["noise", "plan", "--q0", "0.99", "--q1", "0.9"],
    ["noise", "decide", "--q0", "0.99", "--zeros", "3", "--shots", "9"],
    ["validate", "--scenario", "inverse", "--fidelity", "0.9", "--shots", "5", "--trials", "20"],
    ["validate", "--scenario", "swap", "--fidelity", "0.9", "--shots", "5", "--trials", "20"],
    ["validate", "--scenario", "chisq", "--p", "{p}", "--q", "{q}", "--shots", "5", "--trials", "20"],
    ["validate", "--scenario", "binomial", "--q0", "0.99", "--q1", "0.9", "--shots", "5", "--trials", "20"],
    ["curve", "fid_vs_shots", "--points", "3"],
    ["curve", "test_comparison", "--points", "3"],
    ["curve", "noise_binomial", "--points", "3"],
    ["curve", "trace_vs_shots", "--points", "3"],
]
# The run time of validate and curve grows with these counts by design (ROADMAP,
# "Out of scope"), so here they take only small values and values of 2^63 or more, which
# must fail before any draw or row.  This bounds the gate's time; it hides no defect.
WORK_FLAGS = {"--shots", "--trials", "--points"}


def _is_work(base: list[str], flag: str) -> bool:
    return base[0] in ("validate", "curve") and flag in WORK_FLAGS


def _flag_cases():
    for base in COMMANDS:
        for flag, options in cli._COMMANDS[base[0]][2]:
            kind = options.get("type")
            if flag.startswith("--") and kind in (int, float):
                values = [v for v in [-1, 0, 1, 2, *EDGE_INTS]
                          if not _is_work(base, flag) or v < 2**62 or v >= 2**63]
                yield base, flag, EDGE_FLOATS + values if kind is float else values


@pytest.mark.parametrize("base, flag, values", list(_flag_cases()),
                         ids=lambda case: case if isinstance(case, str) else None)
def test_every_numeric_flag_exits_with_a_code(base, flag, values, tmp_path):
    files = {"a": STATES[0], "b": STATES[2], "p": DISTRIBUTIONS[0], "q": [0.5, 0.5]}
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [arg.format(**{name: str(tmp_path / f"{name}.json") for name in files}) for arg in base]
    for value in values:
        case = list(argv)
        if flag in case:
            del case[case.index(flag):case.index(flag) + 2]
        # a work count that passes its check runs until the alarm, not forever
        with deadline(1) if _is_work(base, flag) else contextlib.nullcontext():
            code = _run(case + [f"{flag}={value}"])
        if _is_work(base, flag) and value >= 2**63:
            assert code == 2, (case, flag, value)


# Every public entry that takes a count: (id, the field its message names, a valid count k,
# the least valid count, a call with the count as its one free argument).
_P, _Q, _TRIALS = Distribution([0.3, 0.7]), Distribution([0.5, 0.5]), McConfig(50, seed=7)
_RATES = HardwareRates(1e-3, 1e-2)


def _spec(multiplicity=2, g1=5.0, **fields) -> ProgramSpec:
    columns = {"name": ("a",), "multiplicity": (multiplicity,), "g1": (g1,), "g2": (2.0,), "depth": (0.0,),
               "explicit_weight": (None,)}
    return ProgramSpec(**{"fidelity_target": 0.99, "p_e": 0.05, "regime_factor": 1.0, "hardware": _RATES,
                          "columns": columns, **fields})


COUNT_ENTRIES = [
    ("McConfig-trials", "trials", 3, 1, lambda v: McConfig(v)),
    ("McConfig-seed", "seed", 5, 0, lambda v: McConfig(3, seed=v)),
    ("inverse-n_shots", "n_shots", 5, 1, lambda v: simulate_inverse_miss_rate(0.9, v, _TRIALS)),
    ("swap-n_shots", "n_shots", 5, 1, lambda v: simulate_swap_miss_rate(0.9, v, _TRIALS)),
    ("chisq-n_shots", "n_shots", 5, 1, lambda v: simulate_chisq_power(_P, _Q, v, 0.05, _TRIALS)),
    ("binomial-n_shots", "shot count", 5, 1, lambda v: simulate_binomial_detection(0.99, 0.9, v, 0.05, _TRIALS)),
    ("binomial_cdf-n", "shot count", 10, 1, lambda v: binomial_cdf(3, v, 0.5)),
    ("binomial_cdf-count", "observed count", 3, 0, lambda v: binomial_cdf(v, 10, 0.5)),
    ("binomial_decision-n", "shot count", 10, 1, lambda v: binomial_decision(3, v, 0.9, 0.05)),
    ("binomial_decision-count", "observed count", 3, 0, lambda v: binomial_decision(v, 10, 0.9, 0.05)),
    ("threshold-n", "shot count", 100, 1, lambda v: binomial_rejection_threshold(v, 0.99, 0.05)),
    ("shots_chisq-bins", "bins", 16, 2, lambda v: shots_chisq(0.01, v, 0.01, 0.01)),
    ("chisq_noncentrality-bins", "bins", 16, 2, lambda v: chisq_noncentrality(v, 0.01, 0.01)),
    ("lambda_noncentral-df", "degrees of freedom", 15, 1, lambda v: lambda_noncentral(v, 0.01, 0.99)),
    ("chisq_validity-n_shots", "shot count", 12, 1, lambda v: chisq_validity(v, _Q)),
    ("BlockSpec-multiplicity", "multiplicity", 2, 1, lambda v: BlockSpec("a", v, g1=1.0)),
    ("ProgramSpec-multiplicity", "multiplicity", 2, 1, lambda v: _spec(multiplicity=v)),
    ("ProgramSpec-bins", "bins", 16, 2, lambda v: _spec(chisq_bins=v)),
    ("CurveRequest-points", "points", 5, 2,
     lambda v: cli.CurveRequest("fid_vs_shots", 0.9, 0.99, v, cli.TestPlanParams())),
    ("parse_state-n", 'state "n"', 1, 1,  # a state's equality is identity, so its amplitudes stand in
     lambda v: parse_state({"kind": "pure", "n": v, "data": [[1, 0], [0, 0]]}).amplitudes.tolist()),
]
NOT_COUNTS = [2.5, True, False, np.True_, np.float64(3.0), "3", None]


@pytest.mark.parametrize("field, k, least, call", [entry[1:] for entry in COUNT_ENTRIES],
                         ids=[entry[0] for entry in COUNT_ENTRIES])
def test_every_count_takes_integers_only(field, k, least, call):
    # a bad count raises a typed error naming its field, at once; a numpy integer is the
    # Python int it equals
    for value in NOT_COUNTS + [v for v in (-1, 0) if v < least]:
        with deadline(1), pytest.raises(ShotBudgetError) as info:
            call(value)
        assert field in str(info.value), (value, str(info.value))
    with deadline(1):
        expected = call(k)
        assert call(np.int64(k)) == expected and call(np.uint64(k)) == expected


# Every public entry that takes a real number: (id, the field its message names, a valid
# value, a call with the number as its one free argument).
def _block(**number) -> BlockSpec:
    return BlockSpec("a", 2, **{"g1": 5.0, "g2": 2.0, **number})


def _spec_doc(**numbers) -> dict:
    return {"fidelity_target": 0.99, "p_e": 0.05, "hardware": {"r1": 1e-3, "r2": 1e-2},
            "blocks": [{"name": "a", "g1": 5}], **numbers}


_BLOCKS = [_block()]
NUMBER_ENTRIES = [
    ("estimate-x", "fidelity", 0.9, lambda v: estimate(Formula.PURE, v, 0.05)),
    ("estimate-p_e", "error probability", 0.05, lambda v: estimate(Formula.PURE, 0.9, v)),
    ("estimate-regime_factor", "regime factor", 1.5, lambda v: estimate(Formula.INVERSE_REAL, 0.9, 0.05, v)),
    ("shots_inverse_ideal-fid", "fidelity", 0.9, lambda v: shots_inverse_ideal(v, 0.05)),
    ("shots_inverse_ideal-p_e", "error probability", 0.05, lambda v: shots_inverse_ideal(0.9, v)),
    ("shots_swap_ideal-fid", "fidelity", 0.9, lambda v: shots_swap_ideal(v, 0.05)),
    ("shots_swap_ideal-p_e", "error probability", 0.05, lambda v: shots_swap_ideal(0.9, v)),
    ("fuchs_van_de_graaf_bounds-fid", "fidelity", 0.9, fuchs_van_de_graaf_bounds),
    ("q_bounds_mixed-fid", "fidelity", 0.9, q_bounds_mixed),
    ("bures_angle-fid", "fidelity", 0.9, bures_angle),
    ("w2_small_discrepancy-fid", "fidelity", 0.9, w2_small_discrepancy),
    ("w2_fidelity_attaining-fid", "fidelity", 0.9, w2_fidelity_attaining),
    ("lambda_noncentral-alpha", "alpha", 0.01, lambda v: lambda_noncentral(15, v, 0.99)),
    ("lambda_noncentral-power", "power", 0.99, lambda v: lambda_noncentral(15, 0.01, v)),
    ("chisq_noncentrality-alpha", "alpha", 0.01, lambda v: chisq_noncentrality(16, v, 0.01)),
    ("chisq_noncentrality-beta", "beta", 0.01, lambda v: chisq_noncentrality(16, 0.01, v)),
    ("shots_chisq-w2", "w^2", 0.01, lambda v: shots_chisq(v, 16, 0.01, 0.01)),
    ("shots_chisq-alpha", "alpha", 0.01, lambda v: shots_chisq(0.01, 16, v, 0.01)),
    ("shots_chisq-beta", "beta", 0.01, lambda v: shots_chisq(0.01, 16, 0.01, v)),
    ("two_proportion_shots-q0", "q0", 0.99, lambda v: two_proportion_shots(v, 0.9, 0.01, 0.01)),
    ("two_proportion_shots-q1", "q1", 0.9, lambda v: two_proportion_shots(0.99, v, 0.01, 0.01)),
    ("two_proportion_shots-alpha", "alpha", 0.01, lambda v: two_proportion_shots(0.99, 0.9, v, 0.01)),
    ("two_proportion_shots-beta", "beta", 0.01, lambda v: two_proportion_shots(0.99, 0.9, 0.01, v)),
    ("binomial_cdf-q", "success probability", 0.5, lambda v: binomial_cdf(3, 10, v)),
    ("binomial_decision-q0", "success probability", 0.9, lambda v: binomial_decision(3, 10, v, 0.05)),
    ("binomial_decision-alpha", "alpha", 0.05, lambda v: binomial_decision(3, 10, 0.9, v)),
    ("threshold-q0", "baseline q0", 0.99, lambda v: binomial_rejection_threshold(100, v, 0.05)),
    ("threshold-alpha", "alpha", 0.05, lambda v: binomial_rejection_threshold(100, 0.99, v)),
    ("Distribution-entry", "bin 1 probability", 0.5, lambda v: Distribution([0.5, v]).probs),
    ("parse_distribution-entry", "bin 1 probability", 0.5, lambda v: parse_distribution([0.5, v]).probs),
    ("parse_state-entry", 'state "data"[0]', 1.0,
     lambda v: parse_state({"kind": "pure", "n": 1, "data": [[v, 0], [0, 0]]}).amplitudes.tolist()),
    ("inverse-fid", "fidelity", 0.9, lambda v: simulate_inverse_miss_rate(v, 5, _TRIALS)),
    ("swap-fid", "fidelity", 0.9, lambda v: simulate_swap_miss_rate(v, 5, _TRIALS)),
    ("chisq_power-alpha", "alpha", 0.05, lambda v: simulate_chisq_power(_P, _Q, 5, v, _TRIALS)),
    ("binomial_detection-q0", "baseline q0", 0.99, lambda v: simulate_binomial_detection(v, 0.9, 5, 0.05, _TRIALS)),
    ("binomial_detection-q1", "true rate q1", 0.9, lambda v: simulate_binomial_detection(0.99, v, 5, 0.05, _TRIALS)),
    ("binomial_detection-alpha", "alpha", 0.05, lambda v: simulate_binomial_detection(0.99, 0.9, 5, v, _TRIALS)),
    ("HardwareRates-r1", "rate r1", 1e-3, lambda v: HardwareRates(v, 1e-2)),
    ("HardwareRates-r2", "rate r2", 1e-2, lambda v: HardwareRates(1e-3, v)),
    ("HardwareRates-gamma", "rate gamma", 1e-4, lambda v: HardwareRates(1e-3, 1e-2, v)),
    ("BlockSpec-g1", "g1", 5.0, lambda v: _block(g1=v)),
    ("BlockSpec-g2", "g2", 2.0, lambda v: _block(g2=v)),
    ("BlockSpec-depth", "depth", 3.0, lambda v: _block(depth=v)),
    ("BlockSpec-weight", "weight", 0.25, lambda v: _block(explicit_weight=v)),
    ("parse_program_spec-weight", "/blocks/0/weight", 0.25,  # a null weight is no number in a file
     lambda v: parse_program_spec(_spec_doc(blocks=[{"name": "a", "weight": v}]))),
    ("ProgramSpec-g1", "g1", 5.0, lambda v: _spec(g1=v)),
    ("ProgramSpec-fidelity_target", "program fidelity target", 0.99, lambda v: _spec(fidelity_target=v)),
    ("ProgramSpec-p_e", "error probability", 0.05, lambda v: _spec(p_e=v)),
    ("ProgramSpec-regime_factor", "regime factor", 1.5, lambda v: _spec(regime_factor=v)),
    ("ProgramSpec-chisq_alpha", "alpha", 0.01, lambda v: _spec(chisq_alpha=v)),
    ("ProgramSpec-chisq_beta", "beta", 0.01, lambda v: _spec(chisq_beta=v)),
    ("allocate-f_prog", "program fidelity target", 0.99, lambda v: allocate(_BLOCKS, _RATES, v, 0.05)),
    ("allocate-p_e", "error probability", 0.05, lambda v: allocate(_BLOCKS, _RATES, 0.99, v)),
    ("allocate-regime_factor", "regime factor", 1.5, lambda v: allocate(_BLOCKS, _RATES, 0.99, 0.05, v)),
    ("allocate-chisq_alpha", "alpha", 0.01, lambda v: allocate(_BLOCKS, _RATES, 0.99, 0.05, chisq_alpha=v)),
    ("allocate-chisq_beta", "beta", 0.01, lambda v: allocate(_BLOCKS, _RATES, 0.99, 0.05, chisq_beta=v)),
    ("parse_program_spec-p_e", "/p_e", 0.05, lambda v: parse_program_spec(_spec_doc(p_e=v))),
    ("CurveRequest-start", "curve start", 0.9,
     lambda v: cli.CurveRequest("fid_vs_shots", v, 0.99, 5, cli.TestPlanParams())),
    ("CurveRequest-stop", "curve stop", 0.99,
     lambda v: cli.CurveRequest("fid_vs_shots", 0.9, v, 5, cli.TestPlanParams())),
]
NOT_REALS = [True, False, np.True_, "0.5", None, 1j, np.complex64(1)]


@pytest.mark.parametrize("field, v, call", [entry[1:] for entry in NUMBER_ENTRIES],
                         ids=[entry[0] for entry in NUMBER_ENTRIES])
def test_every_number_takes_real_numbers_only(field, v, call):
    # a bad number raises a typed error naming its field, at once; a numpy scalar is the
    # Python float it equals
    for value in NOT_REALS:
        if value is None and field == "weight":
            continue  # BlockSpec's absent weight
        with deadline(1), pytest.raises(ShotBudgetError) as info:
            call(value)
        assert field in str(info.value), (value, str(info.value))
    with deadline(1):
        assert call(np.float32(v)) == call(float(np.float32(v))) and call(np.float64(v)) == call(v)


@pytest.mark.parametrize("field, v, call", [entry[1:] for entry in NUMBER_ENTRIES],
                         ids=[entry[0] for entry in NUMBER_ENTRIES])
def test_every_number_beyond_float_range_is_not_finite(field, v, call):
    # float() of such a Fraction overflows; the rule reads it as a number that is not finite
    for value in (Fraction(10**400), Fraction(-(10**400), 3)):
        with deadline(1), pytest.raises(ShotBudgetError) as info:
            call(value)
        assert field in str(info.value) and "finite" in str(info.value), (value, str(info.value))


@pytest.mark.parametrize("kind, low, high", [(float, None, None), (float, 0, 1), (complex, None, None)],
                         ids=["float", "float-interval", "complex"])
def test_check_range_reads_a_fraction_beyond_float_range_as_not_finite(kind, low, high):
    with pytest.raises(DomainError, match=r"^x must be finite, got 10{400}$"):
        check_range("x", Fraction(10**400), low, high, kind=kind)


# Both state constructors, fed as a list and as an ndarray of objects: (id, the entry its
# message names, a call that builds a state, and reads its entries, with the entry as its
# one free argument; 1/2 makes a valid state).
STATE_ENTRIES = [
    ("PureState-list", "amplitude 3", lambda v: PureState([0.5, 0.5, 0.5, v]).amplitudes.tolist()),
    ("PureState-ndarray", "amplitude 3",
     lambda v: PureState(np.array([0.5, 0.5, 0.5, v], dtype=object)).amplitudes.tolist()),
    ("DensityMatrix-list", "density matrix entry (1, 1)", lambda v: DensityMatrix([[0.5, 0], [0, v]]).matrix.tolist()),
    ("DensityMatrix-ndarray", "density matrix entry (1, 1)",
     lambda v: DensityMatrix(np.array([[0.5, 0], [0, v]], dtype=object)).matrix.tolist()),
]
# a ragged nesting is an entry that is a list; an int or Fraction beyond float range is a
# number that is not finite
NOT_ENTRIES = ["1", True, np.True_, None, {"a": 1}, [0.5], 10**400, Fraction(10**400)]


@pytest.mark.parametrize("entry, call", [entry[1:] for entry in STATE_ENTRIES],
                         ids=[entry[0] for entry in STATE_ENTRIES])
def test_every_state_entry_takes_numbers_only(entry, call):
    # an entry that is no number raises InvalidState naming it, at once, before numpy
    # converts it; a numpy complex or a Fraction builds the state its Python complex builds
    for value in NOT_ENTRIES:
        with deadline(1), pytest.raises(InvalidState) as info:
            call(value)
        assert re.match(rf"{re.escape(entry)}(: expected a number| must be finite), got ", str(info.value)), (
            value, str(info.value))
    with deadline(1):
        for value in (np.complex64(0.5), Fraction(1, 2)):
            assert call(value) == call(complex(value)), value


@pytest.mark.parametrize("build, entry", [
    (lambda: PureState(np.array([True, False])), "amplitude 0"),
    (lambda: PureState(np.array(["1", "0"])), "amplitude 0"),
    (lambda: DensityMatrix(np.array([[True, False], [False, False]])), "density matrix entry (0, 0)"),
    (lambda: DensityMatrix(np.array([["1", "0"], ["0", "0"]])), "density matrix entry (0, 0)"),
], ids=["PureState-bool", "PureState-str", "DensityMatrix-bool", "DensityMatrix-str"])
def test_bool_and_string_arrays_are_no_state(build, entry):
    with deadline(1), pytest.raises(InvalidState, match=rf"^{re.escape(entry)}: expected a number, got "):
        build()


@pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= np.finfo(np.float64).maxexp, reason="longdouble is a double here")
@pytest.mark.parametrize("build, entry", [
    (lambda: PureState(np.array([np.longdouble("1e400"), 0])), "amplitude 0"),
    (lambda: DensityMatrix(np.array([[0, 0], [0, np.longdouble("1e400")]])), "density matrix entry (1, 1)"),
], ids=["PureState-longdouble", "DensityMatrix-longdouble"])
def test_longdouble_arrays_past_complex128_are_not_finite(build, entry):
    # complex128 cannot hold every longdouble, so the entries go one by one through the entry
    # check, which reads one beyond float range as not finite, and numpy warns of no overflow
    with deadline(1), pytest.raises(InvalidState, match=rf"^{re.escape(entry)} must be finite, got \(inf\+0j\)$"):
        build()


def _compares_type_with_int(node) -> bool:
    """Whether node is a `type(...) is int` test, or its `is not`, `==` or `!=` form."""
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                    and isinstance(right, ast.Name) and right.id == "int"
                    for op, right in zip(node.ops, node.comparators)))


def test_the_integer_rule_is_stated_once():
    # check_range(kind=int) is the package's one integer test; no other module writes its own
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(shotbudget.__file__).parent.glob("*.py")) if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if _compares_type_with_int(node)]
    assert sites == []
