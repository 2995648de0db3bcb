"""The boundary gate: mutated state, distribution and spec files, and edge values on
every numeric flag, run in process through `cli.main`.  Every case exits 0, 1, 2 or 3;
no exception leaves main (it turns each ShotBudgetError into exit 2 or 3, and argparse
exits 2), and nothing warns."""

import contextlib
import copy
import io
import json
import math
import random
import warnings

import pytest

from shotbudget import cli

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
        code = _run(case + [f"{flag}={value}"])
        if _is_work(base, flag) and value >= 2**63:
            assert code == 2, (case, flag, value)
