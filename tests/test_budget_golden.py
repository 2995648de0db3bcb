"""Pinned `budget` command output, and the columns against the scalar formulas.

Every (spec, format) case below pins the stdout of the `budget` command,
and a change to the budget path must reproduce it byte for byte.  The
digests are sha256 of the UTF-8 stdout; the 10k-block spec is built here
from a seeded generator, so no large fixture is committed.  The last test
recomputes every column block by block through the scalar shot
estimators and requires equal bits.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from shotbudget import BlockAllocation, allocate_program, cli, parse_program_spec
from shotbudget.budget import block_weight
from shotbudget.shot_estimators import Formula, estimate
from shotbudget.stat_power import w2_fidelity_attaining, w2_small_discrepancy

FORMATS = ("json", "csv", "table")


def _large_spec(seed: int = 20260822, blocks: int = 10_000, explicit: int = 50) -> dict:
    """Gate-weighted blocks with a few explicit weights and depth terms."""
    rng = np.random.default_rng(seed)
    r1 = float(10.0 ** rng.uniform(-6.0, -4.0))
    r2 = float(10.0 * r1 * rng.uniform(0.5, 2.0))
    g1 = rng.integers(100, 50_000, size=blocks)
    g2 = rng.integers(10, 10_000, size=blocks)
    depth = rng.integers(0, 200, size=blocks)
    mult = rng.integers(1, 5, size=blocks)
    rows = [
        {"name": f"blk{i}", "multiplicity": int(mult[i]), "g1": int(g1[i]), "g2": int(g2[i])}
        for i in range(blocks)
    ]
    for i in range(0, blocks, 7):
        rows[i]["depth"] = int(depth[i])
    for i in range(explicit):
        rows[i * blocks // explicit]["weight"] = float(r2 * 10.0 ** rng.uniform(2.0, 4.0))
    return {
        "fidelity_target": float(rng.uniform(0.9, 0.99)),
        "p_e": float(rng.uniform(0.01, 0.05)),
        "regime_factor": float(rng.uniform(1.0, 2.0)),
        "hardware": {"r1": r1, "r2": r2, "gamma": float(r1 * 0.1)},
        "chisq": {"bins": 16, "alpha": 0.01, "beta": 0.01},
        "blocks": rows,
    }


SPECS = {
    "explicit_three": {
        "fidelity_target": 0.99,
        "p_e": 0.05,
        "hardware": {"r1": 0.0, "r2": 0.0},
        "blocks": [
            {"name": "b0", "weight": 1.0},
            {"name": "b1", "weight": 2.0},
            {"name": "b2", "weight": 3.0},
        ],
    },
    "gate_weighted": {
        "fidelity_target": 0.99,
        "p_e": 0.05,
        "regime_factor": 1.5,
        "chisq": {"bins": 8, "alpha": 0.05, "beta": 0.1},
        "hardware": {"r1": 1e-11, "r2": 1e-10, "gamma": 1e-9},
        "blocks": [
            {"name": "A", "multiplicity": 10, "g1": 5e4, "g2": 1e4},
            {"name": "B", "multiplicity": 40, "g1": 2e4, "g2": 4e3, "depth": 300},
            {"name": "C", "multiplicity": 50, "g1": 5e4, "g2": 2e4},
        ],
    },
    # block "tiny" gets theta ~ 1e-11: cos^2 rounds to 1, every raw is inf
    "sub_resolution": {
        "fidelity_target": 0.9999,
        "p_e": 0.05,
        "hardware": {"r1": 0.0, "r2": 0.0},
        "blocks": [
            {"name": "tiny", "weight": 1.0},
            {"name": "huge", "weight": 1e9},
        ],
    },
    # theta ~ 1e-7: the chi-square counts are finite but far above 2^63
    "beyond_int64": {
        "fidelity_target": 0.99,
        "p_e": 0.01,
        "regime_factor": 2.0,
        "hardware": {"r1": 0.0, "r2": 0.0},
        "blocks": [
            {"name": "many", "multiplicity": 1_000_000, "weight": 1.0},
            {"name": "few", "multiplicity": 3, "weight": 250.0},
        ],
    },
    "non_ascii": {
        "fidelity_target": 0.95,
        "p_e": 0.02,
        "hardware": {"r1": 1e-5, "r2": 1e-4},
        "blocks": [
            {"name": "Blöck α", "multiplicity": 2, "g1": 100, "g2": 20},
            {"name": "量子", "g1": 300, "g2": 5},
            {"name": "plain", "weight": 3e-3},
        ],
    },
    "large_seeded": _large_spec(),
}

# (spec, format, strict) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("explicit_three", "json", False): (0, "f4296bca3f35ec35efdf7a2140e68de00191be13baecdeae9f17e6b24d30b4e8"),
    ("explicit_three", "csv", False): (0, "ca2d51b29c7442890e6e5367191a4c52347255a1d4191332ac0077affb8b50f3"),
    ("explicit_three", "table", False): (0, "f3b0c4cf39128442209ce7a28893fee22406612fa76348f7cb31014f8f3999f2"),
    ("gate_weighted", "json", False): (0, "f94c1307a02da050245d4c1bcca7cd637c76693bd25bf1e9206092896fb6dabc"),
    ("gate_weighted", "csv", False): (0, "5bdad74c78c887c0cc4758cbcff9c135fb8fee9e448225ef4f9b5b8f7ced95b0"),
    ("gate_weighted", "table", False): (0, "a2f8428fc3d0820b926ee1028d63612f589a3d65521be2ab333acd81a9599309"),
    ("sub_resolution", "json", False): (0, "2f5c6addc219e9c52ca448a2ce87bb54d63008cd9fe34cc6ae65391aa74192a6"),
    ("sub_resolution", "csv", False): (0, "e0cffdfd0b4865c1a78cfc7b69ad59eeb4731886eed87635fc8888b59c896bd4"),
    ("sub_resolution", "table", False): (0, "7260176ef4a52e1e6003174ee0a83cfc6e63d68602f2b380918102ac6b4a5af6"),
    ("beyond_int64", "json", False): (0, "b7373e39602ebce8f33ac68b55bc18f3cef9b17fd44198d8a2e4ba15525f258c"),
    ("beyond_int64", "csv", False): (0, "b5dcddaebd19b8ce7e479d812f00b326880a3da5fe82f671a025fc5ed484376e"),
    ("beyond_int64", "table", False): (0, "603b17ba085d072e4b494339e62b4324f7460489a2bd776f0c659282b0000c7d"),
    ("non_ascii", "json", False): (0, "4b152de052b52c0bdc0e44ee8adc28b99290c8b173aa6205037229837ec297a4"),
    ("non_ascii", "csv", False): (0, "f7c1fd41ffe2dbea1ad759b068ecbc8a7ad05a60ac58853921964b61b7ada894"),
    ("non_ascii", "table", False): (0, "ee8cec34ce7848e532c84ae97afbe7a8a62e5cb2849c55cbaeec8c49a95a9dba"),
    ("large_seeded", "json", False): (0, "f33d311793f2f18296753fc8787015af073513763abe30d29fa406cc7a03c4b9"),
    ("large_seeded", "csv", False): (0, "f9528f8ef166fb5999159ef29ecde3bbe9bdcdb721565ad01b546d5e9f6c84de"),
    ("large_seeded", "table", False): (0, "ce89df771fec0bed0c5e6f40ecd7d2452f340d5f4768574c7e45990537f74623"),
    ("sub_resolution", "table", True): (1, "7260176ef4a52e1e6003174ee0a83cfc6e63d68602f2b380918102ac6b4a5af6"),
    ("beyond_int64", "json", True): (1, "b7373e39602ebce8f33ac68b55bc18f3cef9b17fd44198d8a2e4ba15525f258c"),
    ("explicit_three", "csv", True): (0, "ca2d51b29c7442890e6e5367191a4c52347255a1d4191332ac0077affb8b50f3"),
}


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_specs")
    paths = {}
    for name, spec in SPECS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths[name] = str(path)
    return paths


def _run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out.encode("utf-8")


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_budget_output_is_pinned(case, spec_paths, capsys):
    spec, fmt, strict = case
    argv = ["budget", "--spec", spec_paths[spec], "--out", fmt] + (["--strict"] if strict else [])
    code, out = _run(capsys, argv)
    assert (code, hashlib.sha256(out).hexdigest()) == GOLDEN[case], out[:400]


def test_sub_resolution_json_shows_null_and_all_kinds(spec_paths, capsys):
    _, out = _run(capsys, ["budget", "--spec", spec_paths["sub_resolution"], "--out", "json"])
    tiny = json.loads(out)["blocks"][0]
    assert tiny["raw_inverse"] is None and tiny["raw_chisq_attaining"] is None
    assert tiny["infeasible"] == ["inverse", "swap", "chisq_small", "chisq_attaining"]


def test_beyond_int64_counts_are_printed_exactly(spec_paths, capsys):
    _, out = _run(capsys, ["budget", "--spec", spec_paths["beyond_int64"], "--out", "json"])
    many = json.loads(out)["blocks"][0]
    assert many["shots_chisq_attaining"] > 2**63
    assert many["infeasible"] == ["chisq_attaining"]


KINDS = ("inverse", "swap", "chisq_small", "chisq_attaining")


def _scalar_rows(spec, report):
    """Every column recomputed block by block through the scalar shot formulas."""
    weights = [block_weight(b, spec.hardware) for b in spec.blocks]
    total_weight = sum(b.multiplicity * w for b, w in zip(spec.blocks, weights))
    r, p_e, lam = spec.regime_factor, spec.p_e, report.noncentrality
    rows = []
    for block, weight in zip(spec.blocks, weights):
        theta = weight / total_weight * report.theta_star
        f = math.cos(theta) ** 2
        raws = dict.fromkeys(KINDS, math.inf)
        if f < 1.0:
            raws = {
                "inverse": estimate(Formula.INVERSE_REAL, f, p_e, r).raw,
                "swap": estimate(Formula.SWAP_REAL, f, p_e, r).raw,
                "chisq_small": lam / w2_small_discrepancy(f),
                "chisq_attaining": lam / w2_fidelity_attaining(f),
            }
        theta_sq = theta * theta
        row = {"name": block.name, "multiplicity": block.multiplicity, "weight": weight,
               "theta": theta, "f_target": f, "infeasible": ()}
        for kind, raw in raws.items():
            over = not math.isfinite(raw) or raw > 2**63
            row[f"shots_{kind}"] = (math.ceil(raw) if math.isfinite(raw) else 0) if over else max(1, math.ceil(raw))
            row[f"raw_{kind}"] = raw
            row["infeasible"] += (kind,) if over else ()
        row["taylor_shots_inverse"] = -r * math.log(p_e) / theta_sq
        row["taylor_shots_swap"] = -2.0 * r * math.log(p_e) / theta_sq
        row["taylor_shots_chisq_small"] = lam / (4.0 * theta_sq)
        row["taylor_shots_chisq_attaining"] = 16.0 * lam / (theta_sq * theta_sq)
        rows.append(row)
    return total_weight, rows


@pytest.mark.parametrize("name", sorted(SPECS))
def test_columns_equal_per_block_formulas_bit_for_bit(name):
    spec = parse_program_spec(SPECS[name])
    report = allocate_program(spec)
    total_weight, rows = _scalar_rows(spec, report)
    assert report.total_weight == total_weight
    assert list(report.columns) == [
        "name", "multiplicity", "weight", "theta", "f_target", "shots_inverse", "shots_swap",
        "shots_chisq_small", "shots_chisq_attaining", "raw_inverse", "raw_swap", "raw_chisq_small",
        "raw_chisq_attaining", "taylor_shots_inverse", "taylor_shots_swap", "taylor_shots_chisq_small",
        "taylor_shots_chisq_attaining", "infeasible"]
    for key, column in report.columns.items():
        expected = tuple(row[key] for row in rows)
        mismatch = [i for i, (a, b) in enumerate(zip(column, expected)) if a != b or type(a) is not type(b)]
        assert len(column) == len(expected) and not mismatch, (key, mismatch[:5])
    totals = {k: sum(r["multiplicity"] * r[f"shots_{k}"] for r in rows if k not in r["infeasible"])
              for k in KINDS}
    assert report.totals == totals
    angle = 0.0
    for row in rows:
        angle += row["multiplicity"] * row["theta"]
    assert report.total_angle == angle
    assert report.allocations == tuple(BlockAllocation(**row) for row in rows)
