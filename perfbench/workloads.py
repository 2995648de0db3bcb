"""Seeded inputs and the fixed op cycle of each benchmark workload.

A workload is one cycle of CLI invocations.  The kinds and sizes in a
cycle are fixed; the seed draws only the contents (state matrices,
distributions, block gate counts, shot counts, Monte Carlo seeds), so a
run's latency distribution has the same shape on every seed.  The closed
loop in run.py repeats the cycle, so the median and the tail percentile
land at the same place in every run.

Each op is a dict:
  kind    label used for grouping (stable across seeds)
  argv    arguments after `python -m shotbudget`
  check   what the oracle needs: the input paths and parameters
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("analyze", "budget", "validate")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _pairs(flat: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in flat]


def _random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return _normalized(g @ g.conj().T)


def _normalized(m: np.ndarray) -> np.ndarray:
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _state_doc(state: np.ndarray) -> dict:
    n = int(state.shape[0]).bit_length() - 1
    if state.ndim == 1:
        return {"kind": "pure", "n": n, "data": _pairs(state)}
    return {"kind": "density", "n": n, "data": _pairs(state.reshape(-1))}


def _state_pair(rng: np.random.Generator, pair: str, qubits: int):
    """An (ideal, actual) pair of the given kind; actual is a noisy ideal."""
    dim = 2**qubits
    if pair == "pure_pure":
        a = _random_pure(rng, dim)
        b = a + rng.uniform(0.2, 0.6) * _random_pure(rng, dim)
        return a, b / np.linalg.norm(b)
    if pair == "pure_mixed":
        a = _random_pure(rng, dim)
        t = rng.uniform(0.05, 0.3)
        return a, _normalized((1.0 - t) * np.outer(a, a.conj()) + t * _random_density(rng, dim, dim))
    if pair == "mixed_full":
        a = _random_density(rng, dim, dim)
        t = rng.uniform(0.05, 0.3)
        return a, _normalized((1.0 - t) * a + t * _random_density(rng, dim, dim))
    if pair == "mixed_rankdef":
        # equal rank dim/2 with tilted supports: exercises the rank cut
        rank = dim // 2
        g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        h = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        g2 = g + rng.uniform(0.1, 0.4) * h
        return _normalized(g @ g.conj().T), _normalized(g2 @ g2.conj().T)
    raise ValueError(pair)


def _distribution_pair(rng: np.random.Generator, bins: int, w2_target: float):
    q = rng.dirichlet(np.full(bins, 8.0))
    z = rng.normal(size=bins)
    z -= np.dot(q, z)  # tilt with zero mean under q: w^2 ~ eps^2 var_q(z)
    eps = math.sqrt(w2_target / float(np.dot(q, z * z)))
    p = q * np.clip(1.0 + eps * z, 0.05, None)
    return p / p.sum(), q


# ---------------------------------------------------------------------------
# analyze: single-block questions; eigensolver, Chernoff search, gamma and
# noncentral chi-square kernels, O(n) binomial tail, and the import floor.

# The cycle has 30 ops: 20 in the import-floor band (every op below
# 5 qubits but decide at 1e6), five 5-qubit pure-vs-mixed qcb ops, and on
# top the 5-qubit mixed pairs and decide at 1e6.  The run's median (rank
# 15-16 of 30) sits inside the floor band and its 75th percentile (rank
# 22.5) on the middle pure-vs-mixed op, clear of the steps on either side.
_QCB_SLOTS = (
    ("pure_pure", 2),
    ("mixed_full", 2),
    ("pure_mixed", 3),
    ("mixed_rankdef", 3),
    ("mixed_rankdef", 4),
    ("pure_mixed", 5),
    ("pure_mixed", 5),
    ("pure_mixed", 5),
    ("pure_mixed", 5),
    ("pure_mixed", 5),
    ("mixed_rankdef", 5),
    ("mixed_full", 5),
    ("mixed_full", 5),
    ("mixed_full", 5),
)
_CHISQ_BINS = (16, 64, 256, 1024)
_DECIDE_SHOTS = (1_000, 10_000, 100_000, 1_000_000)


def _analyze(rng: np.random.Generator, work: str) -> list[dict]:
    ops: list[dict] = []
    for i, (pair, qubits) in enumerate(_QCB_SLOTS):
        a, b = _state_pair(rng, pair, qubits)
        pa, pb = os.path.join(work, f"qcb{i}_a.json"), os.path.join(work, f"qcb{i}_b.json")
        _write_json(pa, _state_doc(a))
        _write_json(pb, _state_doc(b))
        pe = float(rng.uniform(0.005, 0.05))
        ops.append({
            "kind": f"qcb_{pair}_{qubits}q",
            "argv": ["qcb", pa, pb, "--pe", repr(pe), "--json"],
            "check": {"oracle": "qcb", "a": pa, "b": pb, "pe": pe},
        })
    for bins in _CHISQ_BINS:
        p, q = _distribution_pair(rng, bins, float(rng.uniform(0.01, 0.05)))
        pp, pq = os.path.join(work, f"chisq{bins}_p.json"), os.path.join(work, f"chisq{bins}_q.json")
        _write_json(pp, p.tolist())
        _write_json(pq, q.tolist())
        ops.append({
            "kind": f"chisq_{bins}",
            "argv": ["chisq", "--p", pp, "--q", pq, "--json"],
            "check": {"oracle": "chisq", "p": pp, "q": pq, "alpha": 0.01, "beta": 0.01},
        })
    for shots in _DECIDE_SHOTS:
        q0 = float(rng.uniform(0.99, 0.999))
        sd = math.sqrt(shots * q0 * (1.0 - q0))
        zeros = int(min(shots, round(shots * q0 + rng.uniform(-3.0, 1.0) * sd)))
        ops.append({
            "kind": f"decide_{shots}",
            "argv": ["noise", "decide", "--q0", repr(q0), "--zeros", str(zeros),
                     "--shots", str(shots), "--json"],
            "check": {"oracle": "decide", "q0": q0, "zeros": zeros, "shots": shots, "alpha": 0.01},
        })
    for _ in range(4):
        fid = float(1.0 - 10.0 ** rng.uniform(-4.0, -1.0))
        pe = float(rng.uniform(0.001, 0.1))
        ops.append({
            "kind": "shots",
            "argv": ["shots", "--fidelity", repr(fid), "--pe", repr(pe), "--json"],
            "check": {"oracle": "shots", "fidelity": fid, "pe": pe},
        })
    for _ in range(4):
        q0 = float(rng.uniform(0.995, 1.0))
        q1 = float(q0 - rng.uniform(0.002, 0.02))
        ops.append({
            "kind": "noise_plan",
            "argv": ["noise", "plan", "--q0", repr(q0), "--q1", repr(q1), "--json"],
            "check": {"oracle": "plan", "q0": q0, "q1": q1, "alpha": 0.01, "beta": 0.01},
        })
    return ops


# ---------------------------------------------------------------------------
# budget: whole-program allocation and rendering; no eigensolver, no RNG.

_LARGE_BLOCKS = 10_000
_LARGE_EXPLICIT = 50
# (blocks, output) per slot; the cycle has 16 ops.  The median (rank 8-9)
# falls inside the ten small specs.  The 75th percentile (rank 12-13) falls
# on the large table ops, which sit between the one large csv op and the
# two large json ops.
_BUDGET_SLOTS = (
    (3, "json"), (3, "table"), (3, "csv"), (12, "json"), (12, "table"), (25, "csv"),
    (25, "json"), (50, "table"), (50, "csv"), (50, "json"),
    (_LARGE_BLOCKS, "csv"), (_LARGE_BLOCKS, "table"), (_LARGE_BLOCKS, "table"),
    (_LARGE_BLOCKS, "table"), (_LARGE_BLOCKS, "json"), (_LARGE_BLOCKS, "json"),
)


def _spec(rng: np.random.Generator, blocks: int, explicit: int) -> dict:
    r1 = float(10.0 ** rng.uniform(-6.0, -4.0))
    r2 = float(10.0 * r1 * rng.uniform(0.5, 2.0))
    g1 = rng.integers(100, 50_000, size=blocks)
    g2 = rng.integers(10, 10_000, size=blocks)
    mult = rng.integers(1, 5, size=blocks)
    rows = [
        {"name": f"blk{i}", "multiplicity": int(mult[i]), "g1": int(g1[i]), "g2": int(g2[i])}
        for i in range(blocks)
    ]
    for i in range(explicit):
        rows[i * blocks // explicit]["weight"] = float(r2 * 10.0 ** rng.uniform(2.0, 4.0))
    return {
        "fidelity_target": float(rng.uniform(0.9, 0.99)),
        "p_e": float(rng.uniform(0.01, 0.05)),
        "regime_factor": float(rng.uniform(1.0, 2.0)),
        "hardware": {"r1": r1, "r2": r2, "gamma": 0.0},
        "chisq": {"bins": 16, "alpha": 0.01, "beta": 0.01},
        "blocks": rows,
    }


def _budget(rng: np.random.Generator, work: str) -> list[dict]:
    ops = []
    for i, (blocks, out) in enumerate(_BUDGET_SLOTS):
        explicit = _LARGE_EXPLICIT if blocks == _LARGE_BLOCKS else 1
        path = os.path.join(work, f"spec{i}.json")
        _write_json(path, _spec(rng, blocks, explicit))
        size = "large" if blocks == _LARGE_BLOCKS else "small"
        ops.append({
            "kind": f"budget_{size}_{out}",
            "argv": ["budget", "--spec", path, "--out", out],
            "check": {"oracle": "budget", "spec": path, "out": out},
        })
    return ops


# ---------------------------------------------------------------------------
# validate: Monte Carlo kernels and uniform generation; early-exit
# scenarios (inverse, swap) beside full-read ones (binomial, chisq).

# A single trial longer than the 4M-element chunk cap of the simulators,
# long enough that its memory, not a chunk's, sets the peak RSS.  The range
# is narrow because that peak grows in proportion to the shot count.
_LONG_TRIAL_SHOTS = (6_400_000, 6_500_000)


def _validate(rng: np.random.Generator, work: str) -> list[dict]:
    """14 ops with trial counts chosen so that every kind takes about as long."""
    ops = []

    def add(kind: str, trials: int, argv: list[str], **check) -> None:
        mc_seed = int(rng.integers(1, 2**31))
        ops.append({
            "kind": kind,
            "argv": ["validate", *argv, "--trials", str(trials), "--seed", str(mc_seed), "--json"],
            "check": {"oracle": "validate", "trials": trials, **check},
        })

    for _ in range(3):
        add("validate_inverse", int(rng.integers(22_000, 28_000)),
            ["--scenario", "inverse", "--fidelity", "0.99", "--shots", "458"],
            scenario="inverse", fidelity=0.99, shots=458)
    for _ in range(3):
        add("validate_swap", int(rng.integers(11_000, 14_000)),
            ["--scenario", "swap", "--fidelity", "0.99", "--shots", "919"],
            scenario="swap", fidelity=0.99, shots=919)
    # 250-350 shots put the detection rate at 0.6-0.8, where the normal
    # 4-SE band the CLI applies is accurate
    for _ in range(3):
        shots = int(rng.integers(250, 350))
        add("validate_binomial", int(rng.integers(40_000, 50_000)),
            ["--scenario", "binomial", "--q0", "0.999", "--q1", "0.99", "--shots", str(shots),
             "--alpha", "0.05"],
            scenario="binomial", q0=0.999, q1=0.99, shots=shots, alpha=0.05)
    for i, (bins, alternative) in enumerate(((8, False), (16, False), (10, True), (14, True))):
        p, q = _distribution_pair(rng, bins, float(rng.uniform(0.015, 0.03)))
        if not alternative:
            p = q
        pp, pq = os.path.join(work, f"mc{i}_p.json"), os.path.join(work, f"mc{i}_q.json")
        _write_json(pp, p.tolist())
        _write_json(pq, q.tolist())
        kind = "validate_chisq_alt" if alternative else "validate_chisq_null"
        add(kind, int(rng.integers(7_000, 9_000)) // bins,
            ["--scenario", "chisq", "--p", pp, "--q", pq, "--shots", "400", "--alpha", "0.05"],
            scenario="chisq", p=pp, q=pq, shots=400, alpha=0.05)
    shots = int(rng.integers(*_LONG_TRIAL_SHOTS))
    add("validate_long_trial", 1,
        ["--scenario", "inverse", "--fidelity", "0.99", "--shots", str(shots)],
        scenario="inverse", fidelity=0.99, shots=shots)
    return ops


_BUILDERS = {"analyze": _analyze, "budget": _budget, "validate": _validate}


def build(workload: str, seed: int, work: str) -> list[dict]:
    """Write the inputs of one cycle under `work` and return its ops.

    The ops run in a fixed interleaved order, the same for every seed, so
    the ops of one kind are spread over the cycle rather than run back to
    back: a slow spell of the machine then touches a few ops of several
    kinds instead of every op of one kind.
    """
    os.makedirs(work, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = _BUILDERS[workload](rng, work)
    order = np.random.default_rng(len(ops)).permutation(len(ops))
    return [ops[i] for i in order]
