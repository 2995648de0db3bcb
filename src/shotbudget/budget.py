"""Program-level verification budgeting in Bures-angle space.

A program fidelity target F_prog buys a total error angle
Theta* = arccos(sqrt(F_prog)).  The angle is an additive budget: it is
split over block instances in proportion to hardware-calibrated weights,
each block gets a per-instance target angle theta_j and the equivalent
per-block fidelity target cos^2(theta_j), and the per-block shot formulas
then price the verification of every block.  The allocation identity
sum_j n_j theta_j = Theta* holds by construction.

Weights default to g1 * r1 + g2 * r2 + depth * gamma (error mass from
one- and two-qubit gate counts, optionally depth), and a block may pin
an explicit weight instead, which is how hybrid policies are expressed.
The report is columnar: one tuple per block field, priced a column at a
time, with `BudgetReport.allocations` as a row view built on read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import compress, repeat
from operator import add, mul

import numpy as np

from .errors import DomainError, ZeroBudget, ZeroWeight, check_range, read_json
from .shot_estimators import FORMULAS, Formula, check_tolerances
from .stat_power import lambda_noncentral, w2_fidelity_attaining, w2_small_discrepancy
from .states import bures_angle
from . import tolerances as tol

__all__ = [
    "HardwareRates",
    "BlockSpec",
    "BlockAllocation",
    "BudgetReport",
    "ProgramSpec",
    "block_weight",
    "allocate",
    "allocate_program",
    "parse_program_spec",
    "load_program_spec",
]

_TEST_KINDS = ("inverse", "swap", "chisq_small", "chisq_attaining")


@dataclass(frozen=True)
class HardwareRates:
    """Per-gate error rates: r1 one-qubit, r2 two-qubit, gamma per depth layer."""

    r1: float
    r2: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "gamma"):
            check_range(f"hardware rate {name}", getattr(self, name), 0, finite=True)


@dataclass(frozen=True)
class BlockSpec:
    """One program block archetype and how often it is instantiated."""

    name: str
    multiplicity: int
    g1: float = 0.0
    g2: float = 0.0
    depth: float = 0.0
    explicit_weight: float | None = None

    def __post_init__(self) -> None:
        n = self.multiplicity
        if type(n) is not int or n < 1:  # bool and float counts are rejected too
            raise DomainError(f"block {self.name!r}: multiplicity must be an integer >= 1, got {n!r}")
        for attr in ("g1", "g2", "depth"):
            check_range("block %r: %s", getattr(self, attr), 0, finite=True, args=(self.name, attr))
        if self.explicit_weight is not None:
            check_range("block %r: weight", self.explicit_weight, finite=True, args=(self.name,))


@dataclass(frozen=True)
class BlockAllocation:
    """Angle share and shot prices for one block archetype (per instance)."""

    name: str
    multiplicity: int
    weight: float
    theta: float
    f_target: float
    shots_inverse: int
    shots_swap: int
    shots_chisq_small: int
    shots_chisq_attaining: int
    raw_inverse: float
    raw_swap: float
    raw_chisq_small: float
    raw_chisq_attaining: float
    taylor_shots_inverse: float
    taylor_shots_swap: float
    taylor_shots_chisq_small: float
    taylor_shots_chisq_attaining: float
    infeasible: tuple[str, ...] = ()


@dataclass(frozen=True)
class BudgetReport:
    """Full allocation: Theta*, the block table by column, and program totals.

    `columns` maps each BlockAllocation field name, in field order, to a
    tuple with one entry per block; shot counts are exact Python ints.
    `allocations` is a view that builds the BlockAllocation rows on read.
    """

    f_prog: float
    p_e: float
    regime_factor: float
    chisq_bins: int
    chisq_alpha: float
    chisq_beta: float
    noncentrality: float
    theta_star: float
    total_weight: float
    total_angle: float
    columns: dict[str, tuple]
    totals: dict = field(default_factory=dict)

    @property
    def allocations(self) -> tuple[BlockAllocation, ...]:
        rows = zip(*(self.columns[f.name] for f in fields(BlockAllocation)))
        return tuple(BlockAllocation(*row) for row in rows)

    @property
    def any_infeasible(self) -> bool:
        return any(self.columns["infeasible"])


def block_weight(block: BlockSpec, rates: HardwareRates) -> float:
    """Weight of one block instance: explicit, or g1 r1 + g2 r2 + depth gamma.

    Raises ZeroWeight when the result is not strictly positive; a block
    with no error mass cannot receive an angle share.
    """
    if block.explicit_weight is not None:
        weight = block.explicit_weight
    else:
        weight = block.g1 * rates.r1 + block.g2 * rates.r2 + block.depth * rates.gamma
    if weight <= 0.0:
        raise ZeroWeight(f"block {block.name!r} resolves to weight {weight!r}")
    return weight


def _libm(fn, values: np.ndarray, *args) -> np.ndarray:
    # per element through libm, as the scalar formulas: numpy's cos, log, x**2 differ in the last bit
    return np.array(list(map(fn, values.tolist(), *args)))


def allocate(
    blocks,
    rates: HardwareRates,
    f_prog: float,
    p_e: float,
    regime_factor: float = 1.0,
    chisq_bins: int = 16,
    chisq_alpha: float = 0.01,
    chisq_beta: float = 0.01,
) -> BudgetReport:
    """Split the program error-angle budget over blocks and price each test.

    Per-instance angle theta_j = (w_j / W) Theta* with W = sum n_j w_j,
    so instances of heavier blocks get proportionally more of the budget.
    Each block carries the exact shot formulas at its fidelity target
    cos^2(theta_j) plus their small-angle Taylor forms
    (-R ln p_e / theta^2, doubled for swap, lambda/(4 theta^2) and
    16 lambda / theta^4 for the chi-square pair) as cross-checks.  Counts
    beyond 2^63 are flagged infeasible with the raw value retained.  Each
    formula runs once over a whole column, the inverse and swap columns
    from their FORMULAS rows and the chi-square pair from stat_power's w^2,
    and matches the scalar shot estimators bit for bit.

    Raises ZeroBudget for f_prog = 1 and ZeroWeight for weightless blocks.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise DomainError("no blocks to allocate over")
    check_tolerances(p_e, regime_factor)
    check_range("program fidelity target", f_prog, 0, 1, "(]")
    big_theta = bures_angle(f_prog)
    if big_theta == 0.0:
        raise ZeroBudget("program fidelity target 1 leaves no error angle to allocate")

    weights = [block_weight(b, rates) for b in blocks]
    mult = [b.multiplicity for b in blocks]
    total_weight = sum(map(mul, mult, weights))
    check_range("total weight sum n_j w_j", total_weight, finite=True)
    lam = lambda_noncentral(chisq_bins - 1, chisq_alpha, 1.0 - chisq_beta)
    log_pe = math.log(p_e)

    theta = np.array(weights, dtype=np.float64) / total_weight * big_theta
    f_target = _libm(pow, _libm(math.cos, theta), repeat(2.0))
    theta_sq = theta * theta
    with np.errstate(divide="ignore"):
        raws = (
            *(row.multiple * (log_pe / _libm(math.log, _libm(row.per_shot, f_target))) * regime_factor
              for row in (FORMULAS[Formula.INVERSE_REAL], FORMULAS[Formula.SWAP_REAL])),
            lam / _libm(w2_small_discrepancy, f_target),
            lam / _libm(w2_fidelity_attaining, f_target),
        )
        taylors = (
            -regime_factor * log_pe / theta_sq,
            -2.0 * regime_factor * log_pe / theta_sq,
            lam / (4.0 * theta_sq),
            16.0 * lam / (theta_sq * theta_sq),
        )

    columns = {
        "name": tuple(b.name for b in blocks),
        "multiplicity": tuple(mult),
        "weight": tuple(weights),
        "theta": tuple(theta.tolist()),
        "f_target": tuple(f_target.tolist()),
    }
    totals: dict[str, int] = {}
    mask, unresolved = 0, f_target >= 1.0
    for bit, (kind, raw) in enumerate(zip(_TEST_KINDS, raws)):
        # theta below float resolution rounds cos^2 to 1 and every count overflows
        raw[unresolved] = math.inf
        over = ~(raw <= tol.MAX_SCHEDULABLE_SHOTS)
        mask = mask + over * (1 << bit)
        shots = np.where(over, 0.0, np.maximum(np.ceil(raw), 1.0)).astype(np.uint64).tolist()
        totals[kind] = sum(map(mul, mult, shots))
        # an infeasible count is ceil(raw), an exact int however large, or 0 when raw is inf
        big = np.flatnonzero(over & np.isfinite(raw)).tolist()
        for i, count in zip(big, map(math.ceil, raw[big].tolist())):
            shots[i] = count
        columns[f"shots_{kind}"] = tuple(shots)
    columns.update((f"raw_{kind}", tuple(raw.tolist())) for kind, raw in zip(_TEST_KINDS, raws))
    columns.update((f"taylor_shots_{k}", tuple(t.tolist())) for k, t in zip(_TEST_KINDS, taylors))
    masks = mask.tolist()
    kinds = {m: tuple(compress(_TEST_KINDS, (m >> bit & 1 for bit in range(4)))) for m in set(masks)}
    columns["infeasible"] = tuple(map(kinds.__getitem__, masks))

    return BudgetReport(
        f_prog=f_prog,
        p_e=p_e,
        regime_factor=regime_factor,
        chisq_bins=chisq_bins,
        chisq_alpha=chisq_alpha,
        chisq_beta=chisq_beta,
        noncentrality=lam,
        theta_star=big_theta,
        total_weight=total_weight,
        total_angle=reduce(add, map(mul, mult, columns["theta"]), 0.0),  # sum() compensates on 3.12+
        columns=columns,
        totals=totals,
    )


@dataclass(frozen=True)
class ProgramSpec:
    """Everything needed to budget one program: target, tolerances, blocks."""

    fidelity_target: float
    p_e: float
    regime_factor: float
    hardware: HardwareRates
    blocks: tuple[BlockSpec, ...]
    chisq_bins: int = 16
    chisq_alpha: float = 0.01
    chisq_beta: float = 0.01


def allocate_program(spec: ProgramSpec) -> BudgetReport:
    """Run the allocator on a parsed ProgramSpec."""
    return allocate(
        spec.blocks,
        spec.hardware,
        spec.fidelity_target,
        spec.p_e,
        spec.regime_factor,
        spec.chisq_bins,
        spec.chisq_alpha,
        spec.chisq_beta,
    )


def _spec_number(obj: dict, key: str, path: str, low=None, high=None, ends: str = "[]", *,
                 default=None, required: bool = True):
    # a finite number in the range, or an error naming its JSON path
    if key not in obj:
        if required:
            raise DomainError(f"{path}/{key}: missing")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"{path}/{key}: expected a number, got {value!r}")
    check_range("%s/%s", value, low, high, ends, finite=True, args=(path, key))
    return float(value)


def parse_program_spec(obj: dict) -> ProgramSpec:
    """Build a ProgramSpec from its JSON object form.

    Error messages carry the JSON-pointer-style path of the offending
    field so a bad spec file is easy to fix.
    """
    if not isinstance(obj, dict):
        raise DomainError(f"program spec must be a JSON object, got {type(obj).__name__}")
    fidelity_target = _spec_number(obj, "fidelity_target", "", 0, 1, "(]")
    p_e = _spec_number(obj, "p_e", "", 0, 1, "()")
    regime_factor = _spec_number(obj, "regime_factor", "", 1, 2, default=1.0, required=False)

    chisq = obj.get("chisq", {})
    if not isinstance(chisq, dict):
        raise DomainError("/chisq: expected an object")
    bins = chisq.get("bins", 16)
    if isinstance(bins, bool) or not isinstance(bins, int):
        raise DomainError(f"/chisq/bins: expected an integer, got {bins!r}")
    check_range("/chisq/bins", bins, 2)
    alpha = _spec_number(chisq, "alpha", "/chisq", 0, 1, "()", default=0.01, required=False)
    beta = _spec_number(chisq, "beta", "/chisq", 0, 1, "()", default=0.01, required=False)

    hw = obj.get("hardware")
    if not isinstance(hw, dict):
        raise DomainError("/hardware: missing or not an object")
    rates = HardwareRates(
        r1=_spec_number(hw, "r1", "/hardware", 0),
        r2=_spec_number(hw, "r2", "/hardware", 0),
        gamma=_spec_number(hw, "gamma", "/hardware", 0, default=0.0, required=False),
    )

    raw_blocks = obj.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise DomainError("/blocks: missing or empty")
    blocks = []
    for i, entry in enumerate(raw_blocks):
        path = f"/blocks/{i}"
        if not isinstance(entry, dict):
            raise DomainError(f"{path}: expected an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise DomainError(f"{path}/name: expected a nonempty string, got {name!r}")
        multiplicity = entry.get("multiplicity", 1)
        if type(multiplicity) is not int:  # bool counts are rejected too
            raise DomainError(f"{path}/multiplicity: expected an integer, got {multiplicity!r}")
        check_range("%s/multiplicity", multiplicity, 1, args=(path,))
        blocks.append(
            BlockSpec(
                name=name,
                multiplicity=multiplicity,
                g1=_spec_number(entry, "g1", path, 0, default=0.0, required=False),
                g2=_spec_number(entry, "g2", path, 0, default=0.0, required=False),
                depth=_spec_number(entry, "depth", path, 0, default=0.0, required=False),
                explicit_weight=_spec_number(entry, "weight", path, default=None, required=False),
            )
        )
    return ProgramSpec(
        fidelity_target=fidelity_target,
        p_e=p_e,
        regime_factor=regime_factor,
        hardware=rates,
        blocks=tuple(blocks),
        chisq_bins=bins,
        chisq_alpha=alpha,
        chisq_beta=beta,
    )


def load_program_spec(path: str) -> ProgramSpec:
    """Load a program spec file (see parse_program_spec for the schema)."""
    return parse_program_spec(read_json(path))
