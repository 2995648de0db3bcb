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
Spec and report are columnar: a spec file is parsed straight into one
tuple per block field, each number checked once, and priced a column at
a time; `ProgramSpec.blocks` and `BudgetReport.allocations` are row
views built on read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import compress
from operator import add, mul, not_

from .errors import _FLOAT_MAX, DomainError, ZeroBudget, ZeroWeight, check_range, json_float, read_json
from .shot_estimators import FORMULAS, Formula, check_tolerances
from .stat_power import _w2_fidelity_attaining, _w2_small_discrepancy, lambda_noncentral
from . import tolerances as tol

__all__ = [
    "HardwareRates",
    "BlockSpec",
    "BlockAllocation",
    "BudgetReport",
    "ProgramSpec",
    "bures_angle",
    "block_weight",
    "allocate",
    "allocate_program",
    "parse_program_spec",
    "load_program_spec",
]

_TEST_KINDS = ("inverse", "swap", "chisq_small", "chisq_attaining")
_NUMBER = frozenset((int, float))  # exact types: a bool is no number


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
        check_range("block %r: multiplicity", n, finite=True, args=(self.name,))  # a float-sized count
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
    return _weights(_block_columns((block,)), rates)[0]


def _block_columns(blocks) -> dict[str, tuple]:
    return {f.name: tuple(getattr(b, f.name) for b in blocks) for f in fields(BlockSpec)}


def _weights(columns: dict[str, tuple], rates: HardwareRates, spec: bool = False) -> list[float]:
    # block_weight for every block; a ZeroWeight from a spec also names the block's JSON path
    r1, r2, gamma = rates.r1, rates.r2, rates.gamma
    weights = [g1 * r1 + g2 * r2 + depth * gamma if w is None else w for g1, g2, depth, w in zip(
        columns["g1"], columns["g2"], columns["depth"], columns["explicit_weight"])]
    if min(weights) <= 0.0:
        i = next(i for i, w in enumerate(weights) if w <= 0.0)
        path = f"/blocks/{i}: " if spec else ""
        raise ZeroWeight(f"{path}block {columns['name'][i]!r} resolves to weight {weights[i]!r}")
    return weights


def bures_angle(fid: float) -> float:
    """Bures angle arccos(sqrt(F)), the metric the budget allocator splits."""
    check_range("fidelity", fid, 0, 1)
    return math.acos(min(1.0, math.sqrt(fid)))


def allocate(blocks, rates: HardwareRates, f_prog: float, p_e: float, regime_factor: float = 1.0,
             chisq_bins: int = 16, chisq_alpha: float = 0.01, chisq_beta: float = 0.01) -> BudgetReport:
    """Split the program error-angle budget over blocks and price each test.

    Per-instance angle theta_j = (w_j / W) Theta* with W = sum n_j w_j,
    so instances of heavier blocks get proportionally more of the budget.
    Each block carries the exact shot formulas at its fidelity target
    cos^2(theta_j) plus their small-angle Taylor forms
    (-R ln p_e / theta^2, doubled for swap, lambda/(4 theta^2) and
    16 lambda / theta^4 for the chi-square pair) as cross-checks.  Counts
    beyond 2^63 are flagged infeasible with the raw value retained.  The
    inverse and swap columns come from their FORMULAS rows and the
    chi-square pair from stat_power's w^2, so every column matches the
    scalar shot estimators bit for bit.

    Raises ZeroBudget for f_prog = 1 and ZeroWeight for weightless blocks.
    """
    return _allocate(_block_columns(tuple(blocks)), rates, f_prog, p_e, regime_factor,
                     chisq_bins, chisq_alpha, chisq_beta)


def _allocate(blocks: dict[str, tuple], rates: HardwareRates, f_prog: float, p_e: float,
              regime_factor: float, chisq_bins: int, chisq_alpha: float, chisq_beta: float,
              spec: bool = False) -> BudgetReport:
    # allocate over the BlockSpec columns; `spec` puts JSON paths in ZeroWeight messages
    if not blocks["name"]:
        raise DomainError("no blocks to allocate over")
    check_tolerances(p_e, regime_factor)
    check_range("program fidelity target", f_prog, 0, 1, "(]")
    big_theta = bures_angle(f_prog)
    if big_theta == 0.0:
        raise ZeroBudget("program fidelity target 1 leaves no error angle to allocate")

    weights = _weights(blocks, rates, spec)
    mult = blocks["multiplicity"]
    total_weight = sum(map(mul, mult, weights))
    check_range("total weight sum n_j w_j", total_weight, finite=True)
    lam = lambda_noncentral(chisq_bins - 1, chisq_alpha, 1.0 - chisq_beta)
    log_pe = math.log(p_e)

    theta = [w / total_weight * big_theta for w in weights]
    f_target = [math.cos(t) ** 2.0 for t in theta]
    inverse, swap = FORMULAS[Formula.INVERSE_REAL], FORMULAS[Formula.SWAP_REAL]
    # theta below float resolution rounds cos^2 to 1 and every count overflows
    raws = [
        [math.inf if f >= 1.0 else row.multiple * (log_pe / math.log(q)) * regime_factor
         for f, q in zip(f_target, map(row.per_shot, f_target))] for row in (inverse, swap)
    ] + [[math.inf if f >= 1.0 else lam / w2(f) for f in f_target]
         for w2 in (_w2_small_discrepancy, _w2_fidelity_attaining)]
    theta_sq = [t * t for t in theta]
    # every numerator is > 0, so a denominator that underflowed to 0 prices at inf
    taylors = [[num / d if d else math.inf for d in dens] for num, dens in (
        (-regime_factor * log_pe, theta_sq),
        (-2.0 * regime_factor * log_pe, theta_sq),
        (lam, [4.0 * t for t in theta_sq]),
        (16.0 * lam, [t * t for t in theta_sq]),
    )]

    columns = {"name": blocks["name"], "multiplicity": mult, "weight": tuple(weights),
               "theta": tuple(theta), "f_target": tuple(f_target)}
    feasible = [[r <= tol.MAX_SCHEDULABLE_SHOTS for r in raw] for raw in raws]
    totals: dict[str, int] = {}
    for kind, raw, flags in zip(_TEST_KINDS, raws, feasible):
        # raw >= 0: ceil(raw) floored at one shot, an exact int however large, or 0 for inf
        shots = [math.ceil(r) or 1 if r < math.inf else 0 for r in raw]
        columns[f"shots_{kind}"] = tuple(shots)
        totals[kind] = sum(map(mul, compress(mult, flags), compress(shots, flags)))
    columns.update((f"raw_{k}", tuple(r)) for k, r in zip(_TEST_KINDS, raws))
    columns.update((f"taylor_shots_{k}", tuple(t)) for k, t in zip(_TEST_KINDS, taylors))
    rows = list(zip(*feasible))  # each block's flags; few distinct rows occur
    kinds = {row: tuple(compress(_TEST_KINDS, map(not_, row))) for row in set(rows)}
    columns["infeasible"] = tuple(map(kinds.__getitem__, rows))

    total_angle = reduce(add, map(mul, mult, theta), 0.0)  # sum() compensates on 3.12+
    return BudgetReport(
        f_prog=f_prog, p_e=p_e, regime_factor=regime_factor, chisq_bins=chisq_bins,
        chisq_alpha=chisq_alpha, chisq_beta=chisq_beta, noncentrality=lam, theta_star=big_theta,
        total_weight=total_weight, total_angle=total_angle, columns=columns, totals=totals,
    )


@dataclass(frozen=True)
class ProgramSpec:
    """Everything needed to budget one program: target, tolerances, blocks.

    `columns` maps each BlockSpec field name, in field order, to a tuple with
    one checked entry per block; `blocks` builds the BlockSpec rows on read.
    """

    fidelity_target: float
    p_e: float
    regime_factor: float
    hardware: HardwareRates
    columns: dict[str, tuple]
    chisq_bins: int = 16
    chisq_alpha: float = 0.01
    chisq_beta: float = 0.01

    @property
    def blocks(self) -> tuple[BlockSpec, ...]:
        rows = zip(*(self.columns[f.name] for f in fields(BlockSpec)))
        return tuple(BlockSpec(*row) for row in rows)


def allocate_program(spec: ProgramSpec) -> BudgetReport:
    """Run the allocator on a parsed ProgramSpec; a ZeroWeight names the block's JSON path."""
    return _allocate(spec.columns, spec.hardware, spec.fidelity_target, spec.p_e, spec.regime_factor,
                     spec.chisq_bins, spec.chisq_alpha, spec.chisq_beta, spec=True)


def _spec_number(obj: dict, key: str, path: str, low=None, high=None, ends: str = "[]", *,
                 default=None, required: bool = True):
    # a finite number in the range, or an error naming its JSON path
    if key not in obj:
        if required:
            raise DomainError(f"{path}/{key}: missing")
        return default
    value = obj[key]
    number = json_float("%s/%s", value, args=(path, key))
    check_range("%s/%s", value, low, high, ends, finite=True, args=(path, key))  # names value as given
    return number


def _block_row(entry, path: str) -> tuple:
    # the per-field checks: a block entry's BlockSpec fields, or a DomainError
    # naming the JSON path of its first fault in field order
    if not isinstance(entry, dict):
        raise DomainError(f"{path}: expected an object")
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        raise DomainError(f"{path}/name: expected a nonempty string, got {name!r}")
    multiplicity = entry.get("multiplicity", 1)
    if type(multiplicity) is not int:  # bool counts are rejected too
        raise DomainError(f"{path}/multiplicity: expected an integer, got {multiplicity!r}")
    check_range("%s/multiplicity", multiplicity, 1, args=(path,))
    check_range("%s/multiplicity", multiplicity, finite=True, args=(path,))  # a float-sized count
    return (name, multiplicity, *(_spec_number(entry, key, path, 0, default=0.0, required=False)
                                  for key in ("g1", "g2", "depth")),
            _spec_number(entry, "weight", path, default=None, required=False))


def _parse_blocks(raw_blocks: list) -> dict[str, tuple]:
    # the block entries as BlockSpec columns, each number checked once: a valid
    # entry passes one inline test, and _block_row words the fault of any other
    columns = tuple([] for _ in fields(BlockSpec))
    names, counts, g1s, g2s, depths, weights = columns
    for i, entry in enumerate(raw_blocks):
        if type(entry) is dict:
            name, n = entry.get("name"), entry.get("multiplicity", 1)
            g1, g2, depth = entry.get("g1", 0.0), entry.get("g2", 0.0), entry.get("depth", 0.0)
            weight = entry.get("weight", 0.0)  # an absent weight passes, a null one does not
            if (type(name) is str and name and type(n) is int and 1 <= n <= _FLOAT_MAX
                    and type(g1) in _NUMBER and type(g2) in _NUMBER and type(depth) in _NUMBER
                    and type(weight) in _NUMBER and 0 <= g1 <= _FLOAT_MAX and 0 <= g2 <= _FLOAT_MAX
                    and 0 <= depth <= _FLOAT_MAX and -_FLOAT_MAX <= weight <= _FLOAT_MAX):
                names.append(name)
                counts.append(n)
                g1s.append(float(g1))
                g2s.append(float(g2))
                depths.append(float(depth))
                weights.append(float(weight) if "weight" in entry else None)
                continue
        for column, value in zip(columns, _block_row(entry, f"/blocks/{i}")):
            column.append(value)
    return {f.name: tuple(column) for f, column in zip(fields(BlockSpec), columns)}


def parse_program_spec(obj: dict) -> ProgramSpec:
    """Build a ProgramSpec from its JSON object form, straight into columns.

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
    return ProgramSpec(
        fidelity_target=fidelity_target, p_e=p_e, regime_factor=regime_factor, hardware=rates,
        columns=_parse_blocks(raw_blocks), chisq_bins=bins, chisq_alpha=alpha, chisq_beta=beta,
    )


def load_program_spec(path: str) -> ProgramSpec:
    """Load a program spec file (see parse_program_spec for the schema)."""
    return parse_program_spec(read_json(path))
