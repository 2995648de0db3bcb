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
Spec and report are columnar: a ProgramSpec holds one tuple per block
field, checked in one pass per column, and is priced a column at a time;
`ProgramSpec.blocks` and `BudgetReport.allocations` are row views built
on read.  There are three ways in, all checked: `parse_program_spec`
(or `load_program_spec`), `allocate` over BlockSpecs, and a ProgramSpec
built by hand.  `_BLOCK_RULES` states each block field's rule once, as a
`check_range` kind and least value: BlockSpec and a spec entry's check build
their row through `_block_row` over it, and the column pass reads it too.
Every other spec value goes through `check_range` by its kind as well.
"""

import math
from contextlib import suppress
from functools import partial, reduce
from itertools import compress, repeat
from operator import add, is_not, mul, not_
from types import MappingProxyType
from typing import NamedTuple

from .errors import _FLOAT_MAX, MISSING, DomainError, Record, ZeroBudget, ZeroWeight, check_range, read_json
from .shot_estimators import FORMULAS, Formula, _shot_count, check_tolerances
from .stat_power import _check_chisq, _w2_fidelity_attaining, _w2_small_discrepancy, chisq_noncentrality
from . import tolerances as tol

__all__ = [
    "HardwareRates",
    "BlockSpec",
    "BlockAllocation",
    "BudgetReport",
    "ProgramSpec",
    "bures_angle",
    "allocate",
    "allocate_program",
    "parse_program_spec",
    "load_program_spec",
]

_TEST_KINDS = ("inverse", "swap", "chisq_small", "chisq_attaining")

# Each block field's rule, read by `_block_row` and ProgramSpec's column pass:
# (field, spec key, value when absent, check_range kind, least value).  A weight
# of None is absent.
_BLOCK_RULES = (
    ("name", "name", None, str, None),
    ("multiplicity", "multiplicity", 1, int, 1),
    ("g1", "g1", 0.0, float, 0),
    ("g2", "g2", 0.0, float, 0),
    ("depth", "depth", 0.0, float, 0),
    ("explicit_weight", "weight", None, float, None),
)


class HardwareRates(Record):
    """Per-gate error rates: r1 one-qubit, r2 two-qubit, gamma per depth layer."""

    __slots__ = _fields = ("r1", "r2", "gamma")

    def __init__(self, r1: float, r2: float, gamma: float = 0.0) -> None:
        self._set(*(check_range("hardware rate %s", rate, 0, args=(name,))  # a spec file's number rule
                    for name, rate in zip(self._fields, (r1, r2, gamma))))


class BlockSpec(Record):
    """One program block archetype and how often it is instantiated; its fields
    obey the rules of a spec file's block entries, and its numbers are floats."""

    __slots__ = _fields = ("name", "multiplicity", "g1", "g2", "depth", "explicit_weight")

    def __init__(self, name: str, multiplicity: int, g1: float = 0.0, g2: float = 0.0,
                 depth: float = 0.0, explicit_weight: float | None = None) -> None:
        check_range("block name", name, kind=str)
        self._set(*_block_row((name, multiplicity, g1, g2, depth, explicit_weight), "block %r: %s", name))


def _block_row(values, what: str, head) -> tuple:
    # a block's fields in field order, each checked by its rule and named what % (head, key);
    # a None number whose rule has no default is an absent weight
    return tuple(None if value is None and default is None and kind is float else
                 check_range(what, value, low, kind=kind, args=(head, key))
                 for (_, key, default, kind, low), value in zip(_BLOCK_RULES, values))


class BlockAllocation(NamedTuple):
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


class BudgetReport(NamedTuple):
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
    totals: dict

    @property
    def allocations(self) -> tuple[BlockAllocation, ...]:
        rows = zip(*(self.columns[name] for name in BlockAllocation._fields))
        return tuple(map(BlockAllocation._make, rows))

    @property
    def any_infeasible(self) -> bool:
        return any(self.columns["infeasible"])


def _block_columns(blocks) -> dict[str, tuple]:
    return {name: tuple(getattr(b, name) for b in blocks) for name in BlockSpec._fields}


def _weights(columns: dict[str, tuple], rates: HardwareRates, paths: bool) -> list[float]:
    # each block instance's weight: explicit, or g1 r1 + g2 r2 + depth gamma; a block with no
    # error mass gets no angle share, and its ZeroWeight from a spec also names its JSON path
    r1, r2, gamma = rates.r1, rates.r2, rates.gamma
    weights = [g1 * r1 + g2 * r2 + depth * gamma if w is None else float(w) for g1, g2, depth, w in zip(
        columns["g1"], columns["g2"], columns["depth"], columns["explicit_weight"])]
    if min(weights) <= 0.0:
        i = next(i for i, w in enumerate(weights) if w <= 0.0)
        path = f"/blocks/{i}: " if paths else ""
        raise ZeroWeight(f"{path}block {columns['name'][i]!r} resolves to weight {weights[i]!r}")
    return weights


def bures_angle(fid: float) -> float:
    """Bures angle arccos(sqrt(F)), the metric the budget allocator splits."""
    return math.acos(min(1.0, math.sqrt(check_range("fidelity", fid, 0, 1))))


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
    spec = ProgramSpec(f_prog, p_e, regime_factor, rates, _block_columns(tuple(blocks)),
                       chisq_bins, chisq_alpha, chisq_beta)
    return _allocate(spec, paths=False)


def _allocate(spec: "ProgramSpec", paths: bool) -> BudgetReport:
    # price a checked spec; `paths` puts JSON paths in ZeroWeight messages
    blocks, f_prog, p_e, regime_factor = spec.columns, spec.fidelity_target, spec.p_e, spec.regime_factor
    if not blocks["name"]:
        raise DomainError("no blocks to allocate over")
    big_theta = bures_angle(f_prog)
    if big_theta == 0.0:
        raise ZeroBudget("program fidelity target 1 leaves no error angle to allocate")

    weights = _weights(blocks, spec.hardware, paths)
    mult = blocks["multiplicity"]
    total_weight = reduce(add, map(mul, mult, weights), 0.0)  # sum() compensates on 3.12+
    check_range("total weight sum n_j w_j", total_weight)
    lam = chisq_noncentrality(spec.chisq_bins, spec.chisq_alpha, spec.chisq_beta)
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
        shots = [_shot_count(r) if r < math.inf else 0 for r in raw]  # an exact int however large
        columns[f"shots_{kind}"] = tuple(shots)
        totals[kind] = sum(map(mul, compress(mult, flags), compress(shots, flags)))
    columns.update((f"raw_{k}", tuple(r)) for k, r in zip(_TEST_KINDS, raws))
    columns.update((f"taylor_shots_{k}", tuple(t)) for k, t in zip(_TEST_KINDS, taylors))
    rows = list(zip(*feasible))  # each block's flags; few distinct rows occur
    kinds = {row: tuple(compress(_TEST_KINDS, map(not_, row))) for row in set(rows)}
    columns["infeasible"] = tuple(map(kinds.__getitem__, rows))

    total_angle = reduce(add, map(mul, mult, theta), 0.0)  # sum() compensates on 3.12+
    return BudgetReport(
        f_prog=f_prog, p_e=p_e, regime_factor=regime_factor, chisq_bins=spec.chisq_bins,
        chisq_alpha=spec.chisq_alpha, chisq_beta=spec.chisq_beta, noncentrality=lam, theta_star=big_theta,
        total_weight=total_weight, total_angle=total_angle, columns=columns, totals=totals,
    )


def _checked_columns(columns: dict) -> dict[str, tuple]:
    # ProgramSpec's column pass: each column checked at once by its field's rule; on a
    # fault the rows go through BlockSpec, which names the first
    if not isinstance(columns, dict) or set(columns) != set(BlockSpec._fields):
        raise DomainError(f"columns: expected one column for each BlockSpec field {BlockSpec._fields}")
    checked = {field: tuple(columns[field]) for field in BlockSpec._fields}
    blocks = len(checked["name"])
    for (field, _, default, kind, low), column in zip(_BLOCK_RULES, checked.values()):
        if len(column) != blocks:
            raise DomainError(f"columns: {field!r} has {len(column)} entries for {blocks} blocks")
        if default is None and kind is float:  # a None weight is absent
            column = tuple(filter(partial(is_not, None), column))
        types = set(map(type, column))  # exact types: a bool is no number
        if types - {kind, int if kind is float else kind} or ("" in column if kind is str else column and not (
                (-_FLOAT_MAX if low is None else low) <= min(column) and max(column) <= _FLOAT_MAX
                and not (float in types and any(map(math.isnan, column))))):  # min and max skip a NaN
            return _block_columns([BlockSpec(*row) for row in zip(*checked.values())])
    return checked


class ProgramSpec(Record):
    """Everything needed to budget one program: target, tolerances, blocks.

    `columns`, read-only, maps each BlockSpec field name in field order to a tuple with one
    entry per block, checked a column at a time by BlockSpec's rules; `blocks` builds the
    rows on read.  The other fields are checked as `allocate` checks them, and so is a copy.
    """

    __slots__ = _fields = ("fidelity_target", "p_e", "regime_factor", "hardware", "columns",
                           "chisq_bins", "chisq_alpha", "chisq_beta")

    def __init__(self, fidelity_target: float, p_e: float, regime_factor: float, hardware: HardwareRates,
                 columns: dict, chisq_bins: int = 16, chisq_alpha: float = 0.01,
                 chisq_beta: float = 0.01) -> None:
        p_e, regime_factor = check_tolerances(p_e, regime_factor)
        fidelity_target = check_range("program fidelity target", fidelity_target, 0, 1, "(]")
        if not isinstance(hardware, HardwareRates):
            raise DomainError(f"hardware: expected HardwareRates, got {type(hardware).__name__}")
        chisq_bins, chisq_alpha, chisq_beta = _check_chisq(chisq_bins, chisq_alpha, chisq_beta)
        self._set(fidelity_target, p_e, regime_factor, hardware, MappingProxyType(_checked_columns(columns)),
                  chisq_bins, chisq_alpha, chisq_beta)

    def __reduce__(self):
        return ProgramSpec, tuple(dict(v) if v is self.columns else v for v in self._values())

    @property
    def blocks(self) -> tuple[BlockSpec, ...]:
        return tuple(BlockSpec(*row) for row in zip(*self.columns.values()))


def allocate_program(spec: ProgramSpec) -> BudgetReport:
    """Run the allocator on a ProgramSpec; a ZeroWeight names the block's JSON path."""
    return _allocate(spec, paths=True)


def _entry_row(entry, path: str) -> tuple:
    # the per-entry check: an entry's BlockSpec fields, or a DomainError naming the
    # JSON path of its first fault in field order
    if not isinstance(entry, dict):
        raise DomainError(f"{path}: expected an object")
    row = _block_row([entry.get(key, default) for _, key, default, _, _ in _BLOCK_RULES], "%s/%s", path)
    if entry.get("weight", 0) is None:  # given as null, which the number rule rejects
        check_range("%s/weight", None, args=(path,))
    return row


def parse_program_spec(obj: dict) -> ProgramSpec:
    """Build a ProgramSpec from its JSON object form, straight into columns.

    ProgramSpec checks the block entries a column at a time; only when that
    finds a fault are the entries checked one by one, so that the error
    message carries the JSON-pointer-style path of the offending field.
    """
    if not isinstance(obj, dict):
        raise DomainError(f"program spec must be a JSON object, got {type(obj).__name__}")
    fidelity_target = check_range("/fidelity_target", obj.get("fidelity_target", MISSING), 0, 1, "(]")
    p_e = check_range("/p_e", obj.get("p_e", MISSING), 0, 1, "()")
    regime_factor = check_range("/regime_factor", obj.get("regime_factor", 1.0), 1, 2)

    chisq = obj.get("chisq", {})
    if not isinstance(chisq, dict):
        raise DomainError("/chisq: expected an object")
    bins = check_range("/chisq/bins", chisq.get("bins", 16), 2, tol.CHISQ_MAX_BINS, kind=int)
    alpha = check_range("/chisq/alpha", chisq.get("alpha", 0.01), tol.ERROR_RATE_FLOOR, 1, "()")
    beta = check_range("/chisq/beta", chisq.get("beta", 0.01), tol.ERROR_RATE_FLOOR, 1, "()")

    hw = obj.get("hardware")
    if not isinstance(hw, dict):
        raise DomainError("/hardware: missing or not an object")
    rates = HardwareRates(*(check_range("/hardware/%s", hw.get(key, default), 0, args=(key,))
                            for key, default in (("r1", MISSING), ("r2", MISSING), ("gamma", 0.0))))

    raw_blocks = obj.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise DomainError("/blocks: missing or empty")
    spec = partial(ProgramSpec, fidelity_target, p_e, regime_factor, rates,
                   chisq_bins=bins, chisq_alpha=alpha, chisq_beta=beta)
    if set(map(type, raw_blocks)) == {dict}:
        columns = {field: list(map(dict.get, raw_blocks, repeat(key), repeat(default)))
                   for field, key, default, _, _ in _BLOCK_RULES}
        if None not in map(dict.get, raw_blocks, repeat("weight"), repeat(0)):  # no weight given as null
            with suppress(DomainError):  # the entries' own check names the fault
                return spec(columns)
    rows = [_entry_row(entry, f"/blocks/{i}") for i, entry in enumerate(raw_blocks)]
    return spec(dict(zip(BlockSpec._fields, zip(*rows))))


def load_program_spec(path: str) -> ProgramSpec:
    """Load a program spec file (see parse_program_spec for the schema)."""
    return parse_program_spec(read_json(path))
