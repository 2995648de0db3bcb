"""Shot-count formulas for state discrimination and equivalence tests.

Every formula is N = m ln(p_e) / ln(Q), times the regime factor R on the
fault-prone hardware rows: with N copies the best error probability
decays like Q^N, where Q is the per-shot acceptance or Chernoff quantity
of the test.  FORMULAS holds one row per Formula: the input kind
(fidelity F, trace distance T, or Q itself), the per-shot Q of that
input, the multiple m (2 for the mixed-state upper bounds, from
Q <= sqrt(F)), and whether R scales the row.  `estimate` prices any row
behind one set of checks; a bracket is a (lower, upper) pair of rows in
ShotBounds.  `shots_inverse_ideal` and `shots_swap_ideal` name the rows
of the two circuit tests; a known Q is priced by `estimate(Formula.QCB, ...)`.

FORMULAS alone states each test's per-shot acceptance (F for the inverse
test, (1 + F)/2 for the swap test); the Monte Carlo simulators, `validate`
and `budget.allocate` all take it from there.  `check_tolerances` is the
one p_e and regime-factor check.

An estimate carries the raw formula value and the schedulable count
ceil(raw), floored at one shot.  `conservative` changes no number; it
labels the count a lower-bound requirement instead of an asymptotic
estimate.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .errors import DegenerateStates, DomainError, Record, check_range

__all__ = ["Formula", "FORMULAS", "ShotEstimate", "ShotBounds", "check_tolerances", "estimate",
           "shots_inverse_ideal", "shots_swap_ideal"]


class Formula(str, Enum):
    """Identifies which discrimination formula produced an estimate."""

    QCB = "qcb"
    PURE = "pure"
    MIXED_LOWER = "mixed_lower"
    MIXED_UPPER = "mixed_upper"
    INVERSE_IDEAL = "inverse_ideal"
    INVERSE_REAL = "inverse_real"
    SWAP_IDEAL = "swap_ideal"
    SWAP_REAL = "swap_real"
    TRACE_PURE = "trace_pure"
    TRACE_PURE_MIXED_LOWER = "trace_pure_mixed_lower"
    TRACE_PURE_MIXED_UPPER = "trace_pure_mixed_upper"
    TRACE_MIXED_LOWER = "trace_mixed_lower"
    TRACE_MIXED_UPPER = "trace_mixed_upper"


class ShotEstimate(NamedTuple):
    """Raw formula value plus the integer shot count ceil(raw), >= 1."""

    raw: float
    shots: int
    formula: Formula
    conservative: bool = False

    @property
    def interpretation(self) -> str:
        return "lower-bound requirement" if self.conservative else "asymptotic estimate"


class ShotBounds(Record):
    """Lower and upper shot estimates bracketing the true requirement."""

    __slots__ = _fields = ("lower", "upper")

    def __init__(self, lower: ShotEstimate, upper: ShotEstimate) -> None:
        if lower.raw > upper.raw * (1.0 + 1e-12) + 1e-12:
            raise DomainError(f"shot bounds inverted: lower {lower.raw} > upper {upper.raw}")
        self._set(lower, upper)


class FormulaRow(NamedTuple):
    """One shot formula: N = multiple * ln(p_e) / ln(per_shot(x)), times R if scaled."""

    kind: str
    per_shot: Callable[[float], float]
    multiple: float
    scaled: bool


_F, _T = "fidelity", "trace distance"

FORMULAS: dict[Formula, FormulaRow] = {
    Formula.QCB: FormulaRow("Q", lambda q: q, 1.0, False),
    Formula.PURE: FormulaRow(_F, lambda f: f, 1.0, False),
    # mixed pairs: 1 - sqrt(1 - F) <= Q <= sqrt(F)
    Formula.MIXED_LOWER: FormulaRow(_F, lambda f: 1.0 - math.sqrt(1.0 - f), 1.0, False),
    Formula.MIXED_UPPER: FormulaRow(_F, lambda f: f, 2.0, False),
    # the inverse test runs the ideal circuit's inverse after the actual one and
    # reads all zeros with probability |<ideal|actual>|^2, the pure-state fidelity
    Formula.INVERSE_IDEAL: FormulaRow(_F, lambda f: f, 1.0, False),
    # the swap ancilla reads 0 with probability (1 + F)/2 (Buhrman et al., PRL 87, 167902, 2001)
    Formula.SWAP_IDEAL: FormulaRow(_F, lambda f: 0.5 + 0.5 * f, 1.0, False),
    # pure pairs have T = sqrt(1 - F); pure-vs-mixed Q lies in [1 - T, 1 - T^2]
    Formula.TRACE_PURE: FormulaRow(_T, lambda t: 1.0 - t * t, 1.0, False),
    Formula.TRACE_PURE_MIXED_LOWER: FormulaRow(_T, lambda t: 1.0 - t, 1.0, False),
    Formula.TRACE_PURE_MIXED_UPPER: FormulaRow(_T, lambda t: 1.0 - t * t, 1.0, False),
    Formula.TRACE_MIXED_LOWER: FormulaRow(_T, lambda t: 1.0 - math.sqrt(t * (2.0 - t)), 1.0, False),
    Formula.TRACE_MIXED_UPPER: FormulaRow(_T, lambda t: 1.0 - t * t, 2.0, False),
}
# fault-prone hardware keeps each test's acceptance and scales its shots by R
FORMULAS[Formula.INVERSE_REAL] = FORMULAS[Formula.INVERSE_IDEAL]._replace(scaled=True)
FORMULAS[Formula.SWAP_REAL] = FORMULAS[Formula.SWAP_IDEAL]._replace(scaled=True)


def check_tolerances(p_e: float, regime_factor: float = 1.0) -> None:
    """Raise DomainError unless p_e lies in (0, 1) and R in [1, 2]."""
    check_range("error probability", p_e, 0, 1, "()")
    check_range("regime factor", regime_factor, 1, 2)


def estimate(formula: Formula, x: float, p_e: float, regime_factor: float = 1.0, *,
             conservative: bool = False) -> ShotEstimate:
    """Price one FORMULAS row at input x (a fidelity, trace distance or Q).

    R multiplies only the rows marked scaled; a per-shot Q of 0 is the
    zero-shot limit, floored at one shot.  Raises DomainError for p_e
    outside (0, 1), R outside [1, 2] or x outside its input range, and
    DegenerateStates when the per-shot Q rounds to 1.
    """
    row = FORMULAS[formula]
    check_tolerances(p_e, regime_factor)
    # every input lies in [0, 1]; callers report Q = 0 (orthogonal states) as one shot
    check_range(row.kind, x, 0, 1, "(]" if row.kind == "Q" else "[]")
    q = row.per_shot(x)
    if q >= 1.0:
        raise DegenerateStates(
            f"{row.kind} {x} gives a per-shot Q of 1: no finite shot count separates the states"
        )
    raw = row.multiple * (math.log(p_e) / math.log(q)) if q > 0.0 else 0.0
    if row.scaled:
        raw *= regime_factor
    return ShotEstimate(raw=raw, shots=max(1, math.ceil(raw)), formula=formula,
                        conservative=conservative)


def shots_inverse_ideal(fid: float, p_e: float, *, conservative: bool = False) -> ShotEstimate:
    """Inverse (compute-uncompute) test on ideal hardware: N = ln(p_e) / ln(F)."""
    return estimate(Formula.INVERSE_IDEAL, fid, p_e, conservative=conservative)


def shots_swap_ideal(fid: float, p_e: float, *, conservative: bool = False) -> ShotEstimate:
    """Swap test on ideal hardware: N = ln(p_e) / ln(1/2 + F/2)."""
    return estimate(Formula.SWAP_IDEAL, fid, p_e, conservative=conservative)
