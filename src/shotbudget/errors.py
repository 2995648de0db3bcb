"""Exception types raised across the package, and the boundary checks.

Everything derives from ShotBudgetError so callers can catch the whole
family with one clause.  DomainError doubles as a ValueError: most of its
sites are argument-range violations, raised by `check_range` in one message
shape.  `read_json` reads the state, distribution and program-spec files,
and `json_float` takes each number out of them.
"""

import json
import math
import sys

_FLOAT_MAX = sys.float_info.max


class ShotBudgetError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShotBudgetError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoConvergence(ShotBudgetError):
    """An iterative kernel exhausted its iteration budget."""


class InvalidBracket(ShotBudgetError):
    """Minimization bracket endpoints are not ordered."""


class NoBracket(ShotBudgetError):
    """Root solver could not enclose the target value."""


class DimensionMismatch(ShotBudgetError):
    """Two states or distributions have incompatible dimensions."""


class InvalidState(ShotBudgetError):
    """A vector or matrix fails the state invariants (norm, trace, PSD...)."""


class DegenerateStates(ShotBudgetError):
    """States are indistinguishable; no finite shot count separates them."""


class ZeroExpectedBin(ShotBudgetError):
    """Reference distribution puts zero probability on some bin."""


class BaselineNotAboveTarget(ShotBudgetError):
    """Baseline success probability does not exceed the degraded one."""


class ZeroWeight(ShotBudgetError):
    """A block resolves to zero weight, so no angle can be allocated to it."""


class ZeroBudget(ShotBudgetError):
    """Program fidelity target of 1 leaves a zero error-angle budget."""


def check_range(what: str, value, low=None, high=None, ends: str = "[]", *,
                finite: bool = False, args: tuple = ()) -> None:
    """Raise DomainError unless value lies in the interval low..high, whose
    brackets `ends` gives, or without a high end is >= low.  `finite` first
    rejects inf and NaN; NaN fails every range.  The name is `what % args`
    when args are given, formatted only on failure.

    Messages: "<what> must lie in (0, 1], got 2", "<what> must be >= 1,
    got 0", "<what> must be finite[ and >= 0], got inf".
    """
    if high is None:
        if (not finite or abs(value) <= _FLOAT_MAX) and (low is None or value >= low):
            return
        bounds = (["finite"] if finite else []) + ([] if low is None else [f">= {low:g}"])
        need = "be " + " and ".join(bounds)
    elif finite and not abs(value) <= _FLOAT_MAX:
        need = "be finite"
    else:
        above = low < value if ends[0] == "(" else low <= value
        if above and (value < high if ends[1] == ")" else value <= high):
            return
        need = f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}"
    raise DomainError(f"{what % args if args else what} must {need}, got {value}")


def json_float(what: str, value, error: type = DomainError, *, args: tuple = ()) -> float:
    """A JSON number as a float, else `error` "<what % args>: expected a number, got ...".

    A bool is no number; an int beyond float range becomes inf, as 1e999 does,
    so the caller's finiteness check names it.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what % args if args else what}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def read_json(path: str, error: type = DomainError):
    """The JSON document in the file at path; invalid JSON raises `error` naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None


class Record:
    """Immutable `__slots__` record whose `__init__` checks its input, then stores
    the slots in order through `_set`; equality, hash and repr go by `_fields`."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state) -> None:  # copy and pickle restore the saved slots
        self._set(*map(state[1].__getitem__, self.__slots__))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"
