"""Exception types raised across the package, and the boundary checks.

Everything derives from ShotBudgetError so callers can catch the whole
family with one clause.  DomainError doubles as a ValueError: most of its
sites are argument-range violations, raised by `check_range` in one message
shape.  `read_json` reads the state, distribution and program-spec files,
and `check_range`, given the value's kind, checks every value taken out of them.
"""

import json
import sys

_FLOAT_MAX = sys.float_info.max


class ShotBudgetError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ShotBudgetError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoConvergence(ShotBudgetError):
    """An iterative kernel exhausted its iteration budget."""


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


MISSING = object()  # check_range's value for a required key that a file leaves out
_EXPECTED = {float: "a number", int: "an integer", str: "a nonempty string"}


def check_range(what: str, value, low=None, high=None, ends: str = "[]", *, finite: bool = False,
                kind: type | None = None, error: type = DomainError, args: tuple = ()):
    """Return value if it lies in the interval low..high, whose brackets `ends` gives, or
    without a high end is >= low; else raise `error` naming `what % args`, formatted only
    on failure.  `finite` first rejects inf and NaN; NaN fails every range.

    `kind` checks the value's type first.  float takes a number that is no bool and
    returns it, finite, as a float (an int beyond float range is not finite); int takes
    a value with `__index__` but a bool (a numpy integer, not `np.True_`) and returns
    it, float-sized, as a Python int, whose message names the one bound it fails; str a
    nonempty string.  MISSING stands for a required key that is absent.

    Messages: "<what> must lie in (0, 1], got 2", "<what> must be >= 1, got 0", "<what>
    must be finite[ and >= 0], got inf", "<what>: expected a number, got True",
    "<what>: missing".
    """
    if type(value) is float and kind is float and low is high is None and abs(value) <= _FLOAT_MAX:
        return value  # a plain file entry
    if value is MISSING:
        raise error(f"{what % args if args else what}: missing")
    if kind is int and type(value) is not bool and hasattr(value, "__index__"):
        value = value.__index__()  # a numpy integer as a Python int
    if kind is not None and not (isinstance(value, (int, float)) and type(value) is not bool if kind is float
                                 else type(value) is kind and value != ""):
        raise error(f"{what % args if args else what}: expected {_EXPECTED[kind]}, got {value!r}")
    if kind is str:
        return value
    finite = finite or kind is not None
    if high is None:
        if (not finite or abs(value) <= _FLOAT_MAX) and (low is None or value >= low):
            return float(value) if kind is float else value
        bounds = (["finite"] if finite else []) + ([] if low is None else [f">= {low:g}"])
        need = "be " + (bounds[low is not None and value < low] if kind is int else " and ".join(bounds))
    elif finite and not abs(value) <= _FLOAT_MAX:
        need = "be finite"
    else:
        above = low < value if ends[0] == "(" else low <= value
        if above and (value < high if ends[1] == ")" else value <= high):
            return float(value) if kind is float else value
        need = f"lie in {ends[0]}{low:g}, {high:g}{ends[1]}"
    raise error(f"{what % args if args else what} must {need}, got {value}")


def check_count(what: str, count) -> int:
    """A trial or shot count as a Python int in [1, 2^63): the Monte Carlo kernel's int64 range,
    which also caps the cost of an exact binomial tail (about n^(1/3) near the mean)."""
    count = check_range(what, count, 1, kind=int)
    if count >= 2**63:  # the bound the message names
        raise DomainError(f"{what} must lie in [1, 2^63), got {count}")
    return count


def read_json(path: str, error: type = DomainError):
    """The JSON document in the file at path; a file that does not read as JSON (bad syntax or
    UTF-8, an integer literal past Python's digit limit) raises `error` naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
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
