"""Exception types raised across the package, and the boundary checks.

Everything derives from ShotBudgetError so callers can catch the whole
family with one clause.  DomainError doubles as a ValueError: most of its
sites are argument-range violations, raised by `check_range` in one message
shape.  `check_range` checks every value the package takes by its kind, a real
number by default, a state's entry, a count or a name, whether a caller passes it
or `read_json` reads it out of a state, distribution or program-spec file.
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
_EXPECTED = {float: "a number", complex: "a number", int: "an integer", str: "a nonempty string"}


def check_range(what: str, value, low=None, high=None, ends: str = "[]", *, kind: type = float,
                error: type = DomainError, args: tuple = ()):
    """Return value, checked by its kind, if it lies in the interval low..high, whose brackets
    `ends` gives, or without a high end is >= low; else raise `error` naming `what % args`,
    formatted only on failure.  MISSING stands for a required key that is absent.

    float, the default, takes a real number but a bool (a numpy integer or floating scalar
    too; not a string, None, a complex or `np.True_`) and returns it, finite, as a Python
    float: NaN, inf and a number beyond float range are not finite.  complex, a state's entry,
    also takes a complex number and returns a Python complex whose two parts are finite.
    int takes a value with `__index__` but a bool and returns it, float-sized, as a Python
    int, whose message names the one bound it fails.  str takes a nonempty string.

    Messages: "<what> must lie in (0, 1], got 2", "<what> must be >= 1, got 0", "<what>
    must be finite[ and >= 0], got inf", "<what>: expected a number, got True",
    "<what>: missing"; each bound prints as its caller wrote it, an integer whole.
    """
    if type(value) is float and kind is float and high is None and abs(value) <= _FLOAT_MAX and (
            low is None or value >= low):
        return value  # a plain float without a high end: a file entry's fast path
    if kind is not float or type(value) is not float:  # a plain float needs no type test
        if value is MISSING:
            raise error(f"{what % args if args else what}: missing")
        if not (type(value) is str and value != "" if kind is str else type(value) is not bool and (
                hasattr(value, "__index__") if kind is int else isinstance(value, int) or _number(value, kind))):
            raise error(f"{what % args if args else what}: expected {_EXPECTED[kind]}, got {value!r}")
        if kind is str:
            return value
        try:
            value = value.__index__() if kind is int or isinstance(value, int) else kind(value)
        except OverflowError:  # a Fraction beyond float range stays itself, and is not finite below
            pass
    if high is None:
        if (abs(value.real) <= _FLOAT_MAX >= abs(value.imag) if kind is complex else abs(value) <= _FLOAT_MAX) and (
                low is None or value >= low):
            return value if kind is int else kind(value)
        bounds = ["finite"] + ([] if low is None else [f">= {low}"])
        need = "be " + (bounds[low is not None and value < low] if kind is int else " and ".join(bounds))
    else:  # the bounds are finite, so a value that is not fails them
        if (low < value if ends[0] == "(" else low <= value) and (value < high if ends[1] == ")" else value <= high):
            return float(value) if kind is float else value
        need = f"lie in {ends[0]}{low}, {high}{ends[1]}" if abs(value) <= _FLOAT_MAX else "be finite"
    raise error(f"{what % args if args else what} must {need}, got {value}")


def _number(value, kind: type) -> bool:  # numpy's number scalars join numbers.Complex; loaded only for them
    import numbers  # a third of the time of `from numbers import ...` once loaded
    return isinstance(value, numbers.Complex if kind is complex else numbers.Real)


def check_count(what: str, count, low: int = 1) -> int:
    """A trial, shot or point count as a Python int in [low, 2^63): the Monte Carlo kernel's int64
    range, which also caps the cost of an exact binomial tail (about n^(1/3) near the mean)."""
    count = check_range(what, count, low, kind=int)
    if count >= 2**63:  # the bound the message names
        raise DomainError(f"{what} must lie in [{low}, 2^63), got {count}")
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
