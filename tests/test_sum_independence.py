"""Pinned bytes do not depend on how the interpreter's sum() adds floats.

Python 3.12 and later sum floats with Neumaier compensation; 3.10 and 3.11 add
them left to right.  Here every `shotbudget` module sees a Neumaier sum() in
place of the builtin, and the budget and CLI goldens must still hold.
"""

import builtins
import hashlib
import importlib
import math
import pkgutil

import shotbudget
import test_budget_golden as budget_golden
import test_cli_golden as cli_golden
from test_budget_golden import spec_paths  # noqa: F401 (fixture)
from test_cli_golden import input_dir  # noqa: F401 (fixture)


def _neumaier_sum(iterable, /, start=0):
    """sum() as Python 3.12 adds floats; anything but floats goes to the builtin."""
    items = list(iterable)
    if not items or not all(type(v) is float for v in items):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for v in items:
        t = total + v
        c += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_goldens_hold_under_a_compensated_sum(spec_paths, input_dir, monkeypatch, capsys):  # noqa: F811
    assert (_neumaier_sum([1.0, 1e100, 1.0, -1e100]), builtins.sum([1.0, 1e100, 1.0, -1e100])) in (
        (2.0, 0.0), (2.0, 2.0))  # compensated, against a 3.10/3.11 or a 3.12+ builtin
    for info in pkgutil.iter_modules(shotbudget.__path__):
        if info.name != "__main__":
            monkeypatch.setattr(importlib.import_module(f"shotbudget.{info.name}"), "sum", _neumaier_sum,
                                raising=False)
    moved = []
    for spec, fmt, strict in sorted(budget_golden.GOLDEN):
        argv = ["budget", "--spec", spec_paths[spec], "--out", fmt] + (["--strict"] if strict else [])
        code, out = budget_golden._run(capsys, argv)
        if (code, hashlib.sha256(out).hexdigest()) != budget_golden.GOLDEN[spec, fmt, strict]:
            moved.append((spec, fmt, strict))
    for case in cli_golden.ALL_CASES:
        code, out, _ = cli_golden._run(capsys, monkeypatch, input_dir, case)
        if (code, hashlib.sha256(out).hexdigest()) != cli_golden.GOLDEN[case]:
            moved.append(case)
    assert not moved
