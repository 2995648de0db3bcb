"""Property tests of the paper's claims, drawn over the one formula table.

Hypothesis runs derandomized, with a fixed example budget and no example
database, so every run draws the same examples.
"""

import math
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from shotbudget.errors import DegenerateStates
from shotbudget.shot_estimators import FORMULAS, Formula, estimate

F = Formula
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)

unit = st.floats(min_value=0.0, max_value=1.0)
error_probs = st.floats(min_value=1e-300, max_value=1.0, exclude_max=True, exclude_min=True)
regime_factors = st.floats(min_value=1.0, max_value=2.0)


def _raw(formula: Formula, x: float, p_e: float, regime_factor: float = 1.0) -> float:
    """Raw shot count of one row; infinite where its per-shot Q is 1."""
    if FORMULAS[formula].kind == "Q" and x == 0.0:
        return 0.0  # orthogonal states: callers price one shot
    try:
        return estimate(formula, x, p_e, regime_factor).raw
    except DegenerateStates:
        return math.inf


def _ratio(fid: float, p_e: float) -> float:
    return estimate(F.SWAP_IDEAL, fid, p_e).raw / estimate(F.INVERSE_IDEAL, fid, p_e).raw


class TestSwapCostsTwiceTheInverse:
    # (1 + F)/2 >= sqrt(F), so ln(F) / ln((1 + F)/2) >= 2; near F = 1 the
    # ratio is 2 + (1 - F)/2 + O((1 - F)^2).  Below 1 - F ~ 1e-8 the rounding
    # of (1 + F)/2 outweighs that margin (about half of such F give a ratio
    # a hair under 2), so the draws stop at 1 - F = 1e-6.
    @PROPERTY
    @given(fid=st.floats(min_value=0.0, max_value=1.0 - 1e-6, exclude_min=True), p_e=error_probs)
    def test_swap_needs_at_least_twice_the_shots(self, fid, p_e):
        assert _ratio(fid, p_e) >= 2.0
        assert estimate(F.SWAP_IDEAL, fid, p_e).shots >= 2 * estimate(F.INVERSE_IDEAL, fid, p_e).shots - 1

    @PROPERTY
    @given(fid=st.floats(min_value=0.5, max_value=1.0 - 1e-6), p_e=error_probs)
    def test_ratio_tends_to_two_as_fidelity_nears_one(self, fid, p_e):
        assert 2.0 <= _ratio(fid, p_e) <= 2.0 + (1.0 - fid)


# A few ulps of slack: ln(Q) and the divisions each round once.
_SLACK = 8 * 2.0**-52


@pytest.mark.parametrize("formula", list(Formula), ids=lambda f: f.value)
class TestEveryRowIsMonotone:
    @PROPERTY
    @given(a=unit, b=unit, p_e=error_probs, regime_factor=regime_factors)
    def test_monotone_in_its_input(self, formula, a, b, p_e, regime_factor):
        # a fidelity or Q closer to 1 and a trace distance closer to 0 both
        # mean closer states, which take at least as many shots
        far, near = sorted((a, b))
        if FORMULAS[formula].kind == "trace distance":
            far, near = near, far
        assert _raw(formula, far, p_e, regime_factor) <= (
            _raw(formula, near, p_e, regime_factor) * (1.0 + _SLACK)), (far, near)

    @PROPERTY
    @given(x=unit, p1=error_probs, p2=error_probs, regime_factor=regime_factors)
    def test_non_increasing_in_error_probability(self, formula, x, p1, p2, regime_factor):
        strict, loose = sorted((p1, p2))
        tight = _raw(formula, x, strict, regime_factor)
        relaxed = _raw(formula, x, loose, regime_factor)
        assert relaxed <= tight * (1.0 + _SLACK), (strict, loose)


_FALSE_PROPERTY = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=20, derandomize=True, database=None)
    @given(st.integers(min_value=0, max_value=10))
    def test_false(x):
        assert x < 5
""")


def test_a_falsified_property_fails_only_its_own_test(tmp_path):
    # on a failure Hypothesis imports libcst to write a patch; under the
    # repo's "error" warning filter that import must not end the session
    (tmp_path / "test_false.py").write_text(_FALSE_PROPERTY, encoding="utf-8")
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject), "test_false.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
