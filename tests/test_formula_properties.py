"""Property tests of the paper's claims, drawn over the one formula table,
the binomial planner and the budget allocator, and of the spec parser
against the per-field checks that word its errors.

Hypothesis runs derandomized, with a fixed example budget and no example
database, so every run draws the same examples.
"""

import functools
import math
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import assume, given, settings, strategies as st

from shotbudget.budget import BlockSpec, HardwareRates, ProgramSpec, allocate, parse_program_spec
from shotbudget.cli import _SHOT_TESTS
from shotbudget.errors import DegenerateStates, DomainError, check_range
from shotbudget.shot_estimators import FORMULAS, Formula, ShotBounds, estimate
from shotbudget.stat_power import (
    binomial_rejection_threshold,
    lambda_noncentral,
    two_proportion_shots,
    w2_fidelity_attaining,
)

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


# the (lower, upper) row pairs that `shots` prices for each bracketed test
BRACKETS = [rows for rows in _SHOT_TESTS.values() if len(rows) == 2]


@pytest.mark.parametrize("lower, upper", BRACKETS, ids=lambda f: f.value)
class TestBracketsAreOrdered:
    # each pair brackets the per-shot Q from below and above (1 - sqrt(1 - F)
    # <= Q <= sqrt(F), 1 - T <= Q <= 1 - T^2 and its mixed analogue), and a
    # smaller Q takes fewer shots, so the lower row never prices above the upper
    @PROPERTY
    @given(x=unit, p_e=error_probs)
    def test_lower_never_exceeds_upper(self, lower, upper, x, p_e):
        low, high = _raw(lower, x, p_e), _raw(upper, x, p_e)
        assert low <= high, (low, high)
        if high < math.inf:  # both rows priced: the bracket itself accepts them
            bounds = ShotBounds(estimate(lower, x, p_e), estimate(upper, x, p_e))
            assert bounds.lower.raw <= bounds.upper.raw


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


def _blocks(weights, multiplicities) -> list[BlockSpec]:
    return [BlockSpec(name=f"b{i}", multiplicity=n, explicit_weight=w)
            for i, (w, n) in enumerate(zip(weights, multiplicities))]


_NO_RATES = HardwareRates(r1=0.0, r2=0.0)


# alpha and beta up to 1/2 keep both z values >= 0
risks = st.floats(min_value=1e-12, max_value=0.5)


class TestNoiseNeverLowersACount:
    # the root of the two-proportion count is N(q1) / (q0 - q1) with N >= 0
    # concave in q1, so N(q1) + N'(q1) (q0 - q1) >= N(q0) >= 0 and the count
    # grows as the degraded rate q1 closes in on the baseline q0
    @PROPERTY
    @given(q0=st.floats(min_value=1e-6, max_value=1.0), a=unit, b=unit, alpha=risks, beta=risks)
    def test_count_grows_as_q1_nears_q0(self, q0, a, b, alpha, beta):
        far, near = sorted((q0 * a, q0 * b))
        assume(near < q0)
        assert two_proportion_shots(q0, far, alpha, beta).raw <= (
            two_proportion_shots(q0, near, alpha, beta).raw * (1.0 + _SLACK)), (far, near)

    @PROPERTY
    @given(q0=st.floats(min_value=1e-6, max_value=1.0), a=unit, alpha=risks, beta=risks)
    def test_two_sided_needs_at_least_the_one_sided_count(self, q0, a, alpha, beta):
        q1 = q0 * a
        assume(q1 < q0)
        one = two_proportion_shots(q0, q1, alpha, beta)
        assert two_proportion_shots(q0, q1, alpha, beta, one_sided=False).raw >= one.raw

    # both z values fall as their risk grows, and neither goes below 0 in `risks`
    @PROPERTY
    @given(q0=st.floats(min_value=1e-6, max_value=1.0), a=unit, r1=risks, r2=risks, other=risks)
    def test_count_never_grows_as_alpha_or_beta_loosens(self, q0, a, r1, r2, other):
        q1 = q0 * a
        assume(q1 < q0)
        strict, loose = sorted((r1, r2))

        def raw(alpha, beta, one_sided):
            return two_proportion_shots(q0, q1, alpha, beta, one_sided=one_sided).raw

        for one_sided in (True, False):
            assert raw(loose, other, one_sided) <= raw(strict, other, one_sided) * (1.0 + _SLACK), strict
            assert raw(other, loose, one_sided) <= raw(other, strict, one_sided) * (1.0 + _SLACK), strict

    # R scales the raw count of each circuit test after its log ratio, so a
    # scaled row is R times its ideal row bit for bit, and never cheaper
    @pytest.mark.parametrize("ideal, real", [(F.INVERSE_IDEAL, F.INVERSE_REAL), (F.SWAP_IDEAL, F.SWAP_REAL)],
                             ids=["inverse", "swap"])
    @PROPERTY
    @given(fid=st.floats(min_value=0.0, max_value=1.0, exclude_max=True), p_e=error_probs,
           regime_factor=regime_factors)
    def test_a_scaled_row_is_r_times_its_ideal_row(self, ideal, real, fid, p_e, regime_factor):
        clean, noisy = estimate(ideal, fid, p_e), estimate(real, fid, p_e, regime_factor)
        assert noisy.raw == regime_factor * clean.raw
        assert noisy.shots >= clean.shots

    @PROPERTY
    @given(weights=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=20),
           f_prog=st.floats(min_value=0.0, max_value=1.0 - 1e-12, exclude_min=True), p_e=error_probs,
           regime_factor=regime_factors)
    def test_budget_circuit_columns_are_r_times_the_ideal_ones(self, weights, f_prog, p_e, regime_factor):
        blocks = _blocks(weights, [1] * len(weights))
        clean = allocate(blocks, _NO_RATES, f_prog, p_e).columns
        noisy = allocate(blocks, _NO_RATES, f_prog, p_e, regime_factor).columns
        for kind in ("raw_inverse", "raw_swap"):
            assert noisy[kind] == tuple(regime_factor * raw for raw in clean[kind]), kind


# the bin counts of `curve test_comparison`, at its default alpha = beta = 0.01
CURVE_BINS = (2, 4, 8, 16, 32, 64, 128)


@functools.cache
def _curve_lambda(bins: int) -> float:
    return lambda_noncentral(bins - 1, 0.01, 0.99)


@pytest.mark.parametrize("bins", CURVE_BINS)
class TestChiSquareCostsMoreThanTheInverse:
    # With s = sqrt(F) the inverse raw is ln(1/p_e) / (2 ln(1/s)) and the
    # attaining chi-square raw is 4 lam / (1 - s)^2.  Their ratio is
    # 8 lam ln(1/s) / ((1 - s)^2 ln(1/p_e)), and ln(1/s) / (1 - s)^2 >= 2.45
    # on (0, 1), so chi-square costs more for p_e >= exp(-19 lam): about
    # 1e-198 at lam(2 bins) = 24.  The draws stop at 1e-100.
    @PROPERTY
    @given(fid=st.floats(min_value=0.0, max_value=1.0 - 1e-12),
           p_e=st.floats(min_value=1e-100, max_value=1.0, exclude_max=True))
    def test_attaining_chisq_count_covers_the_inverse_count(self, bins, fid, p_e):
        lam = _curve_lambda(bins)
        chisq = max(1, math.ceil(lam / w2_fidelity_attaining(fid)))
        assert chisq >= estimate(F.INVERSE_IDEAL, fid, p_e).shots, lam


shot_counts = st.integers(min_value=1, max_value=2_000)
baselines = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


class TestRejectionThresholdIsMonotone:
    # a larger alpha widens the rejection region, and Bin(n + 1, q0) is
    # stochastically above Bin(n, q0), so P[... <= k] only falls as n grows
    @PROPERTY
    @given(n=shot_counts, q0=baselines, a1=open_unit, a2=open_unit)
    def test_non_decreasing_in_alpha(self, n, q0, a1, a2):
        strict, loose = sorted((a1, a2))
        assert binomial_rejection_threshold(n, q0, strict) <= binomial_rejection_threshold(n, q0, loose)

    @PROPERTY
    @given(n1=shot_counts, n2=shot_counts, q0=baselines, alpha=open_unit)
    def test_non_decreasing_in_shot_count(self, n1, n2, q0, alpha):
        few, many = sorted((n1, n2))
        assert binomial_rejection_threshold(few, q0, alpha) <= binomial_rejection_threshold(many, q0, alpha)


class TestAllocation:
    @PROPERTY
    @given(weights=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=20),
           multiplicities=st.lists(st.integers(min_value=1, max_value=1000), min_size=20, max_size=20),
           f_prog=st.floats(min_value=0.0, max_value=1.0 - 1e-12, exclude_min=True), p_e=error_probs)
    def test_instance_angles_sum_to_the_program_angle(self, weights, multiplicities, f_prog, p_e):
        report = allocate(_blocks(weights, multiplicities), _NO_RATES, f_prog, p_e)
        assert math.isclose(report.total_angle, report.theta_star, rel_tol=1e-12)

    # finer decomposition costs more: k parts of weight w/k get theta/k each,
    # and each prices at about k^2 times the shots of the whole block
    @PROPERTY
    @given(weights=st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=1, max_size=5),
           multiplicities=st.lists(st.integers(min_value=1, max_value=4), min_size=5, max_size=5),
           index=st.integers(min_value=0, max_value=4), parts=st.integers(min_value=2, max_value=8),
           f_prog=st.floats(min_value=0.5, max_value=0.99))
    def test_splitting_a_block_never_lowers_a_total(self, weights, multiplicities, index, parts, f_prog):
        j = index % len(weights)
        whole = allocate(_blocks(weights, multiplicities), _NO_RATES, f_prog, 0.05)
        split_weights = weights[:j] + [weights[j] / parts] * parts + weights[j + 1:]
        split_mult = multiplicities[:j] + [multiplicities[j]] * parts + multiplicities[j + 1:]
        split = allocate(_blocks(split_weights, split_mult), _NO_RATES, f_prog, 0.05)
        assume(not (whole.any_infeasible or split.any_infeasible))
        for kind, total in whole.totals.items():
            assert split.totals[kind] >= total, kind


# a block entry with every field valid or absent, or with exactly one bad field
_NOT_NUMBERS = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(), max_size=1))
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -(10**400)])
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**30), 10**30))
_NONNEGATIVE = st.one_of(st.floats(min_value=0.0, max_value=1e300), st.integers(0, 10**30))
_ENTRY_FIELDS = {
    "name": (st.text(min_size=1, max_size=5), st.one_of(st.just(""), st.integers(), st.none())),
    "multiplicity": (st.integers(1, 10**30),
                     st.one_of(st.integers(max_value=0), st.booleans(), st.floats(), _NOT_NUMBERS)),
    "g1": (_NONNEGATIVE, st.one_of(_NOT_NUMBERS, _NON_FINITE, st.floats(max_value=-1e-300))),
    "g2": (_NONNEGATIVE, st.one_of(_NOT_NUMBERS, _NON_FINITE, st.integers(max_value=-1))),
    "depth": (_NONNEGATIVE, st.one_of(_NOT_NUMBERS, _NON_FINITE, st.floats(max_value=-1e-300))),
    "weight": (_FINITE, st.one_of(_NOT_NUMBERS, _NON_FINITE)),
}


@st.composite
def _block_entries(draw):
    fault = draw(st.sampled_from([None, "entry", *_ENTRY_FIELDS]))
    if fault == "entry":
        return draw(st.one_of(_NOT_NUMBERS, _FINITE))
    entry = {}
    for key, (good, bad) in _ENTRY_FIELDS.items():
        if key == fault:
            if key == "name" and draw(st.booleans()):
                continue  # a missing name
            entry[key] = draw(bad)
        elif key == "name" or draw(st.booleans()):
            entry[key] = draw(good)
    return entry


def _entry_error(entry, path: str = "/blocks/0") -> str | None:
    """The message the per-field checks give for one block entry, or None if it is valid."""
    if not isinstance(entry, dict):
        return f"{path}: expected an object"
    name = entry.get("name")
    if not isinstance(name, str) or not name:
        return f"{path}/name: expected a nonempty string, got {name!r}"
    count = entry.get("multiplicity", 1)
    if type(count) is not int:
        return f"{path}/multiplicity: expected an integer, got {count!r}"
    try:
        check_range(f"{path}/multiplicity", count, 1, kind=int)
        for key, low in (("g1", 0), ("g2", 0), ("depth", 0), ("weight", None)):
            if key in entry:
                value = entry[key]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    return f"{path}/{key}: expected a number, got {value!r}"
                check_range(f"{path}/{key}", value, low)
    except DomainError as exc:
        return str(exc)
    return None


class TestSpecParse:
    @PROPERTY
    @given(entry=_block_entries())
    def test_a_block_parses_as_its_fields_or_fails_as_they_do(self, entry):
        doc = {"fidelity_target": 0.99, "p_e": 0.05, "hardware": {"r1": 1e-3, "r2": 1e-2}, "blocks": [entry]}
        message = _entry_error(entry)
        if message is not None:
            with pytest.raises(DomainError) as info:
                parse_program_spec(doc)
            assert str(info.value) == message
            return
        (block,) = parse_program_spec(doc).blocks
        numbers = [float(entry.get(key, 0.0)) for key in ("g1", "g2", "depth")]
        weight = float(entry["weight"]) if "weight" in entry else None
        assert block == BlockSpec(entry["name"], entry.get("multiplicity", 1), *numbers, weight)
        assert all(type(getattr(block, key)) is float for key in ("g1", "g2", "depth"))
        assert weight is None or type(block.explicit_weight) is float

    @PROPERTY
    @given(entries=st.lists(_block_entries(), min_size=1, max_size=3))
    def test_hand_built_columns_check_as_their_rows_do(self, entries):
        # ProgramSpec's column pass accepts the columns exactly when BlockSpec accepts
        # every row, and otherwise raises what BlockSpec raises for the first bad row;
        # a valid first row keeps a bad value from leading its column
        keys = (("name", None), ("multiplicity", 1), ("g1", 0.0), ("g2", 0.0), ("depth", 0.0), ("weight", None))
        rows = [["a", 2, 1.0, 1.0, 1.0, 1.0]]
        rows += [[entry.get(key, default) for key, default in keys] for entry in entries if isinstance(entry, dict)]
        columns = dict(zip(BlockSpec._fields, map(list, zip(*rows))))
        try:
            blocks = tuple(BlockSpec(*row) for row in rows)
        except DomainError as exc:
            with pytest.raises(DomainError) as info:
                ProgramSpec(0.99, 0.05, 1.0, HardwareRates(1e-3, 1e-2), columns)
            assert str(info.value) == str(exc)
            return
        assert ProgramSpec(0.99, 0.05, 1.0, HardwareRates(1e-3, 1e-2), columns).blocks == blocks


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
