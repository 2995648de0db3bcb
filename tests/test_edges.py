"""Every bound at its edge: each check is called at the edge value and one step past it on
both sides, an ulp for a real number and one for a count.  The edge passes where its
interval is closed and fails where it is open; the step outside fails and the step inside
passes.  Edges that `tolerances` defines are read from it, so a changed constant moves the
test with it, while a check that compares the other way, or against another value, fails one
of the three calls.

"Fails" means the call raises a ShotBudgetError whose message holds the check's own
wording.  Anything else passes that check: a result, or another check's error further on
(a q0 of 0 passes its range and then fails q1 < q0)."""

import importlib.util
import math
import pathlib

import pytest

from conftest import deadline
from shotbudget import (
    Distribution,
    Formula,
    HardwareRates,
    McConfig,
    ProgramSpec,
    ShotBounds,
    ShotBudgetError,
    ShotEstimate,
    binomial_cdf,
    binomial_rejection_threshold,
    chisq_validity,
    lambda_noncentral,
    parse_program_spec,
    simulate_binomial_detection,
    simulate_chisq_power,
    simulate_inverse_miss_rate,
    two_proportion_shots,
)
from shotbudget import cli
from shotbudget import tolerances as tol
from shotbudget.stat_power import chi2_quantile
from shotbudget.states import _clamp_unit

BINS = f"bins must lie in [2, {tol.CHISQ_MAX_BINS}], got"
COUNT = "observed count must lie in [0, 10], got"
# an alpha or beta where 1 - it is taken, and a two-sided plan's alpha, which it halves first
ALPHA, BETA = (f"{what} must lie in ({tol.ERROR_RATE_FLOOR}, 1), got" for what in ("alpha", "beta"))
TWO_SIDED = f"alpha must lie in ({2 * tol.ERROR_RATE_FLOOR}, 1), got"
HALVES = Distribution([0.5, 0.5])
SLACK = 1e-12  # ShotBounds' relative and absolute slack on an inverted pair
UPPER = ShotEstimate(1000.0, 1000, Formula.PURE)
TRIALS = McConfig(50, seed=7)
# the largest total the sum check takes: 1 + DISTRIBUTION_SUM_ATOL, rounded, or the float below it
SUM_EDGE = max(t for t in (1.0 + tol.DISTRIBUTION_SUM_ATOL, math.nextafter(1.0 + tol.DISTRIBUTION_SUM_ATOL, 0.0))
               if t - 1.0 <= tol.DISTRIBUTION_SUM_ATOL)


def _spec(**fields) -> ProgramSpec:
    columns = {"name": ("a",), "multiplicity": (1,), "g1": (5.0,), "g2": (2.0,), "depth": (0.0,),
               "explicit_weight": (None,)}
    return ProgramSpec(**{"fidelity_target": 0.99, "p_e": 0.05, "regime_factor": 1.0,
                          "hardware": HardwareRates(1e-3, 1e-2), "columns": columns, **fields})


def _spec_file(bins: int, **chisq) -> ProgramSpec:
    return parse_program_spec({"fidelity_target": 0.99, "p_e": 0.05, "chisq": {"bins": bins, **chisq},
                               "hardware": {"r1": 1e-3, "r2": 1e-2}, "blocks": [{"name": "a", "g1": 5}]})


def _validity(n_shots: int, q0: float) -> None:
    # chisq_validity's first advice, as an error, for bins (q0, 1 - q0)
    for advice in chisq_validity(n_shots, Distribution([q0, 1.0 - q0])):
        raise ShotBudgetError(advice)


def _curve(points: int) -> cli.CurveRequest:
    return cli.CurveRequest("fid_vs_shots", 0.9, 0.99, points, cli.TestPlanParams(0.05, 0.01, 0.01, 1.0))


# (id, the check's wording, a call with the value as its one free argument, the edge,
# whether the edge passes, and the side past the edge: -1 below it, +1 above it)
EDGES = [
    ("bins-low", BINS, lambda v: _spec(chisq_bins=v), 2, True, -1),
    ("bins-high", BINS, lambda v: _spec(chisq_bins=v), tol.CHISQ_MAX_BINS, True, +1),
    ("spec-bins-low", "/chisq/" + BINS, _spec_file, 2, True, -1),
    ("spec-bins-high", "/chisq/" + BINS, _spec_file, tol.CHISQ_MAX_BINS, True, +1),
    ("observed-count-low", COUNT, lambda v: binomial_cdf(v, 10, 0.5), 0, True, -1),
    ("observed-count-high", COUNT, lambda v: binomial_cdf(v, 10, 0.5), 10, True, +1),
    ("curve-points-low", "curve points must be >= 2, got", _curve, 2, True, -1),
    ("curve-points-high", "curve points must lie in [2, 2^63), got", _curve, 2**63 - 1, True, +1),
    ("trials-low", "trials must be >= 1, got", McConfig, 1, True, -1),
    ("trials-high", "trials must lie in [1, 2^63), got", McConfig, 2**63 - 1, True, +1),
    ("seed-low", "seed must lie in [0, 2^64), got", lambda v: McConfig(1, v), 0, True, -1),
    ("seed-high", "seed must lie in [0, 2^64), got", lambda v: McConfig(1, v), 2**64 - 1, True, +1),
    ("miss-rate-fidelity-low", "fidelity must lie in [0, 1), got",
     lambda v: simulate_inverse_miss_rate(v, 5, TRIALS), 0.0, True, -1),
    ("miss-rate-fidelity-high", "fidelity must lie in [0, 1), got",
     lambda v: simulate_inverse_miss_rate(v, 5, TRIALS), 1.0, False, +1),
    ("q0-low", "q0 must lie in [0, 1], got", lambda v: two_proportion_shots(v, 0.0, 0.01, 0.01), 0.0, True, -1),
    ("q0-high", "q0 must lie in [0, 1], got", lambda v: two_proportion_shots(v, 0.9, 0.01, 0.01), 1.0, True, +1),
    ("q1-low", "q1 must lie in [0, 1], got", lambda v: two_proportion_shots(0.99, v, 0.01, 0.01), 0.0, True, -1),
    ("q1-high", "q1 must lie in [0, 1], got", lambda v: two_proportion_shots(0.99, v, 0.01, 0.01), 1.0, True, +1),
    ("alpha-low", ALPHA, lambda v: two_proportion_shots(0.99, 0.9, v, 0.01), tol.ERROR_RATE_FLOOR, False, -1),
    ("alpha-high", ALPHA, lambda v: two_proportion_shots(0.99, 0.9, v, 0.01), 1.0, False, +1),
    ("beta-low", BETA, lambda v: two_proportion_shots(0.99, 0.9, 0.01, v), tol.ERROR_RATE_FLOOR, False, -1),
    ("beta-high", BETA, lambda v: two_proportion_shots(0.99, 0.9, 0.01, v), 1.0, False, +1),
    ("two-sided-alpha-low", TWO_SIDED, lambda v: two_proportion_shots(0.99, 0.9, v, 0.01, one_sided=False),
     2 * tol.ERROR_RATE_FLOOR, False, -1),
    ("chisq-alpha-low", ALPHA, lambda v: _spec(chisq_alpha=v), tol.ERROR_RATE_FLOOR, False, -1),
    ("chisq-beta-low", BETA, lambda v: _spec(chisq_beta=v), tol.ERROR_RATE_FLOOR, False, -1),
    ("spec-alpha-low", "/chisq/" + ALPHA, lambda v: _spec_file(16, alpha=v), tol.ERROR_RATE_FLOOR, False, -1),
    ("spec-beta-low", "/chisq/" + BETA, lambda v: _spec_file(16, beta=v), tol.ERROR_RATE_FLOOR, False, -1),
    ("lambda-alpha-low", ALPHA, lambda v: lambda_noncentral(15, v, 0.5), tol.ERROR_RATE_FLOOR, False, -1),
    ("chisq-simulator-alpha-low", ALPHA, lambda v: simulate_chisq_power(HALVES, HALVES, 5, v, TRIALS),
     tol.ERROR_RATE_FLOOR, False, -1),
    ("alpha-at-most-half", "alpha (one-sided) and beta must be at most 0.5",
     lambda v: two_proportion_shots(0.99, 0.9, v, 0.01), 0.5, True, +1),
    # advice, not an error: 13 shots are enough, and a bin whose expected count N q_i is
    # exactly 5 is not below 5
    ("chisq-validity-shots", "chi-square approximation wants at least 13", lambda v: _validity(v, 0.5),
     13, True, -1),
    ("chisq-validity-expected-count", "expected count below 5", lambda v: _validity(20, v), 0.25, True, -1),
    ("chi2-quantile-low", "quantile probability must lie in (0, 1), got", lambda v: chi2_quantile(v, 3.0),
     0.0, False, -1),
    ("chi2-quantile-high", "quantile probability must lie in (0, 1), got", lambda v: chi2_quantile(v, 3.0),
     1.0, False, +1),
    # simulate_binomial_detection checks q0 first; a direct call has only this check
    ("threshold-q0-low", "baseline q0 must lie in (0, 1], got", lambda v: binomial_rejection_threshold(10, v, 0.05),
     0.0, False, -1),
    ("threshold-q0-high", "baseline q0 must lie in (0, 1], got", lambda v: binomial_rejection_threshold(10, v, 0.05),
     1.0, True, +1),
    # checked before the shot count, so a bad q0 is named before a bad count (0 here)
    ("detection-q0-low", "baseline q0 must lie in (0, 1], got",
     lambda v: simulate_binomial_detection(v, 0.0, 0, 0.05, TRIALS), 0.0, False, -1),
    ("detection-q0-high", "baseline q0 must lie in (0, 1], got",
     lambda v: simulate_binomial_detection(v, 0.9, 0, 0.05, TRIALS), 1.0, True, +1),
    # lambda_noncentral's rule on the power, which a hand-built ProgramSpec meets when it is
    # built, not later in allocate
    ("spec-power-above-alpha", "power must lie in (alpha, 1), got", lambda v: _spec(chisq_alpha=v, chisq_beta=0.5),
     0.5, False, +1),
    ("lambda-power-above-alpha", "power must lie in (alpha, 1), got", lambda v: lambda_noncentral(15, v, 0.5),
     0.5, False, +1),
    ("distribution-sum", "probabilities sum to", lambda v: Distribution([v, 0.0]), SUM_EDGE, True, +1),
    ("shot-bounds-slack", "shot bounds inverted", lambda v: ShotBounds(ShotEstimate(v, 1000, Formula.PURE), UPPER),
     UPPER.raw * (1.0 + SLACK) + SLACK, True, +1),
    ("unit-interval-slack-low", "is negative beyond numerical slack", lambda v: _clamp_unit(v, "fidelity"),
     -tol.UNIT_INTERVAL_SLACK, True, -1),
    ("unit-interval-slack-high", "exceeds 1 beyond numerical slack", lambda v: _clamp_unit(v, "fidelity"),
     1.0 + tol.UNIT_INTERVAL_SLACK, True, +1),
]


def _fails(call, value, wording: str) -> bool:
    """Whether call(value) raises the check's own error; any other outcome passes it."""
    try:
        with deadline(5):
            call(value)
    except ShotBudgetError as exc:
        return wording in str(exc)
    return False


@pytest.mark.parametrize("wording, call, edge, closed, past", [edge[1:] for edge in EDGES],
                         ids=[edge[0] for edge in EDGES])
def test_each_check_holds_at_its_edge(wording, call, edge, closed, past):
    step = (lambda v, side: v + side) if type(edge) is int else (lambda v, side: math.nextafter(v, side * math.inf))
    outcomes = [_fails(call, value, wording) for value in (step(edge, -past), edge, step(edge, past))]
    assert outcomes == [False, not closed, True], (step(edge, -past), edge, step(edge, past))


def test_every_mutant_changes_a_line_that_is_in_its_module_once():
    # tools/mutants.py runs outside tier-1, where a stale entry would show only at its turn
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("mutants", root / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)  # its main runs only as a script
    stale = [(module, source) for module, source, mutant, _ in mutants.MUTANTS
             if mutant == source or (root / "src" / "shotbudget" / module).read_text(encoding="utf-8").count(source) != 1]
    assert stale == []
