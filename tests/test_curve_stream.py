"""`curve` prices its two grid ends, then streams every row through the one
row writer.  Two claims make that safe and worth it:

- each column is monotone in the grid point, so if both ends price, every
  point prices, and a failing grid writes nothing;
- the rows go out in fixed chunks, so peak memory does not grow with the
  point count.

The property runs Hypothesis derandomized, with no example database, so
every run draws the same examples.
"""

import functools
import io
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from shotbudget import cli
from shotbudget import shot_estimators as est
from shotbudget import stat_power as sp
from shotbudget.errors import ShotBudgetError

F = est.Formula
PARAMS = cli.TestPlanParams(p_e=0.05, alpha=0.01, beta=0.01, regime_factor=2.0)
BINS = (2, 16)

# values on and just past the edges of every curve's domain, mixed with plain draws
EDGES = [0.5, 0.9, 0.97, 1.0 - 2.0**-52, 1.0 - 2.0**-53, 1.0, 0.0, 5e-324, 1e-300, 1e-299, 1e-170,
         1e-9, 1e-8, -5e-324, -0.5, 1.0 + 2.0**-52, 1.5]
values = st.one_of(st.sampled_from(EDGES), st.floats(min_value=0.0, max_value=1.0),
                   st.floats(min_value=-0.25, max_value=1.25))
# noise_binomial's grid is q0, which prices only above every q1: draw q1 mostly below q0
q0s = st.one_of(st.sampled_from(EDGES), st.floats(min_value=0.3, max_value=1.0))
q1s = st.one_of(st.sampled_from([0.0, 0.5, 0.9, 0.97, 5e-324, 1e-300, -0.5, 1.5]),
                st.floats(min_value=0.0, max_value=0.3))


@functools.cache
def _lam(bins: int) -> float:
    return sp.chisq_noncentrality(bins, PARAMS.alpha, PARAMS.beta)


def _cells(curve: str, x: float, q1_values) -> list:
    """Every priced cell of one curve row at grid point x, through the public formulas."""
    if curve in ("fid_vs_shots", "trace_vs_shots"):
        return [est.estimate(f, x, PARAMS.p_e) for f in cli._CURVE_FORMULAS[curve][1]]
    if curve == "test_comparison":
        cells = [est.estimate(f, x, PARAMS.p_e) for f in (F.INVERSE_IDEAL, F.SWAP_IDEAL)]
        w2s = (sp.w2_small_discrepancy(x), sp.w2_fidelity_attaining(x))
        return cells + [est._shot_count(_lam(k) / w2) for k in BINS for w2 in w2s]
    cells = []
    for q1 in q1_values:
        cells.append(sp.two_proportion_shots(x, q1, PARAMS.alpha, PARAMS.beta))
        cells += [est.estimate(f, q1, PARAMS.p_e, PARAMS.regime_factor) for f in (F.INVERSE_REAL, F.SWAP_REAL)]
    return cells


def _prices(curve: str, x: float, q1_values) -> bool:
    try:
        _cells(curve, x, q1_values)
    except ShotBudgetError:  # any other exception fails the test
        return False
    return True


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(curve=st.sampled_from(sorted(cli._CURVE_DEFAULTS)), data=st.data(),
       points=st.integers(min_value=2, max_value=40), q1_values=st.lists(q1s, min_size=1, max_size=3))
def test_grid_ends_decide_every_point_and_a_failing_grid_writes_nothing(curve, data, points, q1_values):
    bounds = q0s if curve == "noise_binomial" else values
    start, stop = sorted(data.draw(st.lists(bounds, min_size=2, max_size=2)))
    assume(start < stop)
    request = cli.CurveRequest(curve, start, stop, points, PARAMS, BINS, tuple(q1_values))
    step = (stop - start) / (points - 1)
    priced = [_prices(curve, start + i * step, q1_values) for i in range(points)]
    if priced[0] and priced[-1]:
        assert all(priced), (start, stop, points, priced.index(False))
    out = io.StringIO()
    try:
        cli.emit_curve(request, out=out)
    except ShotBudgetError:
        assert not all(priced)
        assert out.getvalue() == ""
    else:
        assert all(priced)
        assert out.getvalue().count("\n") == points + 1


def test_an_unknown_curve_writes_nothing():
    out = io.StringIO()
    with pytest.raises(ShotBudgetError, match=r"^unknown curve 'bogus'$"):
        cli.emit_curve(cli.CurveRequest("bogus", 0.9, 0.99, 5, PARAMS), out=out)
    assert out.getvalue() == ""


class _Sink:
    """A stream that keeps nothing, so only the writer's own memory is measured."""

    def write(self, text: str) -> None:
        pass


def _peak_bytes(points: int) -> int:
    request = cli.CurveRequest("fid_vs_shots", 0.001, 0.99999, points, PARAMS)
    tracemalloc.start()
    try:
        cli.emit_curve(request, out=_Sink())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_curve_memory_does_not_grow_with_the_point_count():
    # both counts cross a 1,024-row chunk join; holding every row grows the peak ~10x
    small, large = _peak_bytes(2_000), _peak_bytes(20_000)
    assert large < 2 * small, (small, large)
