"""Shot formulas against hand-frozen anchor values and basic laws."""

import math

import pytest

from shotbudget import (
    Formula,
    ShotBounds,
    ShotEstimate,
    estimate,
    shots_inverse_ideal,
    shots_swap_ideal,
)
from shotbudget.errors import DegenerateStates, DomainError
from shotbudget.shot_estimators import FORMULAS

F = Formula


def _ratio(fid):
    """Swap over inverse shot count, ln(F) / ln(1/2 + F/2), from the raws."""
    return shots_swap_ideal(fid, 0.01).raw / shots_inverse_ideal(fid, 0.01).raw


class TestInverseAndSwap:
    def test_inverse_frozen_anchors(self):
        e = shots_inverse_ideal(0.999, 0.01)
        assert e.raw == pytest.approx(4602.867216938907, rel=1e-12)
        assert e.shots == 4603
        e = shots_inverse_ideal(0.99, 0.01)
        assert e.raw == pytest.approx(458.2105765533884, rel=1e-12)
        assert e.shots == 459

    def test_swap_frozen_anchors(self):
        assert shots_swap_ideal(0.999, 0.01).raw == pytest.approx(9208.037594954125, rel=1e-12)
        assert shots_swap_ideal(0.99, 0.01).raw == pytest.approx(918.7295284714154, rel=1e-12)

    def test_regime_factor_scales_linearly(self):
        base = shots_inverse_ideal(0.99, 0.01).raw
        assert estimate(F.INVERSE_REAL, 0.99, 0.01, 2.0).raw == pytest.approx(2.0 * base, rel=1e-12)
        assert estimate(F.INVERSE_REAL, 0.99, 0.01, 1.0).raw == base
        swap = shots_swap_ideal(0.99, 0.01).raw
        assert estimate(F.SWAP_REAL, 0.99, 0.01, 1.7).raw == pytest.approx(1.7 * swap, rel=1e-12)
        # only the rows marked scaled take R
        assert estimate(F.INVERSE_IDEAL, 0.99, 0.01, 2.0).raw == base
        assert [f for f, row in FORMULAS.items() if row.scaled] == [F.INVERSE_REAL, F.SWAP_REAL]

    def test_regime_factor_range_enforced(self):
        with pytest.raises(DomainError, match=r"regime factor must lie in \[1, 2\], got 0.5"):
            estimate(F.INVERSE_REAL, 0.99, 0.01, 0.5)
        with pytest.raises(DomainError):
            estimate(F.SWAP_REAL, 0.99, 0.01, 2.5)
        with pytest.raises(DomainError):
            estimate(F.PURE, 0.99, 0.01, math.nan)

    def test_ratio_frozen_and_limits(self):
        assert _ratio(0.999) == pytest.approx(2.000500375302558, rel=1e-12)
        assert _ratio(0.99) == pytest.approx(2.0050378046312285, rel=1e-12)
        # decreasing toward the high-fidelity limit of 2
        last = _ratio(0.5)
        for f in (0.9, 0.99, 0.999, 0.9999):
            ratio = _ratio(f)
            assert ratio < last
            last = ratio
        assert _ratio(1.0 - 1e-9) == pytest.approx(2.0, abs=1e-6)

    def test_ratio_matches_raw_quotient(self):
        for f in (0.3, 0.9, 0.999):
            assert _ratio(f) == pytest.approx(math.log(f) / math.log(0.5 + 0.5 * f), rel=1e-12)

    def test_formula_tags(self):
        for formula in Formula:
            assert estimate(formula, 0.9, 0.05, 1.5).formula is formula
        assert shots_inverse_ideal(0.9, 0.05).formula is F.INVERSE_IDEAL
        assert shots_swap_ideal(0.9, 0.05).formula is F.SWAP_IDEAL


class TestPureAndMixed:
    def test_pure_equals_inverse_ideal(self):
        for f in (0.3, 0.9, 0.999):
            assert estimate(F.PURE, f, 0.01).raw == shots_inverse_ideal(f, 0.01).raw

    def test_pure_zero_fidelity_is_one_shot(self):
        e = estimate(F.PURE, 0.0, 0.05)
        assert e.raw == 0.0
        assert e.shots == 1

    def test_mixed_bounds_frozen(self):
        lower = estimate(F.MIXED_LOWER, 0.99, 0.01)
        upper = estimate(F.MIXED_UPPER, 0.99, 0.01)
        assert lower.raw == pytest.approx(43.70869065356562, rel=1e-12)
        assert upper.raw == pytest.approx(916.4211531067768, rel=1e-12)
        assert lower.formula is F.MIXED_LOWER
        assert upper.formula is F.MIXED_UPPER

    def test_mixed_upper_is_twice_pure(self):
        for f in (0.5, 0.9, 0.999):
            assert estimate(F.MIXED_UPPER, f, 0.01).raw == 2.0 * estimate(F.PURE, f, 0.01).raw

    def test_bounds_ordering_everywhere(self):
        for f in (0.01, 0.3, 0.7, 0.95, 0.9999):
            for pe in (0.2, 0.05, 1e-4):
                bounds = ShotBounds(estimate(F.MIXED_LOWER, f, pe), estimate(F.MIXED_UPPER, f, pe))
                assert bounds.lower.raw <= bounds.upper.raw

    def test_shots_monotone_in_fidelity_and_pe(self):
        raws = [estimate(F.PURE, f, 0.01).raw for f in (0.5, 0.9, 0.99, 0.999)]
        assert raws == sorted(raws)
        raws = [estimate(F.PURE, 0.99, pe).raw for pe in (0.1, 0.01, 0.001)]
        assert raws == sorted(raws)

    def test_degenerate_fidelity_raises(self):
        for formula in (F.PURE, F.MIXED_LOWER, F.MIXED_UPPER, F.INVERSE_IDEAL, F.SWAP_REAL):
            with pytest.raises(DegenerateStates, match="^fidelity 1.0 gives a per-shot Q of 1"):
                estimate(formula, 1.0, 0.05)

    def test_per_shot_q_rounding_to_one_is_degenerate(self):
        # 1/2 + F/2 and 1 - T^2 round to 1 although F < 1 and T > 0
        with pytest.raises(DegenerateStates, match="^fidelity 0.9999999999999999 "):
            estimate(F.SWAP_IDEAL, 0.9999999999999999, 0.05)
        with pytest.raises(DegenerateStates, match="^trace distance 1e-09 "):
            estimate(F.TRACE_PURE, 1e-9, 0.05)
        assert estimate(F.TRACE_PURE_MIXED_LOWER, 1e-9, 0.05).shots > 1e9

    def test_bad_pe_raises(self):
        with pytest.raises(DomainError):
            estimate(F.PURE, 0.9, 0.0)
        with pytest.raises(DomainError):
            estimate(F.PURE, 0.9, 1.0)
        with pytest.raises(DomainError, match=r"^fidelity must lie in \[0, 1\], got -0.1$"):
            estimate(F.PURE, -0.1, 0.05)
        with pytest.raises(DomainError):
            estimate(F.MIXED_LOWER, math.nan, 0.05)


class TestFromChernoffQuantity:
    def test_matches_log_ratio(self):
        e = estimate(F.QCB, 0.5, 0.05)
        assert e.raw == pytest.approx(math.log(0.05) / math.log(0.5), rel=1e-12)
        assert e.shots == 5
        assert e.formula is F.QCB

    def test_rejects_degenerate_and_domain(self):
        with pytest.raises(DegenerateStates):
            estimate(F.QCB, 1.0, 0.05)
        with pytest.raises(DomainError, match=r"^Q must lie in \(0, 1\], got 0.0$"):
            estimate(F.QCB, 0.0, 0.05)
        with pytest.raises(DomainError):
            estimate(F.QCB, -0.1, 0.05)
        with pytest.raises(DomainError):
            estimate(F.QCB, 1.5, 0.05)
        assert estimate(F.QCB, math.ulp(0.0), 0.05).shots == 1


class TestTraceDistanceFormulas:
    def test_pure_frozen(self):
        e = estimate(F.TRACE_PURE, 0.1, 0.05)
        assert e.raw == pytest.approx(298.07285221322263, rel=1e-12)
        assert e.shots == 299
        assert e.formula is F.TRACE_PURE

    def test_pure_mixed_bounds_frozen(self):
        assert estimate(F.TRACE_PURE_MIXED_LOWER, 0.1, 0.05).raw == pytest.approx(
            28.43315880574342, rel=1e-12
        )
        assert estimate(F.TRACE_PURE_MIXED_UPPER, 0.1, 0.05).raw == pytest.approx(
            298.07285221322263, rel=1e-12
        )

    def test_mixed_bounds_frozen(self):
        assert estimate(F.TRACE_MIXED_LOWER, 0.1, 0.05).raw == pytest.approx(
            5.232666899130333, rel=1e-12
        )
        assert estimate(F.TRACE_MIXED_UPPER, 0.1, 0.05).raw == pytest.approx(
            596.1457044264453, rel=1e-12
        )

    def test_mixed_upper_is_twice_pure(self):
        for t in (0.05, 0.3, 0.8):
            assert estimate(F.TRACE_MIXED_UPPER, t, 0.01).raw == 2.0 * estimate(F.TRACE_PURE, t, 0.01).raw

    def test_full_distance_is_one_shot(self):
        for formula in (f for f, row in FORMULAS.items() if row.kind == "trace distance"):
            assert estimate(formula, 1.0, 0.05).shots == 1

    def test_zero_distance_raises(self):
        with pytest.raises(DegenerateStates, match="^trace distance 0.0 gives a per-shot Q of 1"):
            estimate(F.TRACE_PURE, 0.0, 0.05)
        with pytest.raises(DomainError, match=r"^trace distance must lie in \[0, 1\], got 1.5$"):
            estimate(F.TRACE_MIXED_LOWER, 1.5, 0.05)


class TestEstimateContainers:
    def test_ceil_and_floor_to_one(self):
        assert estimate(F.QCB, 0.5, 0.05).shots == math.ceil(math.log(0.05) / math.log(0.5))
        assert estimate(F.QCB, 1e-6, 0.5).shots == 1  # raw 0.05-ish floors at 1

    def test_interpretation_flag(self):
        assert estimate(F.PURE, 0.9, 0.05).interpretation == "asymptotic estimate"
        assert estimate(F.PURE, 0.9, 0.05, conservative=True).interpretation == "lower-bound requirement"

    def test_bounds_reject_inverted_pair(self):
        hi = ShotEstimate(raw=10.0, shots=10, formula=F.MIXED_UPPER)
        lo = ShotEstimate(raw=1.0, shots=1, formula=F.MIXED_LOWER)
        with pytest.raises(DomainError):
            ShotBounds(lower=hi, upper=lo)
