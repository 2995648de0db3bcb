"""Angle-budget allocation: worked cases, identities, and spec parsing."""

import json
import math

import pytest

from shotbudget import (
    BlockSpec,
    HardwareRates,
    allocate,
    allocate_program,
    load_program_spec,
    bures_angle,
    parse_program_spec,
)
from shotbudget import cli
from shotbudget.budget import block_weight
from shotbudget.errors import DomainError, ZeroBudget, ZeroWeight

RATES_UNUSED = HardwareRates(r1=0.0, r2=0.0)


def explicit_blocks(weights, multiplicities=None):
    multiplicities = multiplicities or [1] * len(weights)
    return [
        BlockSpec(name=f"b{i}", multiplicity=n, explicit_weight=w)
        for i, (w, n) in enumerate(zip(weights, multiplicities))
    ]


class TestAngles:
    # the allocator's total angle Theta* is the Bures angle of the program target
    def test_theta_star_frozen(self):
        assert bures_angle(0.99) == pytest.approx(0.10016742116155969, abs=1e-15)
        assert math.cos(bures_angle(0.973)) ** 2 == pytest.approx(0.973, abs=1e-12)
        for f_prog in (0.99, 0.973, 1e-300):
            report = allocate(explicit_blocks([1.0]), RATES_UNUSED, f_prog, 0.05)
            assert report.theta_star == bures_angle(f_prog)

    def test_theta_star_edges(self):
        assert bures_angle(1.0) == 0.0
        with pytest.raises(ZeroBudget):
            allocate(explicit_blocks([1.0]), RATES_UNUSED, 1.0, 0.05)
        for f_prog in (0.0, 1.2, -0.5, math.nan):
            with pytest.raises(DomainError, match=r"^program fidelity target must lie in \(0, 1\], got "):
                allocate(explicit_blocks([1.0]), RATES_UNUSED, f_prog, 0.05)


class TestBlockWeight:
    def test_gate_count_route(self):
        rates = HardwareRates(r1=1e-11, r2=1e-10, gamma=1e-9)
        block = BlockSpec(name="a", multiplicity=1, g1=5e4, g2=1e4, depth=100)
        assert block_weight(block, rates) == pytest.approx(1.5e-6 + 1e-7, rel=1e-12)

    def test_explicit_weight_wins(self):
        rates = HardwareRates(r1=1e-11, r2=1e-10)
        block = BlockSpec(name="a", multiplicity=1, g1=5e4, g2=1e4, explicit_weight=7e-9)
        assert block_weight(block, rates) == 7e-9

    def test_zero_weight_rejected(self):
        with pytest.raises(ZeroWeight):
            block_weight(BlockSpec(name="a", multiplicity=1), RATES_UNUSED)


class TestWorkedAllocations:
    def test_three_blocks_one_two_three(self):
        report = allocate(explicit_blocks([1.0, 2.0, 3.0]), RATES_UNUSED, 0.99, 0.05)
        assert report.theta_star == pytest.approx(0.10016742116155969, abs=1e-15)
        thetas = [a.theta for a in report.allocations]
        assert thetas == pytest.approx(
            [0.01669457019359328, 0.03338914038718656, 0.050083710580779844], abs=1e-12
        )
        targets = [a.f_target for a in report.allocations]
        assert targets == pytest.approx(
            [0.9997213172179306, 0.9988855795280945, 0.99749371855331], abs=1e-12
        )
        raws = [a.raw_inverse for a in report.allocations]
        assert raws == pytest.approx(
            [10748.11584130942, 2686.6544415979974, 1193.7911575339363], rel=1e-9
        )

    def test_ten_thousand_equal_blocks(self):
        report = allocate(explicit_blocks([1.0], [10_000]), RATES_UNUSED, 0.99, 0.05)
        a = report.allocations[0]
        assert a.theta == pytest.approx(1.001674211615597e-05, rel=1e-12)
        assert a.raw_inverse == pytest.approx(29857278879.946804, rel=1e-9)
        assert a.taylor_shots_inverse == pytest.approx(29857264288.725624, rel=1e-9)

    def test_hardware_archetypes(self):
        rates = HardwareRates(r1=1e-11, r2=1e-10)
        blocks = [
            BlockSpec(name="A", multiplicity=10, g1=5e4, g2=1e4),
            BlockSpec(name="B", multiplicity=40, g1=2e4, g2=4e3),
            BlockSpec(name="C", multiplicity=50, g1=5e4, g2=2e4),
        ]
        report = allocate(blocks, rates, 0.99, 0.05)
        assert report.total_weight == pytest.approx(1.64e-4, rel=1e-12)
        by_name = {a.name: a for a in report.allocations}
        assert by_name["A"].weight == pytest.approx(1.5e-6, rel=1e-12)
        assert by_name["B"].weight == pytest.approx(6e-7, rel=1e-12)
        assert by_name["C"].weight == pytest.approx(2.5e-6, rel=1e-12)
        assert by_name["A"].theta == pytest.approx(0.0009161654374532898, rel=1e-10)
        assert by_name["B"].theta == pytest.approx(0.0003664661749813159, rel=1e-10)
        assert by_name["C"].theta == pytest.approx(0.001526942395755483, rel=1e-10)
        assert by_name["A"].raw_inverse == pytest.approx(3569070.524232608, rel=1e-8)
        assert by_name["B"].raw_inverse == pytest.approx(22306693.418579042, rel=1e-8)
        assert by_name["C"].raw_inverse == pytest.approx(1284865.0691884006, rel=1e-8)

    def test_allocation_identity(self):
        rates = HardwareRates(r1=1e-11, r2=1e-10)
        blocks = [
            BlockSpec(name="A", multiplicity=10, g1=5e4, g2=1e4),
            BlockSpec(name="B", multiplicity=40, g1=2e4, g2=4e3),
            BlockSpec(name="C", multiplicity=50, g1=5e4, g2=2e4),
        ]
        report = allocate(blocks, rates, 0.99, 0.05)
        assert report.total_angle == pytest.approx(report.theta_star, abs=1e-12)

    def test_small_angle_taylor_agreement(self):
        report = allocate(explicit_blocks([1.0], [1000]), RATES_UNUSED, 0.99, 0.05)
        a = report.allocations[0]
        # theta ~ 1e-4: exact and Taylor inverse counts agree to O(theta^2)
        assert a.raw_inverse == pytest.approx(a.taylor_shots_inverse, rel=1e-6)
        assert a.raw_swap == pytest.approx(a.taylor_shots_swap, rel=1e-4)

    def test_regime_factor_doubles_inverse(self):
        base = allocate(explicit_blocks([1.0]), RATES_UNUSED, 0.99, 0.05, regime_factor=1.0)
        doubled = allocate(explicit_blocks([1.0]), RATES_UNUSED, 0.99, 0.05, regime_factor=2.0)
        assert doubled.allocations[0].raw_inverse == pytest.approx(
            2.0 * base.allocations[0].raw_inverse, rel=1e-12
        )

    def test_totals_multiply_by_multiplicity(self):
        report = allocate(explicit_blocks([1.0, 1.0], [3, 7]), RATES_UNUSED, 0.99, 0.05)
        per_block = report.allocations[0].shots_inverse
        assert report.totals["inverse"] == 10 * per_block

    def test_sub_resolution_block_is_infeasible(self):
        # theta below ~1e-8 rounds cos^2 to exactly 1; the block must be
        # flagged rather than crash or report zero shots as schedulable
        report = allocate(
            explicit_blocks([1.0, 1e9], [1, 1]), RATES_UNUSED, 0.9999, regime_factor=1.0, p_e=0.05
        )
        tiny = report.allocations[0]
        assert tiny.infeasible == ("inverse", "swap", "chisq_small", "chisq_attaining")
        assert report.any_infeasible
        assert math.isinf(tiny.raw_inverse)


class TestAllocateValidation:
    def test_zero_budget(self):
        with pytest.raises(ZeroBudget):
            allocate(explicit_blocks([1.0]), RATES_UNUSED, 1.0, 0.05)

    def test_no_blocks(self):
        with pytest.raises(DomainError):
            allocate([], RATES_UNUSED, 0.99, 0.05)

    def test_bad_pe_and_regime(self):
        with pytest.raises(DomainError):
            allocate(explicit_blocks([1.0]), RATES_UNUSED, 0.99, 0.0)
        with pytest.raises(DomainError):
            allocate(explicit_blocks([1.0]), RATES_UNUSED, 0.99, 0.05, regime_factor=3.0)


SPEC_DOC = {
    "fidelity_target": 0.99,
    "p_e": 0.05,
    "regime_factor": 1.0,
    "chisq": {"bins": 8, "alpha": 0.05, "beta": 0.1},
    "hardware": {"r1": 1e-11, "r2": 1e-10},
    "blocks": [
        {"name": "A", "multiplicity": 10, "g1": 5e4, "g2": 1e4},
        {"name": "B", "multiplicity": 40, "g1": 2e4, "g2": 4e3},
        {"name": "C", "multiplicity": 50, "g1": 5e4, "g2": 2e4},
    ],
}


class TestProgramSpecParsing:
    def test_round_trip(self):
        spec = parse_program_spec(SPEC_DOC)
        assert spec.fidelity_target == 0.99
        assert spec.chisq_bins == 8
        assert spec.chisq_beta == 0.1
        assert len(spec.blocks) == 3
        report = allocate_program(spec)
        assert report.total_weight == pytest.approx(1.64e-4, rel=1e-12)

    def test_chisq_section_optional(self):
        doc = {k: v for k, v in SPEC_DOC.items() if k != "chisq"}
        spec = parse_program_spec(doc)
        assert spec.chisq_bins == 16

    def test_explicit_weight_block(self):
        doc = dict(SPEC_DOC)
        doc["blocks"] = [{"name": "w", "multiplicity": 2, "weight": 3e-6}]
        report = allocate_program(parse_program_spec(doc))
        assert report.allocations[0].weight == 3e-6

    def test_error_paths_point_into_document(self):
        doc = dict(SPEC_DOC)
        doc.pop("hardware")
        with pytest.raises(DomainError, match="/hardware"):
            parse_program_spec(doc)

        doc = json.loads(json.dumps(SPEC_DOC))
        doc["blocks"][2]["g1"] = "many"
        with pytest.raises(DomainError, match="/blocks/2/g1"):
            parse_program_spec(doc)

        doc = json.loads(json.dumps(SPEC_DOC))
        doc["chisq"]["bins"] = 1
        with pytest.raises(DomainError, match="/chisq/bins"):
            parse_program_spec(doc)

    def test_rejects_boolean_numbers(self):
        doc = json.loads(json.dumps(SPEC_DOC))
        doc["p_e"] = True
        with pytest.raises(DomainError, match="/p_e"):
            parse_program_spec(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "prog.json"
        path.write_text(json.dumps(SPEC_DOC))
        spec = load_program_spec(str(path))
        assert spec.hardware.r2 == 1e-10


class TestFiniteInputs:
    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: HardwareRates(r1=math.nan, r2=1e-10), "hardware rate r1"),
            (lambda: HardwareRates(r1=1e-11, r2=1e-10, gamma=math.inf), "hardware rate gamma"),
            (lambda: HardwareRates(r1=-1e-11, r2=1e-10), "hardware rate r1"),
            (lambda: BlockSpec(name="a", multiplicity=1, g1=math.inf), "'a': g1"),
            (lambda: BlockSpec(name="a", multiplicity=1, depth=math.nan), "'a': depth"),
            (lambda: BlockSpec(name="a", multiplicity=1, explicit_weight=math.inf), "'a': weight"),
            (lambda: BlockSpec(name="a", multiplicity=1.5, g1=1.0), "'a': multiplicity"),
            (lambda: BlockSpec(name="a", multiplicity=True, g1=1.0), "'a': multiplicity"),
        ],
    )
    def test_dataclasses_name_the_bad_field(self, make, field):
        with pytest.raises(DomainError, match=field):
            make()

    def test_overflowing_total_weight_is_a_domain_error(self):
        blocks = [BlockSpec(name="a", multiplicity=2, explicit_weight=1e308)]
        with pytest.raises(DomainError, match="total weight"):
            allocate(blocks, RATES_UNUSED, 0.99, 0.05)

    @pytest.mark.parametrize(
        "section, key, literal, path",
        [
            ("hardware", "r1", "NaN", "/hardware/r1"),
            ("block0", "weight", "Infinity", "/blocks/0/weight"),
            ("block2", "g2", "1e999", "/blocks/2/g2"),
            ("top", "p_e", "-Infinity", "/p_e"),
            ("block1", "g1", "1" + "0" * 400, "/blocks/1/g1"),
        ],
        ids=["nan", "infinity", "1e999", "minus_infinity", "int_beyond_float"],
    )
    def test_spec_numbers_must_be_finite(self, tmp_path, capsys, section, key, literal, path):
        doc = json.loads(json.dumps(SPEC_DOC))
        target = {"hardware": doc["hardware"], "top": doc}.get(section)
        if target is None:
            target = doc["blocks"][int(section[-1])]
        target[key] = "PROBE"
        text = json.dumps(doc).replace('"PROBE"', literal)
        with pytest.raises(DomainError, match=f"^{path} must be finite"):
            parse_program_spec(json.loads(text))
        spec_path = tmp_path / "probe.json"
        spec_path.write_text(text)
        assert cli.main(["budget", "--spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} must be finite")

    @pytest.mark.parametrize(
        "pointer, value, message",
        [
            ("/blocks/0/g1", -1, "/blocks/0/g1 must be finite and >= 0, got -1"),
            ("/blocks/1/depth", -0.5, "/blocks/1/depth must be finite and >= 0, got -0.5"),
            ("/hardware/r1", -1, "/hardware/r1 must be finite and >= 0, got -1"),
            ("/hardware/gamma", -1e-9, "/hardware/gamma must be finite and >= 0, got -1e-09"),
            ("/blocks/0/multiplicity", 0, "/blocks/0/multiplicity must be >= 1, got 0"),
            ("/p_e", 5, "/p_e must lie in (0, 1), got 5"),
            ("/p_e", 0, "/p_e must lie in (0, 1), got 0"),
            ("/fidelity_target", 2, "/fidelity_target must lie in (0, 1], got 2"),
            ("/fidelity_target", 0.0, "/fidelity_target must lie in (0, 1], got 0.0"),
            ("/regime_factor", 3, "/regime_factor must lie in [1, 2], got 3"),
            ("/chisq/alpha", 2, "/chisq/alpha must lie in (0, 1), got 2"),
            ("/chisq/beta", 1, "/chisq/beta must lie in (0, 1), got 1"),
            ("/chisq/bins", 1, "/chisq/bins must be >= 2, got 1"),
        ],
    )
    def test_spec_range_errors_name_the_json_path(self, tmp_path, capsys, pointer, value, message):
        doc = json.loads(json.dumps(SPEC_DOC))
        *parents, key = [int(part) if part.isdigit() else part for part in pointer.split("/")[1:]]
        target = doc
        for part in parents:
            target = target[part]
        target[key] = value
        with pytest.raises(DomainError) as info:
            parse_program_spec(doc)
        assert str(info.value) == message
        spec_path = tmp_path / "range.json"
        spec_path.write_text(json.dumps(doc))
        assert cli.main(["budget", "--spec", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_fractional_multiplicity_in_spec_is_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SPEC_DOC))
        doc["blocks"][0]["multiplicity"] = 1.5
        spec_path = tmp_path / "frac.json"
        spec_path.write_text(json.dumps(doc))
        assert cli.main(["budget", "--spec", str(spec_path)]) == 2
        assert "/blocks/0/multiplicity: expected an integer" in capsys.readouterr().err


def test_totals_are_exact_past_int64(tmp_path, capsys):
    blocks = [
        BlockSpec(name="a", multiplicity=10, explicit_weight=1.0),
        BlockSpec(name="b", multiplicity=7, explicit_weight=1.3),
    ]
    report = allocate(blocks, RATES_UNUSED, 0.99999, 0.05)
    assert not report.any_infeasible
    exact = {
        kind: sum(a.multiplicity * getattr(a, f"shots_{kind}") for a in report.allocations)
        for kind in ("inverse", "swap", "chisq_small", "chisq_attaining")
    }
    assert report.totals == exact
    assert exact["chisq_attaining"] > 2**63
    assert all(type(total) is int for total in report.totals.values())

    doc = {
        "fidelity_target": 0.99999,
        "p_e": 0.05,
        "hardware": {"r1": 0.0, "r2": 0.0},
        "blocks": [{"name": "a", "multiplicity": 10, "weight": 1.0},
                   {"name": "b", "multiplicity": 7, "weight": 1.3}],
    }
    spec_path = tmp_path / "exact.json"
    spec_path.write_text(json.dumps(doc))
    assert cli.main(["budget", "--spec", str(spec_path), "--out", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["totals"] == exact
