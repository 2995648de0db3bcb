"""End-to-end command-line checks: exit codes, JSON output, CSV curves."""

import csv
import io
import json
import math

import numpy as np
import pytest

from shotbudget import cli
from shotbudget import montecarlo as mc
from shotbudget.montecarlo import McResult


def _write_pure(path, amplitudes):
    data = [[z.real, z.imag] for z in np.asarray(amplitudes, dtype=complex)]
    path.write_text(json.dumps({"kind": "pure", "n": 1, "data": data}))


def _write_density(path, matrix):
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    data = [[z.real, z.imag] for z in flat]
    path.write_text(json.dumps({"kind": "density", "n": 1, "data": data}))


@pytest.fixture()
def state_files(tmp_path):
    zero = tmp_path / "zero.json"
    one = tmp_path / "one.json"
    plus = tmp_path / "plus.json"
    mixed = tmp_path / "mixed.json"
    _write_pure(zero, [1.0, 0.0])
    _write_pure(one, [0.0, 1.0])
    _write_pure(plus, np.array([1.0, 1.0]) / math.sqrt(2.0))
    _write_density(mixed, [[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
    return {"zero": str(zero), "one": str(one), "plus": str(plus), "mixed": str(mixed)}


@pytest.fixture()
def dist_files(tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    p.write_text(json.dumps([0.3, 0.3, 0.2, 0.2]))
    q.write_text(json.dumps([0.25, 0.25, 0.25, 0.25]))
    return {"p": str(p), "q": str(q)}


@pytest.fixture()
def spec_file(tmp_path):
    spec = {
        "fidelity_target": 0.99,
        "p_e": 0.05,
        "regime_factor": 1.0,
        "hardware": {"r1": 1e-7, "r2": 5e-7, "gamma": 0.0},
        "blocks": [
            {"name": "A", "multiplicity": 10, "g1": 5, "g2": 2},
            {"name": "B", "multiplicity": 100, "g1": 1, "g2": 1},
        ],
    }
    path = tmp_path / "prog.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestShots:
    def test_fidelity_table(self, capsys):
        assert cli.main(["shots", "--fidelity", "0.999", "--pe", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "inverse" in out and "4603" in out

    def test_fidelity_json(self, capsys):
        assert cli.main(["shots", "--fidelity", "0.99", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {row["formula"]: row for row in doc["estimates"]}
        assert rows["inverse_ideal"]["shots"] == 299

    def test_trace_distance_mode(self, capsys):
        assert cli.main(["shots", "--trace-distance", "0.1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(row["formula"].startswith("trace") for row in doc["estimates"])

    def test_both_inputs_rejected(self, capsys):
        assert cli.main(["shots", "--fidelity", "0.9", "--trace-distance", "0.1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_inputs_rejected(self):
        assert cli.main(["shots"]) == 2

    def test_degenerate_fidelity_exit_code(self, capsys):
        assert cli.main(["shots", "--fidelity", "1.0"]) == 3
        assert "degenerate" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [
            ["shots", "--trace-distance", "1e-9"],
            ["shots", "--fidelity", "0.9999999999999999", "--test", "swap"],
            ["curve", "trace_vs_shots", "--start", "1e-9", "--stop", "0.5", "--points", "3"],
        ],
    )
    def test_per_shot_q_rounding_to_one_is_degenerate(self, argv, capsys):
        # 1 - T^2 and 1/2 + F/2 round to 1: no traceback, nothing on stdout
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("degenerate input: ")
        assert "gives a per-shot Q of 1" in captured.err

    @pytest.mark.parametrize(
        "argv, source",
        [
            (["shots", "--trace-distance", "0.1", "--test", "inverse"], "--trace-distance"),
            (["shots", "--fidelity", "0.9", "--test", "pure-mixed", "--json"], "--fidelity"),
        ],
    )
    def test_test_without_formula_for_its_source_rejected(self, argv, source, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --test {argv[4]} has no shot formula for {source}\n"

    @pytest.mark.parametrize("source", ["--fidelity", "--trace-distance"])
    def test_regime_factor_outside_range_rejected(self, source, capsys):
        for factor in ("0.5", "2.5"):
            assert cli.main(["shots", source, "0.5", "--regime-factor", factor]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"regime factor must lie in [1, 2], got {factor}" in captured.err


class TestQcb:
    def test_pure_pair_report(self, state_files, capsys):
        code = cli.main(["qcb", state_files["zero"], state_files["plus"], "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["q"] == pytest.approx(0.5)
        assert doc["fidelity"] == pytest.approx(0.5)

    def test_orthogonal_pair_single_shot(self, state_files, capsys):
        code = cli.main(
            ["qcb", state_files["zero"], state_files["one"], "--pe", "0.01", "--json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["q"] == 0.0
        assert doc["shots"]["shots"] == 1
        assert "orthogonal" in captured.err

    def test_identical_pair_degenerate(self, state_files, capsys):
        code = cli.main(
            ["qcb", state_files["zero"], state_files["zero"], "--pe", "0.01"]
        )
        assert code == 3
        assert "indistinguishable" in capsys.readouterr().err

    def test_pure_mixed_pair(self, state_files, capsys):
        code = cli.main(["qcb", state_files["plus"], state_files["mixed"], "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["q"] < 1.0
        assert doc["q_bounds_from_fidelity"][0] <= doc["q"] + 1e-12

    def test_missing_file(self, tmp_path):
        assert cli.main(["qcb", str(tmp_path / "absent.json"), str(tmp_path / "b.json")]) == 2

    def test_non_finite_state_rejected(self, state_files, tmp_path, capsys):
        # json.load accepts the NaN literal; the entry is named, not traced back
        data = ", ".join(["[0.25, 0]"] * 5 + ["[NaN, 0]"] + ["[0, 0]"] * 10)
        bad = tmp_path / "nan.json"
        bad.write_text('{"kind": "density", "n": 2, "data": [' + data + "]}")
        code = cli.main(["qcb", str(bad), state_files["zero"], "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"data"[5] is not finite' in captured.err

    @pytest.mark.parametrize("pair", [("zero", "one"), ("zero", "zero"), ("zero", "plus")],
                             ids=["orthogonal", "identical", "partial_overlap"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
    def test_error_probability_checked_for_every_pair(self, pair, as_json, state_files, capsys):
        # Q = 0 and Q = 1 never reach the shot formula; --pe is checked before either
        argv = ["qcb", *(state_files[name] for name in pair), "--pe", "5"]
        code = cli.main(argv + (["--json"] if as_json else []))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: error probability must lie in (0, 1), got 5.0\n"


class TestChisq:
    def test_w2_source(self, capsys):
        assert cli.main(["chisq", "--w2", "1e-4", "--bins", "16", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["w2"] == 1e-4
        assert doc["shots"] > 0

    def test_fidelity_cases_differ(self, capsys):
        assert cli.main(["chisq", "--fidelity", "0.99", "--case", "small", "--json"]) == 0
        small = json.loads(capsys.readouterr().out)
        assert cli.main(["chisq", "--fidelity", "0.99", "--case", "attaining", "--json"]) == 0
        attaining = json.loads(capsys.readouterr().out)
        assert attaining["shots"] > small["shots"]

    def test_distribution_source_sets_bins_from_data(self, dist_files, capsys):
        code = cli.main(["chisq", "--p", dist_files["p"], "--q", dist_files["q"], "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bins"] == 4

    def test_conflicting_sources_rejected(self):
        assert cli.main(["chisq", "--w2", "1e-4", "--fidelity", "0.99"]) == 2

    def test_no_source_rejected(self):
        assert cli.main(["chisq"]) == 2

    @pytest.mark.parametrize("w2", ["nan", "inf", "-inf"])
    def test_non_finite_w2_rejected(self, w2, capsys):
        assert cli.main(["chisq", f"--w2={w2}", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: w^2 must be finite and >= 0, got {float(w2)}\n"

    @pytest.mark.parametrize("entries, bin_index", [("[NaN, 1.0]", 0), ("[0.5, Infinity]", 1)])
    def test_non_finite_distribution_rejected(self, entries, bin_index, tmp_path, capsys):
        # json.load accepts NaN and Infinity; the bin is named, not traced back
        bad = tmp_path / "bad.json"
        bad.write_text(entries)
        half = tmp_path / "half.json"
        half.write_text("[0.5, 0.5]")
        runs = (["chisq", "--p", str(bad), "--q", str(half)],
                ["chisq", "--p", str(half), "--q", str(bad)],
                ["validate", "--scenario", "chisq", "--p", str(bad), "--q", str(half),
                 "--shots", "10", "--trials", "10"])
        for argv in runs:
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: bin {bin_index} probability is not finite" in captured.err, argv


class TestNoise:
    def test_plan(self, capsys):
        code = cli.main(["noise", "plan", "--q0", "1.0", "--q1", "0.99", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots"] == 2149

    def test_plan_needs_q1(self):
        assert cli.main(["noise", "plan", "--q0", "1.0"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--alpha", "1e-17"],
            ["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--beta", "1e-17"],
            ["curve", "noise_binomial", "--alpha", "1e-17", "--points", "3"],
        ],
    )
    def test_quantile_probability_rounding_to_one_rejected(self, argv, capsys):
        # 1 - 1e-17 rounds to 1, where the normal quantile is infinite
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: quantile probability must lie in (0, 1), got 1.0\n"

    @pytest.mark.parametrize(
        "argv, alpha, beta",
        [
            (["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--alpha", "0.7"], 0.7, 0.01),
            (["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--beta", "0.6"], 0.01, 0.6),
            (["curve", "noise_binomial", "--beta", "0.6", "--points", "3"], 0.01, 0.6),
        ],
    )
    def test_risk_above_half_rejected(self, argv, alpha, beta, capsys):
        # past 1/2 a z value turns negative and a looser test would plan more shots
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: alpha (one-sided) and beta must be at most 0.5, got alpha={alpha}, beta={beta}\n"
        )

    def test_risk_at_half_plans_one_shot_and_two_sided_alpha_stays_valid(self, capsys):
        plan = ["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--json"]
        assert cli.main([*plan, "--alpha", "0.5", "--beta", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["shots"] == 1
        assert cli.main([*plan, "--alpha", "0.9", "--two-sided"]) == 0
        assert json.loads(capsys.readouterr().out)["shots"] == 75

    def test_decide_reject(self, capsys):
        code = cli.main(
            ["noise", "decide", "--q0", "0.999", "--zeros", "10", "--shots", "1000"]
        )
        assert code == 0
        assert "REJECT" in capsys.readouterr().out

    def test_decide_no_reject(self, capsys):
        code = cli.main(
            ["noise", "decide", "--q0", "0.999", "--zeros", "999", "--shots", "1000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no reject" in out


class TestBudget:
    def test_table(self, spec_file, capsys):
        assert cli.main(["budget", "--spec", spec_file]) == 0
        out = capsys.readouterr().out
        assert "A" in out and "total" in out

    def test_json(self, spec_file, capsys):
        assert cli.main(["budget", "--spec", spec_file, "--out", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["blocks"]) == 2
        total = sum(b["multiplicity"] * b["theta"] for b in doc["blocks"])
        assert total == pytest.approx(doc["theta_star"], abs=1e-9)

    def test_csv(self, spec_file, capsys):
        assert cli.main(["budget", "--spec", spec_file, "--out", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("name,")
        assert len(lines) == 3

    def test_strict_flags_infeasible(self, tmp_path, capsys):
        spec = {
            "fidelity_target": 0.99999999,
            "p_e": 0.05,
            "regime_factor": 1.0,
            "hardware": {"r1": 1e-11, "r2": 1e-10, "gamma": 0.0},
            "blocks": [{"name": "huge", "multiplicity": 100_000, "g1": 1, "g2": 0}],
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["budget", "--spec", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["budget", "--spec", str(path), "--strict"]) == 1
        assert "infeasible" in capsys.readouterr().err

    def test_malformed_spec(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p_e": 0.05}))
        assert cli.main(["budget", "--spec", str(path)]) == 2

    def test_csv_quotes_only_names_that_need_it(self, tmp_path, capsys):
        names = ['a,b"c', "two\nlines", "carriage\rreturn", "blk0", 'say "hi"']
        spec = {
            "fidelity_target": 0.99,
            "p_e": 0.05,
            "hardware": {"r1": 0.0, "r2": 0.0},
            "blocks": [{"name": n, "weight": 1.0 + i} for i, n in enumerate(names)],
        }
        path = tmp_path / "names.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["budget", "--spec", str(path), "--out", "csv"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert [len(row) for row in rows] == [10] * (len(names) + 1)
        assert [row[0] for row in rows[1:]] == names
        assert '\nblk0,1,4.0,' in out and '\n"a,b""c",1,1.0,' in out


class TestValidate:
    def test_inverse_pass(self, capsys):
        code = cli.main(
            [
                "validate", "--scenario", "inverse", "--fidelity", "0.99",
                "--shots", "458", "--trials", "20000", "--seed", "7",
            ]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_binomial_json(self, capsys):
        code = cli.main(
            [
                "validate", "--scenario", "binomial", "--q0", "1.0", "--q1", "0.5",
                "--shots", "1", "--trials", "20000", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert doc["expected"] == pytest.approx(0.5)

    def test_biased_estimate_fails(self, monkeypatch, dist_files, capsys):
        # validate must look each simulator up through the montecarlo module
        # when it runs, so a replacement there is the one it calls
        runs = {
            "inverse": ("simulate_inverse_miss_rate", ["--fidelity", "0.99", "--shots", "458"]),
            "swap": ("simulate_swap_miss_rate", ["--fidelity", "0.99", "--shots", "916"]),
            "chisq": ("simulate_chisq_power",
                      ["--p", dist_files["p"], "--q", dist_files["q"], "--shots", "2000"]),
            "binomial": ("simulate_binomial_detection",
                         ["--q0", "0.99", "--q1", "0.95", "--shots", "300"]),
        }
        for scenario, (attr, flags) in runs.items():
            calls = []

            def biased(*args):
                calls.append(args)
                return McResult(estimate=0.5, trials=args[-1].trials, warnings=())

            monkeypatch.setattr(mc, attr, biased)
            code = cli.main(["validate", "--scenario", scenario, *flags, "--trials", "1000"])
            assert (code, len(calls)) == (1, 1), scenario
            assert "FAIL" in capsys.readouterr().out, scenario

    def test_missing_scenario_arguments(self):
        assert cli.main(["validate", "--scenario", "inverse"]) == 2

    def test_binomial_bad_shots_has_one_message(self, capsys):
        # the rejection threshold owns the shot count and q0, with one spelling
        code = cli.main(["validate", "--scenario", "binomial", "--q0", "0.99", "--q1", "0.9",
                         "--shots", "0"])
        assert (code, capsys.readouterr().err) == (2, "error: shot count must be >= 1, got 0\n")

    @pytest.mark.parametrize("q1, message", [
        ("1.5", "true rate q1 must lie in [0, 1], got 1.5"),
        ("0.995", "true rate q1=0.995 exceeds baseline q0=0.99"),
    ])
    def test_binomial_bad_q1_fails_before_the_threshold(self, q1, message, monkeypatch, capsys):
        def no_threshold(*args):
            raise AssertionError("binomial_rejection_threshold called")

        monkeypatch.setattr(mc, "binomial_rejection_threshold", no_threshold)
        code = cli.main(["validate", "--scenario", "binomial", "--q0", "0.99", "--q1", q1,
                         "--shots", "1000000"])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("seed", ["-5", str(2**64), "99999999999999999999999"])
    def test_seed_outside_64_bits_rejected(self, seed, capsys):
        code = cli.main(
            [
                "validate", "--scenario", "inverse", "--fidelity", "0.99",
                "--shots", "458", "--trials", "10", "--seed", seed,
            ]
        )
        assert code == 2
        assert f"error: seed must lie in [0, 2^64), got {seed}" in capsys.readouterr().err

    def test_zero_reference_bin_fails_before_simulating(self, tmp_path, monkeypatch, capsys):
        def no_draws(*args, **kwargs):
            raise AssertionError("uniform_block called")

        monkeypatch.setattr(mc, "uniform_block", no_draws)
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(json.dumps([0.25, 0.25, 0.25, 0.25]))
        q.write_text(json.dumps([0.5, 0.25, 0.0, 0.25]))
        code = cli.main(
            [
                "validate", "--scenario", "chisq", "--p", str(p), "--q", str(q),
                "--shots", "400", "--trials", "100",
            ]
        )
        assert code == 2
        assert "reference bin 2 has zero probability" in capsys.readouterr().err


class TestCurve:
    def _rows(self, capsys):
        lines = capsys.readouterr().out.strip().splitlines()
        header = lines[0].split(",")
        return header, [line.split(",") for line in lines[1:]]

    def test_fid_vs_shots(self, capsys):
        assert cli.main(["curve", "fid_vs_shots", "--points", "5"]) == 0
        header, rows = self._rows(capsys)
        assert header[:2] == ["F", "one_minus_F"]
        assert len(rows) == 5
        shots = [int(r[header.index("n_pure")]) for r in rows]
        assert shots == sorted(shots)

    def test_test_comparison(self, capsys):
        code = cli.main(
            ["curve", "test_comparison", "--points", "3", "--bins", "4,16"]
        )
        assert code == 0
        header, rows = self._rows(capsys)
        assert "n_chisq_attaining_k16" in header
        assert len(rows) == 3

    def test_noise_binomial(self, capsys):
        code = cli.main(
            ["curve", "noise_binomial", "--points", "4", "--q1", "0.90,0.99"]
        )
        assert code == 0
        header, rows = self._rows(capsys)
        assert "n_binomial_q1_0.99" in header
        assert len(rows) == 4

    def test_trace_vs_shots(self, capsys):
        assert cli.main(["curve", "trace_vs_shots", "--points", "4"]) == 0
        header, rows = self._rows(capsys)
        # the conservative pure-vs-mixed column collapses onto the pure one
        i_pure = header.index("n_pure")
        i_hi = header.index("n_pm_hi")
        for row in rows:
            assert row[i_hi] == row[i_pure]

    def test_bad_range_rejected(self):
        assert cli.main(["curve", "fid_vs_shots", "--start", "0.9", "--stop", "0.1"]) == 2

    def test_degenerate_point_writes_no_partial_csv(self, capsys):
        argv = ["curve", "fid_vs_shots", "--start", "0", "--stop", "1", "--points", "5"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("degenerate input: fidelity 1")

    def test_unknown_curve_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["curve", "nonsense"])
        assert info.value.code == 2
