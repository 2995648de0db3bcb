"""End-to-end command-line checks: exit codes, JSON output, CSV curves."""

import csv
import io
import json
import math
import time
import types

import numpy as np
import pytest

from shotbudget import cli
from shotbudget import montecarlo as mc
from shotbudget import stat_power as sp

from conftest import deadline, random_density


def _write_pure(path, amplitudes):
    data = [[z.real, z.imag] for z in np.asarray(amplitudes, dtype=complex)]
    path.write_text(json.dumps({"kind": "pure", "n": 1, "data": data}))


def _write_density(path, matrix):
    flat = np.asarray(matrix, dtype=complex).reshape(-1)
    data = [[z.real, z.imag] for z in flat]
    n = (flat.size.bit_length() - 1) // 2  # 4**n entries
    path.write_text(json.dumps({"kind": "density", "n": n, "data": data}))


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

    def test_mixed_state_against_itself_is_degenerate(self, tmp_path, capsys):
        # the spectrum of one random 2-qubit state rounds Q to just below 1
        # unless the equal pair is recognised as such
        path = tmp_path / "m.json"
        _write_density(path, random_density(np.random.default_rng(5), 2).matrix)
        assert cli.main(["qcb", str(path), str(path), "--pe", "0.01", "--json"]) == 3
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert (doc["q"], doc["s_star"], doc["exponent"]) == (1.0, 0.0, 0.0)
        assert "shots" not in doc
        assert captured.err == ("states are indistinguishable (Q = 1); "
                                "no finite shot count separates them\n")

    def test_pair_each_hermitian_within_tolerance_is_accepted(self, tmp_path, capsys):
        # each file is 0.9e-10 from Hermitian; their difference is 1.8e-10 off,
        # which no state boundary sees
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        _write_density(a, [[0.5, 0.1 + 0.9e-10], [0.1, 0.5]])
        _write_density(b, [[0.6, 0.05 - 0.9e-10], [0.05, 0.4]])
        assert cli.main(["qcb", str(a), str(b), "--pe", "0.01", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_distance"] == pytest.approx(0.1118034, abs=1e-7)
        assert doc["shots"]["shots"] > 1

    def test_pure_mixed_pair(self, state_files, capsys):
        code = cli.main(["qcb", state_files["plus"], state_files["mixed"], "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["q"] < 1.0
        assert doc["q_bounds_from_fidelity"][0] <= doc["q"] + 1e-12

    def test_missing_file(self, tmp_path):
        assert cli.main(["qcb", str(tmp_path / "absent.json"), str(tmp_path / "b.json")]) == 2

    def test_states_of_different_size_rejected(self, state_files, tmp_path, capsys):
        two = tmp_path / "two.json"
        two.write_text(json.dumps({"kind": "pure", "n": 2, "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
        assert cli.main(["qcb", state_files["zero"], str(two)]) == 2
        assert capsys.readouterr() == ("", "error: dimension mismatch: 2 vs 4\n")

    def test_non_finite_state_rejected(self, state_files, tmp_path, capsys):
        # json.load accepts the NaN literal; the entry is named, not traced back
        data = ", ".join(["[0.25, 0]"] * 5 + ["[NaN, 0]"] + ["[0, 0]"] * 10)
        bad = tmp_path / "nan.json"
        bad.write_text('{"kind": "density", "n": 2, "data": [' + data + "]}")
        code = cli.main(["qcb", str(bad), state_files["zero"], "--json"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"data"[5] must be finite, got nan' in captured.err

    @pytest.mark.parametrize("n", [10**6, 10**10])
    @pytest.mark.parametrize("kind, need", [("pure", "2**{n} amplitudes"), ("density", "4**{n} entries")])
    def test_a_qubit_count_far_past_the_data_exits_2_at_once(self, n, kind, need, state_files, tmp_path, capsys):
        # 2**n is never computed: its digits or its memory would fail first
        bad = tmp_path / "big.json"
        bad.write_text(json.dumps({"kind": kind, "n": n, "data": [[1, 0]]}))
        start = time.perf_counter()
        assert cli.main(["qcb", str(bad), state_files["zero"]]) == 2
        assert time.perf_counter() - start < 1.0
        what = "pure state" if kind == "pure" else "density matrix"
        assert capsys.readouterr() == ("", f"error: {what} on {n} qubits needs {need.format(n=n)}, got 1\n")

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
            assert f"error: bin {bin_index} probability must be finite and >= 0, got " in captured.err, argv


class TestNoise:
    def test_plan(self, capsys):
        code = cli.main(["noise", "plan", "--q0", "1.0", "--q1", "0.99", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots"] == 2149

    def test_plan_needs_q1(self):
        assert cli.main(["noise", "plan", "--q0", "1.0"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--alpha", "1e-17"],
             "alpha must lie in (5.551115123125783e-17, 1), got 1e-17"),
            (["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--beta", "1e-17"],
             "beta must lie in (5.551115123125783e-17, 1), got 1e-17"),
            (["curve", "noise_binomial", "--alpha", "1e-17", "--points", "3"],
             "alpha must lie in (5.551115123125783e-17, 1), got 1e-17"),
        ],
    )
    def test_quantile_probability_rounding_to_one_rejected(self, argv, message, capsys):
        # 1 - 1e-17 rounds to 1, where the normal quantile is infinite: the flag is named
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
        assert doc["warnings"] == []  # validity advice is the chi-square scenario's alone

    def test_chisq_warnings_are_chisq_validity_at_the_shot_count(self, tmp_path, capsys):
        # four bins of 1/4 at 10 shots: under 13 shots, and expected counts under 5
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps([0.25] * 4))
        argv = ["validate", "--scenario", "chisq", "--p", str(flat), "--q", str(flat), "--shots", "10",
                "--trials", "100", "--seed", "23"]
        warnings = list(sp.chisq_validity(10, sp.load_distribution(str(flat))))
        assert len(warnings) == 2
        cli.main([*argv, "--json"])
        captured = capsys.readouterr()
        assert (json.loads(captured.out)["warnings"], captured.err) == (warnings, "")
        cli.main(argv)
        assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in warnings)

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
            calls, real = [], getattr(mc, attr)

            def biased(*args):
                calls.append(args)
                return real(*args)._replace(estimate=0.5)  # the prediction stays the real one

            monkeypatch.setattr(mc, attr, biased)
            code = cli.main(["validate", "--scenario", scenario, *flags, "--trials", "1000"])
            assert (code, len(calls)) == (1, 1), scenario
            assert "FAIL" in capsys.readouterr().out, scenario

    def test_chisq_prediction_at_a_noncentrality_past_ten_thousand_mixture_steps(self, tmp_path, capsys):
        # lam = 2e6 shots * w^2 2.7648 = 5.53e6, where the power is 1 to double precision
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(json.dumps([0.97, 0.01, 0.01, 0.01]))
        q.write_text(json.dumps([0.25, 0.25, 0.25, 0.25]))
        code = cli.main(["validate", "--scenario", "chisq", "--p", str(p), "--q", str(q),
                         "--shots", "2000000", "--trials", "1", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["pass"], doc["expected"], doc["estimate"]) == (True, 1.0, 1.0)

    @pytest.mark.parametrize("tiny", ["1e-20", "1e-300"])
    def test_chisq_against_a_reference_bin_near_zero(self, tiny, tmp_path, capsys):
        # lam = 400 w^2 is ~1e22 (a walk past 30 s) and ~1e302 (an OverflowError in the walk)
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text("[0.5, 0.5]")
        q.write_text(f"[{tiny}, 1.0]")
        with deadline(2):
            code = cli.main(["validate", "--scenario", "chisq", "--p", str(p), "--q", str(q),
                             "--shots", "400", "--trials", "100"])
        assert (code, capsys.readouterr().out) == (0, "chisq: estimate=1 expected=1 band(4SE)=0 PASS\n")

    def test_missing_scenario_arguments(self):
        assert cli.main(["validate", "--scenario", "inverse"]) == 2

    def test_binomial_op_finds_the_threshold_once_and_takes_one_tail_at_q1(self, monkeypatch, capsys):
        # the rejection threshold is a bisection over tails at q0; the simulator finds it
        # once, and the prediction at it is one tail at q1
        thresholds, tails = [], []
        threshold, cdf = sp.binomial_rejection_threshold, sp.binomial_cdf
        for module in (sp, mc):
            monkeypatch.setattr(module, "binomial_rejection_threshold",
                                lambda *args: thresholds.append(threshold(*args)) or thresholds[-1])
            monkeypatch.setattr(module, "binomial_cdf", lambda *args: tails.append(args) or cdf(*args))
        code = cli.main(["validate", "--scenario", "binomial", "--q0", "0.99", "--q1", "0.985",
                         "--shots", "100000", "--trials", "20"])
        assert (code, thresholds) == (0, [threshold(100000, 0.99, 0.05)])
        assert [args for args in tails if args[2] != 0.99] == [(thresholds[0], 100000, 0.985)]
        assert "PASS" in capsys.readouterr().out

    def test_chisq_op_solves_the_critical_value_once(self, dist_files, monkeypatch, capsys):
        # the simulator draws against the critical value and predicts the power past the same one
        solves, quantile = [], sp.chi2_quantile
        for module in (sp, mc):
            monkeypatch.setattr(module, "chi2_quantile", lambda *args: solves.append(args) or quantile(*args))
        code = cli.main(["validate", "--scenario", "chisq", "--p", dist_files["p"], "--q", dist_files["q"],
                         "--shots", "400", "--trials", "200"])
        assert (code, solves) == (0, [(0.95, 3.0)])
        assert "PASS" in capsys.readouterr().out

    def test_validate_reads_the_prediction_from_the_simulator(self, dist_files, monkeypatch, capsys):
        # the model's boundary and rate are the simulator's: validate reaches stat_power only to
        # load the distributions and for the validity advice, and imports none of the model's pieces
        names = {"chi2_distance", "chi2_quantile", "noncentral_chi2_cdf", "binomial_rejection_threshold",
                 "binomial_cdf"}
        assert not names & set(vars(cli))
        monkeypatch.setattr(cli, "sp", types.SimpleNamespace(load_distribution=sp.load_distribution,
                                                             chisq_validity=sp.chisq_validity))
        for flags in (["inverse", "--fidelity", "0.99", "--shots", "458"],
                      ["swap", "--fidelity", "0.99", "--shots", "916"],
                      ["chisq", "--p", dist_files["p"], "--q", dist_files["q"], "--shots", "430"],
                      ["binomial", "--q0", "0.99", "--q1", "0.95", "--shots", "300"]):
            assert cli.main(["validate", "--scenario", *flags, "--trials", "500", "--json"]) == 0, flags[0]
            doc = json.loads(capsys.readouterr().out)
            assert doc["pass"] is True, flags[0]

    def test_binomial_true_rate_zero_is_always_detected(self, capsys):
        # every shot fails, so every trial is detected and the prediction is the tail at q = 0
        code = cli.main(["validate", "--scenario", "binomial", "--q0", "0.99", "--q1", "0",
                         "--shots", "17", "--trials", "500", "--seed", "34"])
        assert (code, capsys.readouterr().out) == (0, "binomial: estimate=1 expected=1 band(4SE)=0 PASS\n")

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

    @pytest.mark.parametrize("argv, message", [
        (["--scenario", "chisq", "--p", "{p}", "--q", "{q}", "--shots", str(2**63)],
         f"n_shots must lie in [1, 2^63), got {2**63}"),
        (["--scenario", "inverse", "--fidelity", "0.9", "--shots", str(10**30)],
         f"n_shots must lie in [1, 2^63), got {10**30}"),
        (["--scenario", "binomial", "--q0", "0.99", "--q1", "0.9", "--shots", str(2**64)],
         f"shot count must lie in [1, 2^63), got {2**64}"),
        (["--scenario", "swap", "--fidelity", "0.9", "--shots", "5", "--trials", str(2**63)],
         f"trials must lie in [1, 2^63), got {2**63}"),
    ], ids=["chisq_shots", "inverse_shots", "binomial_shots", "trials"])
    def test_counts_past_int64_fail_before_any_draw(self, argv, message, dist_files, monkeypatch, capsys):
        monkeypatch.setattr(mc, "uniform_block", None)  # a draw would raise TypeError
        argv = ["validate", *(arg.format(**dist_files) for arg in argv)]
        assert (cli.main(argv), capsys.readouterr()) == (2, ("", f"error: {message}\n"))

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

    def test_test_comparison_prices_every_cell_as_shots_chisq(self, capsys):
        assert cli.main(["curve", "test_comparison", "--points", "4", "--bins", "4,16,64"]) == 0
        header, rows = self._rows(capsys)
        for row in rows:
            fid = float(row[0])
            for k in (4, 16, 64):
                for case, w2 in (("small", sp.w2_small_discrepancy), ("attaining", sp.w2_fidelity_attaining)):
                    cell = int(row[header.index(f"n_chisq_{case}_k{k}")])
                    assert cell == sp.shots_chisq(w2(fid), k, 0.01, 0.01).shots, (fid, k, case)

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chisq", "--p", "p.json"], "distribution mode needs both --p and --q"),
        (["noise", "decide", "--q0", "0.99", "--zeros", "3"], "decide mode needs --zeros and --shots"),
        (["noise", "decide", "--q0", "0.99", "--shots", "9"], "decide mode needs --zeros and --shots"),
        (["curve", "test_comparison", "--bins", "2,x"],
         "expected a comma-separated integer list, got '2,x'"),
        (["curve", "fid_vs_shots", "--points", "1"], "curve points must be >= 2, got 1"),
        (["curve", "fid_vs_shots", "--points", str(2**63)], f"curve points must lie in [2, 2^63), got {2**63}"),
        (["noise", "plan", "--q0", "1.5", "--q1", "0.9"],
         "q0 must lie in [0, 1], got 1.5"),
        (["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--alpha", "0"],
         "alpha must lie in (5.551115123125783e-17, 1), got 0.0"),
        (["validate", "--scenario", "inverse", "--fidelity", "1.0", "--shots", "10"],
         "fidelity must lie in [0, 1), got 1.0"),
        (["curve", "test_comparison", "--bins", "1"], "bins must lie in [2, 4194305], got 1"),
        # past the bins cap the gamma series would run out of terms (NoConvergence)
        (["chisq", "--w2", "0.01", "--bins", "4194306"], "bins must lie in [2, 4194305], got 4194306"),
        (["chisq", "--w2", "0.01", "--bins", "16777217"], "bins must lie in [2, 4194305], got 16777217"),
        (["curve", "test_comparison", "--bins", "16,4194306"], "bins must lie in [2, 4194305], got 4194306"),
        (["curve", "test_comparison", "--beta", "1.5"], "beta must lie in (5.551115123125783e-17, 1), got 1.5"),
        # at or below 2^-54, 1 - alpha and 1 - beta round to 1; a two-sided plan halves alpha first
        (["chisq", "--w2", "0.01", "--alpha", "1e-17"], "alpha must lie in (5.551115123125783e-17, 1), got 1e-17"),
        (["chisq", "--w2", "0.01", "--beta", "1e-17"], "beta must lie in (5.551115123125783e-17, 1), got 1e-17"),
        (["curve", "test_comparison", "--alpha", "1e-17"], "alpha must lie in (5.551115123125783e-17, 1), got 1e-17"),
        (["noise", "plan", "--q0", "0.99", "--q1", "0.9", "--alpha", "1e-16", "--two-sided"],
         "alpha must lie in (1.1102230246251565e-16, 1), got 1e-16"),
        # a power 1 - beta at or below alpha: the boundary itself is rejected
        (["chisq", "--w2", "0.01", "--alpha", "0.5", "--beta", "0.5"], "power must lie in (alpha, 1), got 0.5"),
        (["curve", "test_comparison", "--alpha", "0.6", "--beta", "0.5"], "power must lie in (alpha, 1), got 0.5"),
        (["curve", "fid_vs_shots", "--stop", "inf"], "curve stop must be finite, got inf"),
        # q1 is checked as a success probability before the reference columns price it as a fidelity
        (["curve", "noise_binomial", "--q1", "1.5"],
         "q1 must lie in [0, 1], got 1.5"),
        # an out-of-domain bound is named at the grid end, as given
        (["curve", "test_comparison", "--stop", "1.5"], "fidelity must lie in [0, 1], got 1.5"),
        # a gap whose square underflows, and a w^2 so small that lambda / w^2 overflows
        (["noise", "plan", "--q0", "1e-300", "--q1", "0"],
         "q0 - q1 = 1e-300 is too small to plan for: its square underflows to 0"),
        (["curve", "noise_binomial", "--start", "1e-300", "--stop", "1e-299", "--q1", "0"],
         "q0 - q1 = 1e-300 is too small to plan for: its square underflows to 0"),
        (["chisq", "--w2", "1e-310"], "lambda / w^2 (w^2 = 1e-310) must be finite, got inf"),
        # decide's shot count is held below 2^63 like every other, before the tail sum, whose
        # cost near the mean grows as n^(1/3)
        (["noise", "decide", "--q0", "0.5", "--zeros", str(2**62), "--shots", str(2**63)],
         f"shot count must lie in [1, 2^63), got {2**63}"),
        (["noise", "decide", "--q0", "0.5", "--zeros", str(2**69), "--shots", str(2**70)],
         f"shot count must lie in [1, 2^63), got {2**70}"),
    ],
)
def test_bad_flags_exit_2_with_one_error_line(argv, message, capsys):
    with deadline(1):
        assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_HUGE = "1" + "0" * 400  # an integer literal beyond float range
_SPEC = json.dumps({"fidelity_target": 0.99, "p_e": 0.05, "hardware": {"r1": 1e-7, "r2": 5e-7},
                    "blocks": [{"name": "A", "g1": 5}]})


def _state(n="1", data="[[1, 0], [0, 0]]", kind="pure"):
    return f'{{"kind": "{kind}", "n": {n}, "data": {data}}}'


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("chisq", f"[{_HUGE}, 0]", f"bin 0 probability must be finite and >= 0, got {_HUGE}"),
        ("chisq", "[0.5, -1e999]", "bin 1 probability must be finite and >= 0, got -inf"),
        ("chisq", "[true, false]", "bin 0 probability: expected a number, got True"),
        ("chisq", '[0.5, "0.5"]', "bin 1 probability: expected a number, got '0.5'"),
        ("qcb", _state(data=f"[[1, 0], [0, {_HUGE}]]"), f'state "data"[1] must be finite, got {_HUGE}'),
        ("qcb", _state(data="[[true, 0], [0, 0]]"), 'state "data"[0]: expected a number, got True'),
        ("qcb", _state(data='[[1, 0], ["0", 0]]'), 'state "data"[1]: expected a number, got \'0\''),
        ("qcb", _state(n="true"), 'state "n": expected an integer, got True'),
        ("qcb", _state(n="0"), 'state "n" must be >= 1, got 0'),
        ("qcb", _state(data="{}"), 'state "data" must be a list of [re, im] pairs'),
        ("qcb", _state(data="[1, 0]"),
         'state "data" entries must be [re, im] pairs: cannot unpack non-iterable int object'),
        ("qcb", _state(kind="density"), "density matrix on 1 qubits needs 4 entries, got 2"),
        ("budget", _SPEC.replace("1e-07", _HUGE), f"/hardware/r1 must be finite and >= 0, got {_HUGE}"),
        ("budget", _SPEC.replace("1e-07", "true"), "/hardware/r1: expected a number, got True"),
        ("budget", _SPEC.replace("0.05", '"0.05"'), "/p_e: expected a number, got '0.05'"),
        ("budget", _SPEC.replace('"blocks"', '"chisq": {"alpha": 0.5, "beta": 0.5}, "blocks"'),
         "power must lie in (alpha, 1), got 0.5"),
        ("budget", _SPEC.replace('"blocks"', '"chisq": {"bins": 4194306}, "blocks"'),
         "/chisq/bins must lie in [2, 4194305], got 4194306"),
        ("budget", _SPEC.replace('"blocks"', '"chisq": {"alpha": 1e-17}, "blocks"'),
         "/chisq/alpha must lie in (5.551115123125783e-17, 1), got 1e-17"),
        # a good distribution file, then a bad flag
        ("validate", "[0.5, 0.5]", "alpha must lie in (5.551115123125783e-17, 1), got 1e-17"),
        ("qcb", "[1, 0]", "state document must be a JSON object, got list"),
    ],
    ids=["bin_huge_int", "bin_float_overflow", "bin_bool", "bin_string", "data_huge_int", "data_bool",
         "data_string", "n_bool", "n_zero", "data_not_list", "malformed_pair", "density_size",
         "spec_huge_int", "spec_bool", "spec_string", "spec_chisq_power", "spec_chisq_bins", "spec_chisq_alpha",
         "validate_chisq_alpha", "state_not_object"],
)
def test_bad_input_files_exit_2_with_one_error_line(command, text, message, tmp_path, capsys):
    # distribution, state and spec files: the entry is named and nothing is traced back
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    path = str(bad)
    argv = {"chisq": ["chisq", "--p", path, "--q", path], "qcb": ["qcb", path, path],
            "budget": ["budget", "--spec", path],
            "validate": ["validate", "--scenario", "chisq", "--p", path, "--q", path, "--shots", "10",
                         "--alpha", "1e-17"]}[command]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["shots", "--fidelity", "0.99", "--test", "swap", "--json"],
    ["qcb", "a.json", "b.json", "--pe", "0.01"],
    ["chisq", "--p", "p.json", "--q", "q.json", "--bins", "8"],
    ["noise", "decide", "--q0", "0.99", "--zeros", "3", "--shots", "9", "--two-sided"],
    ["budget", "--spec", "s.json", "--out", "csv", "--strict"],
    ["validate", "--scenario", "chisq", "--p", "p.json", "--q", "q.json", "--shots", "5"],
    ["curve", "noise_binomial", "--q1", "0.9", "--points", "3"],
], ids=lambda argv: argv[0])
def test_the_parser_of_one_command_reads_as_the_parser_of_all(argv):
    # main builds only the arguments of the command that argv[0] names
    assert cli.build_parser(argv[0]).parse_args(argv) == cli.build_parser().parse_args(argv)
