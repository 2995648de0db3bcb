"""Pinned stdout bytes and exit codes of the planning commands, and one
digest over every shot formula on a seeded grid.

The shots, qcb, curve and decide cases, and the grid digest, were
recorded from the ten per-formula estimator functions and the CLI that
dispatched to them one by one, before one formula table replaced them;
the validate cases before its flag checks were reworked; the chisq and
noise plan cases and every stderr line before the planning commands
shared one result path.  A change to these paths must reproduce them
byte for byte.  The --json forms of decide_1e3, decide_1e5 and
validate_binomial were recorded again when the binomial tail moved from
an O(n) log-space walk to the incomplete beta function: their p-value
and expected rate moved in the last digits, to within 3e-15 of
scipy.stats.binom.cdf (the walk was 1.4e-13 to 2.8e-10 off).  The
--json form of validate_chisq_alt was recorded again twice, each time
nearer a 40-digit reference of its expected rate: when the noncentral
chi-square CDF became a recurrence, and when the incomplete gamma took
Loader's prefactor (CHANGES.md, Decisions).  The digests are sha256 of the UTF-8 stdout; state and
distribution files are written here, so no fixture is committed.
"""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from conftest import counting
from shotbudget import cli
from shotbudget.shot_estimators import Formula, estimate

_SHOTS_FID = ["shots", "--fidelity", "0.99", "--pe", "0.01"]
_SHOTS_TRACE = ["shots", "--trace-distance", "0.1", "--pe", "0.05"]

CASES = {
    "shots_fid_all": _SHOTS_FID,
    "shots_fid_pure": _SHOTS_FID + ["--test", "pure"],
    "shots_fid_inverse": _SHOTS_FID + ["--test", "inverse"],
    "shots_fid_swap": _SHOTS_FID + ["--test", "swap"],
    "shots_fid_mixed": _SHOTS_FID + ["--test", "mixed"],
    "shots_fid_regime": _SHOTS_FID + ["--regime-factor", "1.5"],
    "shots_fid_regime_swap": _SHOTS_FID + ["--test", "swap", "--regime-factor", "1.5"],
    "shots_fid_conservative": _SHOTS_FID + ["--conservative"],
    "shots_fid_zero": ["shots", "--fidelity", "0.0"],
    "shots_trace_all": _SHOTS_TRACE,
    "shots_trace_pure": _SHOTS_TRACE + ["--test", "pure"],
    "shots_trace_pure_mixed": _SHOTS_TRACE + ["--test", "pure-mixed"],
    "shots_trace_mixed": _SHOTS_TRACE + ["--test", "mixed"],
    "shots_trace_regime": _SHOTS_TRACE + ["--regime-factor", "1.5"],
    "shots_trace_conservative": _SHOTS_TRACE + ["--conservative"],
    "shots_trace_one": ["shots", "--trace-distance", "1.0"],
    "shots_fid_degenerate": ["shots", "--fidelity", "1.0"],
    "qcb_pure": ["qcb", "{zero}", "{tilted}", "--pe", "0.01"],
    "qcb_orthogonal": ["qcb", "{zero}", "{one}", "--pe", "0.01"],
    "qcb_identical": ["qcb", "{zero}", "{zero}", "--pe", "0.01"],
    # two full-rank states: the golden-section search runs
    "qcb_mixed": ["qcb", "{mixed_a}", "{mixed_b}", "--pe", "0.01"],
    "curve_fid_vs_shots": ["curve", "fid_vs_shots", "--points", "5"],
    "curve_test_comparison": ["curve", "test_comparison", "--points", "5"],
    "curve_noise_binomial": ["curve", "noise_binomial", "--points", "5"],
    "curve_trace_vs_shots": ["curve", "trace_vs_shots", "--points", "5"],
    "decide_1e3": ["noise", "decide", "--q0", "0.999", "--zeros", "995", "--shots", "1000"],
    "decide_1e5": ["noise", "decide", "--q0", "0.99", "--zeros", "98950", "--shots", "100000"],
    "validate_binomial": ["validate", "--scenario", "binomial", "--q0", "0.99", "--q1", "0.95",
                          "--shots", "300", "--trials", "2000", "--seed", "7"],
    "validate_inverse": ["validate", "--scenario", "inverse", "--fidelity", "0.99", "--shots", "60",
                         "--trials", "400", "--seed", "7"],
    "validate_swap": ["validate", "--scenario", "swap", "--fidelity", "0.9", "--shots", "25",
                      "--trials", "400", "--seed", "7"],
    "validate_chisq_alt": ["validate", "--scenario", "chisq", "--p", "{skew}", "--q", "{flat}",
                           "--shots", "120", "--trials", "300", "--seed", "7"],
    "validate_chisq_null": ["validate", "--scenario", "chisq", "--p", "{flat}", "--q", "{flat}",
                            "--shots", "120", "--trials", "300", "--seed", "7"],
    # P[Bin(2, 0.9) <= 0] = 0.01 > alpha = 0.005, so no count is rejected:
    # the threshold is -1 and the expected rate 0
    "validate_binomial_no_reject": ["validate", "--scenario", "binomial", "--q0", "0.9", "--q1", "0.5",
                                    "--shots", "2", "--alpha", "0.005", "--trials", "300", "--seed", "7"],
    "chisq_w2": ["chisq", "--w2", "0.05", "--bins", "8"],
    "chisq_fid_small": ["chisq", "--fidelity", "0.99", "--case", "small"],
    "chisq_fid_attaining": ["chisq", "--fidelity", "0.99", "--case", "attaining", "--bins", "4"],
    "chisq_dist": ["chisq", "--p", "{skew}", "--q", "{flat}"],
    # w^2 = 17.2 plans 2 shots: both validity warnings go to stderr (into the document under --json)
    "chisq_dist_warnings": ["chisq", "--p", "{p3}", "--q", "{q3}"],
    "chisq_w2_zero": ["chisq", "--w2", "0"],
    "noise_plan": ["noise", "plan", "--q0", "1.0", "--q1", "0.99"],
    "noise_plan_two_sided": ["noise", "plan", "--q0", "0.99", "--q1", "0.95", "--alpha", "0.05",
                             "--two-sided"],
}
# curves are CSV only; every other case is pinned as a table and as --json
JSON_CASES = sorted(name for name in CASES if not name.startswith("curve_"))

# (case, --json) -> (exit code, sha256 of stdout)
GOLDEN = {
    ('curve_fid_vs_shots', False): (0, "8c6cb79966b25e72befc0bb4cc8e9ee813850ce8a429e7fea48d83f42a47c440"),
    ('curve_noise_binomial', False): (0, "1ac92eac5d0fc37b659d01b24471553ea176c7c5a9e256af437880ce46c82c22"),
    ('curve_test_comparison', False): (0, "71388edd0853b07ba8901ecd34c6afa64aa251236c2d00730ffd9c0465a3694d"),
    ('curve_trace_vs_shots', False): (0, "42bbc72a6274130641cc4eabcf7e95158ee5c57435a457aba7873a90d7593fdb"),
    ('decide_1e3', False): (0, "4e4f5b56d4aecfa2b45621d3a2b252e623f34ec3f98d27804f834abbce3b5c56"),
    ('decide_1e3', True): (0, "1ae33e53119872f6d537ca01878cef041ebaec3720c79799be3938c6f6f290f5"),
    ('decide_1e5', False): (0, "3d8ab956ab2d7109e97c1a529eb608d1621d76af713b4c9772d2bfbb75285713"),
    ('decide_1e5', True): (0, "8659a9630a658d6eb5b17f7a4b8e206f0061ae6803f6a53b8eb86ab0006bad38"),
    ('qcb_identical', False): (3, "1776234f4d4cba380f8bef8a63fba97a53bdf7c499409dc89b527e8756e24bd8"),
    ('qcb_identical', True): (3, "cefcc3a8fcf5be50b2c8b41f437a8b4797c69b887373bf52f47877adce97bb30"),
    ('qcb_mixed', False): (0, "b4681c27a9707f03f4355ec3af3a1c32c1e2cb72493354ae8fb03e144eb44bcf"),
    ('qcb_mixed', True): (0, "5f2d9f805e74d9687eebee4fe1efebadb23894de52e1950b6e09f7bc1c637631"),
    ('qcb_orthogonal', False): (0, "ecd675b9f89ce108f1f0895e9b4d217bbeb7edebdcaf9539897fe43a172b20e0"),
    ('qcb_orthogonal', True): (0, "2bb22777b997b10084dadc2958ea34521c7edab9c9f8d569409c437e6b7176a2"),
    ('qcb_pure', False): (0, "98f46b5e74d7852257a1f9eee8b45b1f3b9c7401c2f897f1dac182a24b8c7c27"),
    ('qcb_pure', True): (0, "626b7a8798b2c4e64c9a703510aed3f030dc8efbc3ffbdcbf728dfab344aeb56"),
    ('shots_fid_all', False): (0, "3681339063abb283cf92d1775bcc8b7785a9131d7506fefce8710a030a0ed591"),
    ('shots_fid_all', True): (0, "0da2c969d50130d543b7566bff6bbd62bd01feb6bb7ba48c679cf6addf3b5c60"),
    ('shots_fid_conservative', False): (0, "d241ca61678d6225e2bcbc4bd31271171316b968d455d016caf210ffdd871def"),
    ('shots_fid_conservative', True): (0, "e7ca0697acb60366fd38c42199c70923f4b6f8c74103b154f429c70290214589"),
    ('shots_fid_degenerate', False): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('shots_fid_degenerate', True): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('shots_fid_inverse', False): (0, "8e91bbc1b5716aacc8cd23be7c2071bf519c94b55d9028aea9254abda19f7164"),
    ('shots_fid_inverse', True): (0, "e7e897e48197959067009fe7fbb3655db9f9d0f00491697c917b0165b0035434"),
    ('shots_fid_mixed', False): (0, "91503f37f06de60b6562af09733f79c63bde953c2fc99e0effee0eb538484493"),
    ('shots_fid_mixed', True): (0, "f141debd81cd71803044325d0fcc125df87532c0d9f09bf6832fda8824b6214f"),
    ('shots_fid_pure', False): (0, "dae5b50125a7d9d3dd7c0630ba635f6a9762268101d1cc2659b85ee3eedf7a67"),
    ('shots_fid_pure', True): (0, "f7e602a27c5499701fc1d44034e1e30c86f8bb5fc9088ad393ba76b7847e0e65"),
    ('shots_fid_regime', False): (0, "62d027720f776dd8eaaf752214b62bbeea73b17aa7baf091a250ae4d74adf7a9"),
    ('shots_fid_regime', True): (0, "32ea155e9ec35175d8d2581e0dbcae1079b4edc4b05bafde72cdadcbdad0a68d"),
    ('shots_fid_regime_swap', False): (0, "2f841e17d8c0c72124261e8c923af42364afae1e97e0273316509bde7465ad04"),
    ('shots_fid_regime_swap', True): (0, "e20148465dacac8f893af764b48a3c3f66b6af73a7948fc085e1dc20fd96db2c"),
    ('shots_fid_swap', False): (0, "b7773e85b3c8bc0b8d7cbc82ffde27d95f973e2da61b6e5b9eed40cf1eb3e601"),
    ('shots_fid_swap', True): (0, "31b50decec3aef259256f6d8c8b0f448c9edc5b310efe4c1749982b4359fe1f9"),
    ('shots_fid_zero', False): (0, "ed30f0844d0f8851dc31cbefcbccf8cda7c6fdcc9a09af46d138137a3921121b"),
    ('shots_fid_zero', True): (0, "0393723562925b2fbade63fc9fff3a1dd6fcb43f9008e23d2f2848683c7ee7d7"),
    ('shots_trace_all', False): (0, "b76905776b96602cf5c3cd068c957a6a7859eb073f121a5e6484dba768198935"),
    ('shots_trace_all', True): (0, "0af01b17db23a7c562dbbcebbc3e46e004f91b22bfa72d5ab69451cbcd7981b3"),
    ('shots_trace_conservative', False): (0, "dabb5aefbcb8932288ee9886711b3da455657d89fff2a5135c23751230a13315"),
    ('shots_trace_conservative', True): (0, "51dfb6e5e1c3919a1da5f8b21fc9a93f389333bcfcf5d506228fabf954a7ce85"),
    ('shots_trace_mixed', False): (0, "7c6fc76f415810a2e5c9b8a6e2c79ba52b2b52cb6c9936df1f074e1ca9491737"),
    ('shots_trace_mixed', True): (0, "c3971768ec3cabdc37ff3ac6d19c1c3a4a48b3846979ce8e3608077ef784b0a1"),
    ('shots_trace_one', False): (0, "e793a00e21152fe7ae8b6a9bca155a366dbe2565aa80d029af5aeca21eef5506"),
    ('shots_trace_one', True): (0, "7eb5659793d13dd14f2c687b591d5b886334d9296117b70e3e606ca840413fbd"),
    ('shots_trace_pure', False): (0, "4bcb0577545b7353a665c0b6da665dd9a597c11acc298ab8c531bdfbe53f6f6d"),
    ('shots_trace_pure', True): (0, "0e24e037bb59c9cf3afe366abc04391cd26c42ee683a5309d0858d95a3b5aaa2"),
    ('shots_trace_pure_mixed', False): (0, "a1b49f23519ff314d2dbc52c0bd63738a27daa88d46c8be6b9ecd38eab827796"),
    ('shots_trace_pure_mixed', True): (0, "bc7ce980c5d262f10275aac9ce06711826ccf1915a18a342d16d553a79aa9ee2"),
    ('shots_trace_regime', False): (0, "b76905776b96602cf5c3cd068c957a6a7859eb073f121a5e6484dba768198935"),
    ('shots_trace_regime', True): (0, "4223b42fa5dd061190db7276acee2d66c127382e145a8b0d6025cdabd1c293a4"),
    ('validate_binomial', False): (0, "7a30e75ba7bab8e442514a10750c2de98c5abf60980d3e80164fe3215e26ef3c"),
    ('validate_binomial', True): (0, "c57d8d4a9f36151681c635898e67421294978b4c85cc309ba4cc2e428f95f467"),
    ('validate_binomial_no_reject', False): (0, "2d77bd89811d98d29e4d0e2db46cce03bdc16b0c604be1314087162172118dc3"),
    ('validate_binomial_no_reject', True): (0, "dc6665a7186d10209a67f5330c74cb8c11afbfa62b55a3787a4533fd1e872457"),
    ('validate_chisq_alt', False): (0, "62b2e832f1f3f8d02e3bcf1e0a598f6886e98362a1308395790fd23cc3c3c6d1"),
    ('validate_chisq_alt', True): (0, "4093e0dd699b7011ae42ea8da9f2b7c59776ccf5817996f072b49b3efb852c20"),
    ('validate_chisq_null', False): (0, "5f526e39b75599a2ba544717c36c00b842403f26ab65df7d2923140690a5e356"),
    ('validate_chisq_null', True): (0, "06eb65d7973f273fc41b6008ce338ec0f4ca31daa6eeac329508c63eeb26374b"),
    ('validate_inverse', False): (0, "d07124f3c4f28b17eecf57221c61e587a503dbf1d556b4bc45ec70bd5a66b036"),
    ('validate_inverse', True): (0, "5ad61db93518334623f4688eebee57d96c9b9e21ae8df831b34a653609aaa30c"),
    ('validate_swap', False): (0, "76e26549ecdd639957a208a81633817d906650d62433899b5cc8e125ab992b3e"),
    ('validate_swap', True): (0, "45112ff2dc9f3018724498e0a8e3495f46e95b0c68c60bbf41c2b61e32f76a6d"),
    ('chisq_dist', False): (0, "15488458a28063c1cc5b90eb9d1f70648dc67e27d69f1691cef1ff05a520b4f3"),
    ('chisq_dist', True): (0, "b78d5bec53bee2f5a9dbc8429f80b19a625eb2862990903b566fca5b3c287d11"),
    ('chisq_dist_warnings', False): (0, "3b2238e32f05dae3eb4b581f5c3a120f30830f6f94daac92053ec315da95c04d"),
    ('chisq_dist_warnings', True): (0, "c5b8e77e8c6fa170274354bd03c24c9f75c57ba227f479324d4e7d30738f678a"),
    ('chisq_fid_attaining', False): (0, "db4ba5f0e4d289de489dcceed77240eec8906622c0c10c29b82059bf4c930e76"),
    ('chisq_fid_attaining', True): (0, "fa7929e48f72cc74f5376444af16e84f163396d138bfabae5a1d202c63e15bce"),
    ('chisq_fid_small', False): (0, "fd0fae8197a33d2e7f93ada0bcbb94cc893555e683dc26ac0246f104f42b2291"),
    ('chisq_fid_small', True): (0, "c32301a164e2ea93d2dc37488752286b35345748836253fd0ddf19b01da8efce"),
    ('chisq_w2', False): (0, "766f664e1e23e89bc6aa18d23b1b3cea306b281159222aa3de50365a732a7217"),
    ('chisq_w2', True): (0, "e1c82fc3c1ef3a5ba0a1f6577777009d984780d701dfd27928a0a01d950723ec"),
    ('chisq_w2_zero', False): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('chisq_w2_zero', True): (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ('noise_plan', False): (0, "9877980f7e6319ea08e0ccdc223421179e7992841419cf694569699dba8001b9"),
    ('noise_plan', True): (0, "3fb453fe587c22354d97944ade1f5a4927d55f05d5fe5d8848cb4727a12c6998"),
    ('noise_plan_two_sided', False): (0, "9aa9e1ed514682d413e63249964eeb3dd32faf9536473f470fb9d9617cf083fe"),
    ('noise_plan_two_sided', True): (0, "de6278e43ec767a2c2437e53e2427c0ecc11bc8cc9cfc2462145f5a1207bb200"),
}

_DEGENERATE_FID = "degenerate input: fidelity 1.0 gives a per-shot Q of 1: no finite shot count separates the states\n"
_IDENTICAL = "states are indistinguishable (Q = 1); no finite shot count separates them\n"
_ORTHOGONAL = "orthogonal supports (Q = 0); a single shot distinguishes the states\n"
_W2_ZERO = "degenerate input: w^2 = 0: no discrepancy to detect\n"
# (case, --json) -> stderr; every case not listed writes nothing there.  qcb
# prints its notice under --json too; chisq moves its warnings into the document
STDERR = {
    ('chisq_dist_warnings', False): "warning: only 2 shots planned; chi-square approximation wants at least 13\n"
                                    "warning: expected count below 5 in 3 of 3 bins (0, 1, 2); merge bins or raise shots\n",
    ('chisq_w2_zero', False): _W2_ZERO,
    ('chisq_w2_zero', True): _W2_ZERO,
    ('qcb_identical', False): _IDENTICAL,
    ('qcb_identical', True): _IDENTICAL,
    ('qcb_orthogonal', False): _ORTHOGONAL,
    ('qcb_orthogonal', True): _ORTHOGONAL,
    ('shots_fid_degenerate', False): _DEGENERATE_FID,
    ('shots_fid_degenerate', True): _DEGENERATE_FID,
}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_inputs")
    states = {"zero": [1.0, 0.0], "one": [0.0, 1.0], "tilted": [math.cos(0.3), math.sin(0.3)]}
    docs = {name: {"kind": "pure", "n": 1, "data": [[a, 0.0] for a in amplitudes]}
            for name, amplitudes in states.items()}
    densities = {"mixed_a": [0.7, 0.2 + 0.1j, 0.2 - 0.1j, 0.3], "mixed_b": [0.4, -0.1, -0.1, 0.6]}
    docs.update({name: {"kind": "density", "n": 1, "data": [[complex(z).real, complex(z).imag] for z in entries]}
                 for name, entries in densities.items()})
    docs.update(flat=[0.25, 0.25, 0.25, 0.25], skew=[0.4, 0.2, 0.2, 0.2],
                p3=[0.3, 0.3, 0.4], q3=[0.01, 0.01, 0.98])
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


def _run(capsys, monkeypatch, input_dir, case):
    """Exit code, stdout bytes and stderr text of one case, run from the input directory.

    Files are named relative to it, since `chisq --p/--q --json` echoes the paths.
    """
    name, as_json = case
    monkeypatch.chdir(input_dir)
    argv = [re.sub(r"\{(\w+)\}", r"\1.json", arg) for arg in CASES[name]] + (["--json"] if as_json else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode("utf-8"), captured.err


ALL_CASES = sorted([(n, False) for n in CASES] + [(n, True) for n in JSON_CASES])


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c[0] + ("-json" if c[1] else ""))
def test_cli_output_is_pinned(case, input_dir, monkeypatch, capsys):
    code, out, _ = _run(capsys, monkeypatch, input_dir, case)
    assert (code, hashlib.sha256(out).hexdigest()) == GOLDEN[case], out[:400]


@pytest.mark.parametrize("case", ALL_CASES, ids=lambda c: c[0] + ("-json" if c[1] else ""))
def test_cli_stderr_is_pinned(case, input_dir, monkeypatch, capsys):
    code, _, err = _run(capsys, monkeypatch, input_dir, case)
    assert err == STDERR.get(case, ""), code


@pytest.mark.parametrize("scenario, flags", [
    ("inverse", "--fidelity and --shots"),
    ("swap", "--fidelity and --shots"),
    ("chisq", "--p, --q and --shots"),
    ("binomial", "--q0, --q1 and --shots"),
])
@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
def test_validate_missing_flags_are_pinned(scenario, flags, as_json, capsys):
    argv = ["validate", "--scenario", scenario, "--trials", "10"] + (["--json"] if as_json else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {scenario} scenario needs {flags}\n")


# every shots case without --conservative; the flag only relabels the count
SHOTS_ARGVS = sorted({tuple(arg for arg in argv if arg != "--conservative")
                      for name, argv in CASES.items() if name.startswith("shots_")})


@pytest.mark.parametrize("argv", SHOTS_ARGVS, ids=" ".join)
def test_conservative_changes_only_the_interpretation_cells(argv, capsys):
    seen = {}
    for flag, label in (([], "asymptotic estimate"), (["--conservative"], "lower-bound requirement")):
        code = cli.main([*argv, *flag, "--json"])
        out, err = capsys.readouterr()
        doc = json.loads(out) if out else {}
        for e in doc.get("estimates", ()):
            assert e.pop("interpretation") == label
        table_code = cli.main([*argv, *flag])
        table, table_err = capsys.readouterr()
        lines = table.splitlines()
        start = lines[0].find("interpretation") if lines else 0  # the last column
        assert all(line[start:].rstrip() in ("interpretation", label) for line in lines), table
        seen[label] = (code, doc, err, table_code, [line[:start] for line in lines], table_err)
    assert seen["asymptotic estimate"] == seen["lower-bound requirement"]

# ---------------------------------------------------------------------------
# the work each case does, counted from outside the package (conftest.counting)

# case -> (eigensolves, Chernoff objective calls, regularized_gamma_p calls, evaluations inside
# solve_increasing, continued-fraction terms taken by lentz_fraction, uniforms drawn).  Counts do
# not drift with the machine, so a change that moves one is a pin change, recorded in CHANGES.md
# like a golden.  The Poisson-mixture terms of noncentral_chi2_cdf are a loop inside it, which no
# wrapper sees.
WORKS = ("eigensolves", "objective_calls", "gamma_calls", "root_evaluations", "fraction_terms", "uniforms")
WORK_PINS = {
    'shots_fid_all': (0, 0, 0, 0, 0, 0),
    'shots_fid_pure': (0, 0, 0, 0, 0, 0),
    'shots_fid_inverse': (0, 0, 0, 0, 0, 0),
    'shots_fid_swap': (0, 0, 0, 0, 0, 0),
    'shots_fid_mixed': (0, 0, 0, 0, 0, 0),
    'shots_fid_regime': (0, 0, 0, 0, 0, 0),
    'shots_fid_regime_swap': (0, 0, 0, 0, 0, 0),
    'shots_fid_conservative': (0, 0, 0, 0, 0, 0),
    'shots_fid_zero': (0, 0, 0, 0, 0, 0),
    'shots_trace_all': (0, 0, 0, 0, 0, 0),
    'shots_trace_pure': (0, 0, 0, 0, 0, 0),
    'shots_trace_pure_mixed': (0, 0, 0, 0, 0, 0),
    'shots_trace_mixed': (0, 0, 0, 0, 0, 0),
    'shots_trace_regime': (0, 0, 0, 0, 0, 0),
    'shots_trace_conservative': (0, 0, 0, 0, 0, 0),
    'shots_trace_one': (0, 0, 0, 0, 0, 0),
    'shots_fid_degenerate': (0, 0, 0, 0, 0, 0),
    'qcb_pure': (3, 1, 0, 0, 0, 0),
    'qcb_orthogonal': (3, 1, 0, 0, 0, 0),
    'qcb_identical': (3, 0, 0, 0, 0, 0),
    'qcb_mixed': (4, 53, 0, 0, 0, 0),
    'curve_fid_vs_shots': (0, 0, 0, 0, 0, 0),
    'curve_test_comparison': (0, 0, 472, 479, 3106, 0),
    'curve_noise_binomial': (0, 0, 0, 0, 0, 0),
    'curve_trace_vs_shots': (0, 0, 0, 0, 0, 0),
    'decide_1e3': (0, 0, 0, 0, 6, 0),
    'decide_1e5': (0, 0, 0, 0, 37, 0),
    'validate_binomial': (0, 0, 0, 0, 65, 347136),
    'validate_inverse': (0, 0, 0, 0, 0, 24000),
    'validate_swap': (0, 0, 0, 0, 0, 10000),
    'validate_chisq_alt': (0, 0, 35, 35, 509, 81600),
    'validate_chisq_null': (0, 0, 34, 35, 509, 89700),
    'validate_binomial_no_reject': (0, 0, 0, 0, 1, 600),
    'chisq_w2': (0, 0, 67, 68, 311, 0),
    'chisq_fid_small': (0, 0, 67, 68, 283, 0),
    'chisq_fid_attaining': (0, 0, 67, 68, 401, 0),
    'chisq_dist': (0, 0, 67, 68, 401, 0),
    'chisq_dist_warnings': (0, 0, 68, 69, 34, 0),
    'chisq_w2_zero': (0, 0, 0, 0, 0, 0),
    'noise_plan': (0, 0, 0, 0, 0, 0),
    'noise_plan_two_sided': (0, 0, 0, 0, 0, 0),
}


def test_work_counts_are_pinned(input_dir, monkeypatch, capsys):
    # the whole set twice, so a count that depends on what ran before (a cache, say) differs
    runs = []
    for _ in range(2):
        runs.append({})
        for name in CASES:
            with counting(*WORKS) as work:
                _run(capsys, monkeypatch, input_dir, (name, False))
            runs[-1][name] = tuple(work.values())
    assert runs[0] == runs[1]
    assert runs[0] == WORK_PINS, "\n".join(f"    {name!r}: {counts}," for name, counts in runs[0].items())

# ---------------------------------------------------------------------------
# every formula on a seeded grid


def _grid(seed: int = 20260822, size: int = 400):
    """(x, p_e, R) triples, x in [0, 1) on a log scale from both ends of the interval."""
    rng = np.random.default_rng(seed)
    near_zero = 10.0 ** rng.uniform(-7.0, 0.0, size)
    x = np.where(rng.random(size) < 0.5, near_zero, 1.0 - near_zero)
    x = np.clip(x, 1e-7, 1.0 - 1e-7)
    p_e = 10.0 ** rng.uniform(-9.0, np.log10(0.5), size)
    r = rng.uniform(1.0, 2.0, size)
    return [(0.0, 0.05, 1.0), (0.5, 0.5, 1.5)] + list(zip(x.tolist(), p_e.tolist(), r.tolist()))


ESTIMATOR_DIGEST = "390900330f902976e07c32ea1c0f4a63a1567721ce9f11ee0a3c9ceeaebb173f"


def test_every_formula_on_the_seeded_grid():
    h = hashlib.sha256()
    rows = 0
    for i, (x, p_e, r) in enumerate(_grid()):
        # the recording order was Formula's with QCB moved last; fidelity
        # rows and Q get x, trace-distance rows 1 - x
        for formula in sorted(Formula, key=lambda f: f is Formula.QCB):
            value = 1.0 - x if formula.value.startswith("trace") else x
            if formula is Formula.QCB and value == 0.0:
                continue  # Q = 0 is the orthogonal case, priced by callers
            e = estimate(formula, value, p_e, r)
            label = cli._estimate_doc(e, conservative=i % 2 == 1)["interpretation"]
            h.update(f"{formula.value} {e.raw.hex()} {e.shots} {e.formula.value} {label}\n".encode())
            rows += 1
    assert rows == 402 * 13 - 1
    assert h.hexdigest() == ESTIMATOR_DIGEST

# ---------------------------------------------------------------------------
# curves long enough to cross the 1,024-row chunk joins of the row writer

# 2,500 rows: two full chunks and a partial one.  Recorded from the writer
# that joined the whole CSV into one string before it wrote.
CURVE_CHUNK_DIGESTS = {
    "fid_vs_shots": "8d98361bd418d6157a5e500db81550f0af24760a5045ea77d4d9b24a55189c76",
    "test_comparison": "c92ba1f1d787f827a895e9eda5cc2b836de377a76326e1bad320fa32d7d1b005",
    "noise_binomial": "2c20932fee428b59bd2969ad0f7e570c5c08d9ce788b8dafa9b711aa4c4fdb79",
    "trace_vs_shots": "1c430f8c0221a15725172bf73b3ae7e055c39e744a075aecfe2184db8a9e3166",
}


@pytest.mark.parametrize("curve", sorted(CURVE_CHUNK_DIGESTS))
def test_curve_across_chunk_joins_is_pinned(curve, capsys):
    assert cli.main(["curve", curve, "--points", "2500"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 2501
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == CURVE_CHUNK_DIGESTS[curve]
