"""Mutation pass over the package's boundary checks and tolerances.

Each mutant changes one line of `src/shotbudget`: a comparison's direction or
strictness, an interval's bracket or bound, a tolerance used at 10x its value,
or a constant or guard moved.  The runner copies the repository once to a new
temporary directory, applies each mutant there in turn, runs the tier-1 suite,
all but its check of this list, with `pytest -x` under a 150 s cap, restores
the file and reports the mutant as killed (a test failed), survived (every
test passed) or hung (the cap ran out).  A mutant whose line is no longer in
the source is reported stale, so the list keeps up with the code;
`tests/test_edges.py` checks the same in tier-1.  An equivalent mutant, which
no input can tell apart from the code, is listed with its reason and expected
to survive.

A surviving mutant costs a full tier-1 run, so this script is not part of
tier-1 (`testpaths` is `tests`).  Run it from the repository root:

    python tools/mutants.py

It runs the whole list, removes the copy and exits 0 when every mutant not
marked equivalent is killed.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
CAP_SECONDS = 150.0  # one tier-1 run; a mutant that outlasts it is reported hung
# tier-1's check of this list, which reads every applied mutant as a stale entry
LIST_CHECK = "tests/test_edges.py::test_every_mutant_changes_a_line_that_is_in_its_module_once"

# (module under src/shotbudget, the source text as it stands, its mutant, the reason it is
# equivalent or None).  The source text is unique in its module; where one line occurs twice,
# the text carries the next line too, and the mutant still changes one line.
MUTANTS = [
    ("states.py", "if abs(norm - 1.0) > tol.NORM_ATOL:", "if abs(norm - 1.0) > 10 * tol.NORM_ATOL:", None),
    ("states.py", "if dev > tol.HERMITICITY_ATOL:", "if dev > 10 * tol.HERMITICITY_ATOL:", None),
    ("states.py", "if abs(tr - 1.0) > tol.TRACE_ATOL:", "if abs(tr - 1.0) > 10 * tol.TRACE_ATOL:", None),
    ("states.py", "if not float(eig[0][0]) >= tol.PSD_CLAMP_FLOOR:",
     "if not float(eig[0][0]) >= 10 * tol.PSD_CLAMP_FLOOR:", None),
    ("states.py", "if value > 1.0 + tol.UNIT_INTERVAL_SLACK:", "if value > 1.0 + 10 * tol.UNIT_INTERVAL_SLACK:", None),
    ("states.py", "if value < -tol.UNIT_INTERVAL_SLACK:", "if value < -10 * tol.UNIT_INTERVAL_SLACK:", None),
    ("shot_estimators.py", "upper.raw * (1.0 + 1e-12) + 1e-12:", "upper.raw * (1.0 + 1e-6) + 1e-6:", None),
    ("shot_estimators.py", "if lower.raw > upper.raw", "if lower.raw >= upper.raw", None),
    ("stat_power.py", "if abs(total - 1.0) > tol.DISTRIBUTION_SUM_ATOL:",
     "if abs(total - 1.0) > 10 * tol.DISTRIBUTION_SUM_ATOL:", None),
    ("stat_power.py", "if abs(total - 1.0) > tol.DISTRIBUTION_SUM_ATOL:",
     "if abs(total - 1.0) >= tol.DISTRIBUTION_SUM_ATOL:",
     "a total within [0.5, 2] minus 1 is exact, a multiple of 2^-53, which the double nearest 1e-8 is not; "
     "outside it the difference is at least 0.5, so no total sits on the edge"),
    ("stat_power.py", "if n_shots * q < 5.0]", "if n_shots * q <= 5.0]", None),
    ("stat_power.py", "if n_shots < 13:", "if n_shots <= 13:", None),
    ("stat_power.py", 'check_range("quantile probability", prob, 0, 1, "()")',
     'check_range("quantile probability", prob, 0, 1, "[]")', None),
    ("stat_power.py", 'q0, alpha = check_range("baseline q0", q0, 0, 1, "(]")',
     'q0, alpha = check_range("baseline q0", q0, 0, 1, "[]")', None),
    ("stat_power.py", "if not alpha < 1.0 - beta:", "if not alpha <= 1.0 - beta:", None),
    ("stat_power.py", "if not alpha < power < 1.0:", "if not alpha <= power < 1.0:", None),
    ("stat_power.py", 'check_range("bins", bins, 2, tol.CHISQ_MAX_BINS, kind=int)',
     'check_range("bins", bins, 2, tol.CHISQ_MAX_BINS + 1, kind=int)', None),
    ("stat_power.py", 'check_range("bins", bins, 2, tol.CHISQ_MAX_BINS, kind=int)',
     'check_range("bins", bins, 1, tol.CHISQ_MAX_BINS, kind=int)', None),
    ("stat_power.py", 'check_range("observed count", count, 0, n, kind=int)',
     'check_range("observed count", count, 0, n + 1, kind=int)', None),
    ("stat_power.py", 'check_range("observed count", count, 0, n, kind=int)',
     'check_range("observed count", count, -1, n, kind=int)', None),
    ("stat_power.py", 'check_range("q0", q0, 0, 1), check_range("q1", q1, 0, 1)',
     'check_range("q0", q0, 0, 1, "(]"), check_range("q1", q1, 0, 1)', None),
    ("stat_power.py", 'check_range("q0", q0, 0, 1), check_range("q1", q1, 0, 1)',
     'check_range("q0", q0, 0, 1), check_range("q1", q1, 0, 1, "[)")', None),
    ("stat_power.py", 'alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR * (1 if one_sided else 2), 1, "()")',
     'alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR * (1 if one_sided else 2), 1, "[)")', None),
    ("stat_power.py", "(1 if one_sided else 2)", "(1 if one_sided else 1)", None),
    ("stat_power.py", 'beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "()")\n    if q1 >= q0:',
     'beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "[)")\n    if q1 >= q0:', None),
    ("stat_power.py", 'beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "()")\n    if q1 >= q0:',
     'beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "(]")\n    if q1 >= q0:', None),
    ("stat_power.py", 'alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "()")',
     'alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "[)")', None),
    ("stat_power.py", 'beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "()")\n    if not alpha',
     'beta = check_range("beta", beta, tol.ERROR_RATE_FLOOR, 1, "[)")\n    if not alpha', None),
    ("stat_power.py", 'alpha, power = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "()")',
     'alpha, power = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "[)")', None),
    ("stat_power.py", "if q1 >= q0:", "if q1 > q0:", None),
    ("stat_power.py", "if min(p_a, p_b) < 0.5:", "if min(p_a, p_b) <= 0.5:", None),
    ("budget.py", 'check_range("/chisq/bins", chisq.get("bins", 16), 2, tol.CHISQ_MAX_BINS, kind=int)',
     'check_range("/chisq/bins", chisq.get("bins", 16), 2, tol.CHISQ_MAX_BINS + 1, kind=int)', None),
    ("budget.py", 'check_range("/chisq/bins", chisq.get("bins", 16), 2, tol.CHISQ_MAX_BINS, kind=int)',
     'check_range("/chisq/bins", chisq.get("bins", 16), 1, tol.CHISQ_MAX_BINS, kind=int)', None),
    ("budget.py", 'check_range("/chisq/alpha", chisq.get("alpha", 0.01), tol.ERROR_RATE_FLOOR, 1, "()")',
     'check_range("/chisq/alpha", chisq.get("alpha", 0.01), tol.ERROR_RATE_FLOOR, 1, "[)")', None),
    ("budget.py", 'check_range("/chisq/beta", chisq.get("beta", 0.01), tol.ERROR_RATE_FLOOR, 1, "()")',
     'check_range("/chisq/beta", chisq.get("beta", 0.01), tol.ERROR_RATE_FLOOR, 1, "[)")', None),
    ("montecarlo.py", 'alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "()")',
     'alpha = check_range("alpha", alpha, tol.ERROR_RATE_FLOOR, 1, "[)")', None),
    ("montecarlo.py", "if not 0 <= seed <= MASK64:", "if not 0 <= seed < MASK64:", None),
    ("montecarlo.py", 'check_range("fidelity", fid, 0, 1, "[)")', 'check_range("fidelity", fid, 0, 1, "[]")', None),
    ("montecarlo.py", 'check_range("fidelity", fid, 0, 1, "[)")', 'check_range("fidelity", fid, 0, 1, "()")', None),
    ("montecarlo.py", 'q0, q1 = check_range("baseline q0", q0, 0, 1, "(]")',
     'q0, q1 = check_range("baseline q0", q0, 0, 1, "[]")', None),
    ("errors.py", "if count >= 2**63:", "if count > 2**63:", None),
    ("cli.py", 'check_count("curve points", points, 2)', 'check_count("curve points", points, 3)', None),
    ("tolerances.py", "ERROR_RATE_FLOOR = 2.0**-54", "ERROR_RATE_FLOOR = 2.0**-55", None),
    ("tolerances.py", "ERROR_RATE_FLOOR = 2.0**-54", "ERROR_RATE_FLOOR = 2.0**-53", None),
    ("numerics.py", "tiny = 1e-150", "tiny = 1e-300", None),
    ("numerics.py", "if abs(d) < tiny:", "if abs(d) < 0.0:", None),
    ("numerics.py", "if abs(c) < tiny:", "if abs(c) < 0.0:", None),
]


def run(scratch: pathlib.Path, module: str, source: str, mutant: str) -> tuple[str, float]:
    """Apply one mutant in scratch, run tier-1 there and restore the module: (outcome, seconds)."""
    path = scratch / "src" / "shotbudget" / module
    text = path.read_text(encoding="utf-8")
    if text.count(source) != 1:
        return "stale", 0.0
    path.write_text(text.replace(source, mutant), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(scratch / "src")}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", LIST_CHECK]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=scratch, env=env, capture_output=True, timeout=CAP_SECONDS)
        outcome = "survived" if done.returncode == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "hung"
    finally:
        path.write_text(text, encoding="utf-8")
    return outcome, time.perf_counter() - start


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as parent:
        scratch = pathlib.Path(parent) / "repo"
        shutil.copytree(ROOT, scratch, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
        print("| module | mutant | outcome | seconds |\n| --- | --- | --- | --- |", flush=True)
        for module, source, mutant, equivalent in MUTANTS:
            outcome, seconds = run(scratch, module, source, mutant)
            expected = "survived" if equivalent else "killed"
            failed += outcome != expected
            note = f" (equivalent: {equivalent})" if equivalent else ""
            shown = mutant.splitlines()[0].replace("|", "\\|")
            print(f"| `{module}` | `{shown}` | {outcome}{note} | {seconds:.0f} |", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
