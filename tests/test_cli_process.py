"""The command line as a process: ``python -m shotbudget`` writes the bytes and
exits with the code that ``cli.main`` gives in process, and a standard stream
that is closed or cannot take the output ends the process as the interpreter's
own shutdown ends it.

Each child runs with PYTHONPATH set to the package's source directory,
LC_ALL=C.UTF-8 and a block-buffered stdout (PYTHONUNBUFFERED is removed unless
a case sets it), so the results do not depend on the shell that runs the tests.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import shotbudget
from shotbudget import cli

from test_budget_golden import _large_spec
from test_lazy_imports import INPUT_FILES, NUMPY_FREE

ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
       "PYTHONPATH": str(pathlib.Path(shotbudget.__file__).parents[1]), "LC_ALL": "C.UTF-8"}

# the numpy-free commands (exit codes 0, 1 and 2), then equal states priced (exit 3) and one validate
PROCESS_CASES = [
    *NUMPY_FREE,
    ["qcb", "a.json", "a.json", "--pe", "0.01"],
    ["validate", "--scenario", "inverse", "--fidelity", "0.99", "--shots", "60", "--trials", "400",
     "--seed", "7", "--json"],
]

# what the interpreter prints when it cannot flush stdout at shutdown; it then exits 120
_IGNORED = "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
_EPIPE = "BrokenPipeError: [Errno 32] Broken pipe\n"
_SHOTS = ["shots", "--fidelity", "0.99", "--pe", "0.01"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("process")
    files = {**INPUT_FILES, "a.json": {"kind": "pure", "n": 1, "data": [[0.6, 0.0], [0.8, 0.0]]},
             "blocks50.json": _large_spec(blocks=50, explicit=5), "large.json": _large_spec()}
    for name, doc in files.items():
        (root / name).write_text(json.dumps(doc), encoding="utf-8")
    return root


def _shotbudget(argv, cwd, env=ENV, **streams) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "shotbudget", *argv], cwd=cwd, env=env, timeout=120,
                          **streams)


def _in_process(argv, workdir, monkeypatch, capsys) -> tuple:
    monkeypatch.chdir(workdir)
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out.encode("utf-8"), captured.err


@pytest.mark.parametrize("argv", PROCESS_CASES, ids="-".join)
def test_process_writes_what_main_writes(argv, workdir, monkeypatch, capsys):
    run = _shotbudget(argv, workdir, capture_output=True)
    expected = _in_process(argv, workdir, monkeypatch, capsys)
    assert (run.returncode, run.stdout, run.stderr.decode("utf-8")) == expected


@pytest.mark.parametrize("argv, unbuffered, code, stderr", [
    (_SHOTS, False, 120, _IGNORED + _EPIPE),
    # 5.5 kB, under the buffer size: a flush that fails can drop it, and the code must still be 120
    (["budget", "--spec", "blocks50.json", "--out", "csv"], False, 120, _IGNORED + _EPIPE),
    # 10k rows overflow the buffer inside main, which reports the failed write first
    (["budget", "--spec", "large.json", "--out", "csv"], False, 120,
     "error: [Errno 32] Broken pipe\n" + _IGNORED + _EPIPE),
    (["--help"], False, 120, _IGNORED + _EPIPE),  # argparse exits through SystemExit
    # unbuffered, the first write fails inside main and nothing is left to flush
    (_SHOTS, True, 2, "error: [Errno 32] Broken pipe\n"),
], ids=["shots", "budget_small_csv", "budget_10k_csv", "help", "shots_unbuffered"])
def test_stdout_pipe_closed_before_start(argv, unbuffered, code, stderr, workdir):
    read, write = os.pipe()
    os.close(read)
    env = {**ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else ENV
    try:
        run = _shotbudget(argv, workdir, env, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr.decode("utf-8")) == (code, stderr)


def test_stdout_and_stderr_on_one_closed_pipe(workdir):
    # the report of the failed flush cannot be written either; the code is still 120
    read, write = os.pipe()
    os.close(read)
    try:
        run = _shotbudget(_SHOTS, workdir, stdout=write, stderr=write)
    finally:
        os.close(write)
    assert run.returncode == 120


def _redirected(redirect: str, argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(["/bin/sh", "-c", f'exec "$0" -m shotbudget "$@" {redirect}', sys.executable, *argv],
                          cwd=cwd, env=ENV, capture_output=True, timeout=120)


def test_closed_stdout_keeps_the_error_and_its_code(workdir):
    # with fd 1 closed sys.stdout is None
    run = _redirected(">&-", ["qcb", "/nonexistent", "x"], workdir)
    assert (run.returncode, run.stdout, run.stderr.decode("utf-8")) == (
        2, b"", "error: [Errno 2] No such file or directory: '/nonexistent'\n")


def test_closed_stderr_keeps_the_output(workdir, monkeypatch, capsys):
    run = _redirected("2>&-", _SHOTS, workdir)
    code, out, _ = _in_process(_SHOTS, workdir, monkeypatch, capsys)
    assert (run.returncode, run.stdout, run.stderr) == (code, out, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_reports_the_failed_flush(workdir):
    run = _redirected(">/dev/full", _SHOTS, workdir)
    assert (run.returncode, run.stderr.decode("utf-8")) == (
        120, _IGNORED + "OSError: [Errno 28] No space left on device\n")


# os.wait4's ru_maxrss counts the pages that the forking process held, so a launcher started
# without site, far smaller than the test process, spawns the child and reports its exit code
# and peak (KiB on Linux)
_LAUNCHER = ("import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions="
             "[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]); _, status, usage = os.wait4(pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_rss_mb(argv, cwd) -> float:
    run = subprocess.run([sys.executable, "-S", "-c", _LAUNCHER, sys.executable, "-m", "shotbudget", *argv],
                         cwd=cwd, env=ENV, capture_output=True, timeout=120, check=True)
    code, peak = map(int, run.stdout.split())
    assert code == 0, (argv, code)
    return peak / 1024


@pytest.mark.parametrize("argv, flag, small, large", [
    (["curve", "fid_vs_shots"], "--points", 1_000, 100_000),
    # 2 and 62 blocks of 2^16 trials
    (["validate", "--scenario", "inverse", "--fidelity", "0.9", "--shots", "5"], "--trials", 70_000, 4_000_000),
    (["validate", "--scenario", "binomial", "--q0", "0.99", "--q1", "0.9", "--shots", "5"], "--trials",
     70_000, 4_000_000),
    # 2 and 16 blocks: a chisq block draws 100 shots over three bins
    (["validate", "--scenario", "chisq", "--p", "p3.json", "--q", "q3.json", "--shots", "100"], "--trials",
     70_000, 1_000_000),
], ids=["curve", "validate", "validate-binomial", "validate-chisq"])
def test_peak_rss_does_not_grow_with_the_run(argv, flag, small, large, workdir):
    # entry runs main without the cycle collector, so a cycle left behind per row or per
    # block would pile up; 100k curve rows held at once take ~15 MB
    peaks = [_peak_rss_mb([*argv, flag, str(size)], workdir) for size in (small, large)]
    assert peaks[1] < peaks[0] + 2.0, peaks


def test_only_entry_ends_the_process_without_teardown():
    # main, and every library function, return to their caller
    calls = []
    for path in sorted(pathlib.Path(shotbudget.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_exit":
                inside = [fn.name for fn in functions if fn.lineno <= node.lineno <= fn.end_lineno]
                calls.append(f"{path.stem}.{'.'.join(inside) or '<module>'}")
    assert calls == ["cli.entry"]
