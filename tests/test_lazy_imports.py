"""The package's import surface: the planning and budget commands run without numpy,
the lazy submodules still reach the benchmark's layer tracer, and the
public names resolve on first access as if they were imported eagerly."""

import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import shotbudget
from shotbudget import cli

from test_budget_golden import SPECS

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(pathlib.Path(shotbudget.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}

# spec and distribution files for the budget and chisq commands, written to the working directory
INPUT_FILES = {
    "gate_weighted.json": SPECS["gate_weighted"],
    "sub_resolution.json": SPECS["sub_resolution"],
    "bad.json": {**SPECS["gate_weighted"], "fidelity_target": 2},
    "skew.json": [0.4, 0.2, 0.2, 0.2],
    "flat.json": [0.25, 0.25, 0.25, 0.25],
    "p3.json": [0.3, 0.3, 0.4],
    "q3.json": [0.01, 0.01, 0.98],
    "q3_zero.json": [0.0, 0.02, 0.98],
}

# the commands that run only math code; a strict infeasible budget and three bad inputs last
NUMPY_FREE = [
    ["shots", "--fidelity", "0.99"],
    ["shots", "--fidelity", "0.9", "--test", "mixed", "--regime-factor", "2", "--json"],
    ["shots", "--trace-distance", "0.1"],
    ["noise", "plan", "--q0", "0.99", "--q1", "0.95"],
    ["noise", "decide", "--q0", "0.99", "--zeros", "980", "--shots", "1000", "--json"],
    ["noise", "decide", "--q0", "0.99", "--zeros", "989800", "--shots", "1000000", "--json"],
    ["chisq", "--w2", "0.01"],
    ["chisq", "--fidelity", "0.99", "--case", "attaining", "--json"],
    ["chisq", "--p", "skew.json", "--q", "flat.json"],
    ["chisq", "--p", "skew.json", "--q", "flat.json", "--json"],
    ["chisq", "--p", "p3.json", "--q", "q3.json"],  # both validity warnings
    ["curve", "fid_vs_shots", "--points", "5"],
    ["curve", "test_comparison", "--points", "5"],
    ["curve", "noise_binomial", "--points", "5"],
    ["curve", "trace_vs_shots", "--points", "5"],
    *(["budget", "--spec", "gate_weighted.json", "--out", out] for out in ("table", "json", "csv")),
    ["budget", "--spec", "sub_resolution.json", "--strict"],
    ["shots", "--fidelity", "2"],
    ["budget", "--spec", "bad.json"],
    ["chisq", "--p", "p3.json", "--q", "q3_zero.json"],  # a zero reference bin
]

_BLOCKED_RUN = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from shotbudget import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runs.append([cli.main(argv), out.getvalue()])
print(json.dumps(runs))
"""


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    run = subprocess.run([sys.executable, *args], cwd=cwd, env=ENV, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


def test_planning_commands_print_the_same_without_numpy(tmp_path, monkeypatch, capsys):
    for name, doc in INPUT_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    blocked = json.loads(_python("-c", _BLOCKED_RUN, json.dumps(NUMPY_FREE), cwd=tmp_path).stdout)
    unblocked = []
    for argv in NUMPY_FREE:
        code = cli.main(argv)
        unblocked.append([code, capsys.readouterr().out])
    assert blocked == unblocked
    assert [code for code, _ in blocked] == [0] * (len(NUMPY_FREE) - 4) + [1, 2, 2, 2]


def test_importing_the_package_loads_no_numpy():
    # statistics too: only the binomial planner needs it, and it loads decimal and fractions
    loaded = "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'statistics'))))"
    # the attribute access runs the lazy budget module
    code = (f"import sys, shotbudget; {loaded}; import shotbudget.cli; {loaded}; "
            f"import shotbudget.budget; shotbudget.budget.allocate; {loaded}")
    assert _python("-c", code).stdout == "[]\n[]\n[]\n"


def test_no_command_loads_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize (~8 ms) on every command
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    loaded = f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {heavy}))"
    code = (f"import sys, shotbudget.cli; {loaded}; "
            f"import shotbudget.budget; shotbudget.budget.allocate; {loaded}")
    assert _python("-c", code).stdout == "[]\n[]\n"


def test_no_module_imports_dataclasses():
    # record types are typing.NamedTuples or errors.Record classes
    importers = []
    for path in sorted(pathlib.Path(shotbudget.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            importers += [path.name for module in modules if module.partition(".")[0] == "dataclasses"]
    assert importers == []


def _traced(tmp_path, name: str, *argv: str) -> dict:
    spans = tmp_path / f"{name}.json"
    _python(str(ROOT / "perfbench" / "launcher.py"), str(spans), "0", "spans", "--", *argv,
            cwd=tmp_path)
    doc = json.loads(spans.read_text(encoding="utf-8"))
    return {"absent": doc["absent"], "spans": {span[0] for span in doc["spans"]}}


def test_benchmark_tracer_reaches_the_lazy_modules(tmp_path):
    # the tracer wraps the modules registered by `import shotbudget.cli`, so a
    # submodule imported only inside a command would drop out of its layers
    state = {"kind": "pure", "n": 1, "data": [[1.0, 0.0], [0.0, 0.0]]}
    (tmp_path / "a.json").write_text(json.dumps(state))
    state["data"] = [[0.6, 0.0], [0.8, 0.0]]
    (tmp_path / "b.json").write_text(json.dumps(state))
    validate = _traced(tmp_path, "validate", "validate", "--scenario", "inverse", "--fidelity",
                       "0.99", "--shots", "458", "--trials", "2000", "--json")
    qcb = _traced(tmp_path, "qcb", "qcb", "a.json", "b.json")
    assert validate["absent"] == qcb["absent"] == []
    assert {"montecarlo.simulate_inverse_miss_rate", "rng.uniform_block"} <= validate["spans"]
    assert {"states.load_state", "states.qcb_q", "states.fidelity", "states.trace_distance",
            "numerics.hermitian_eigendecomposition"} <= qcb["spans"]


def test_dir_lists_every_public_name():
    assert set(shotbudget.__all__) <= set(dir(shotbudget))
    assert shotbudget.__all__ == sorted(shotbudget.__all__)


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'shotbudget' has no attribute 'no_such_name'"):
        shotbudget.no_such_name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from shotbudget import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(shotbudget.__all__)


def test_public_names_are_their_home_module_attributes():
    for name in shotbudget.__all__:
        value = getattr(shotbudget, name)
        assert value.__module__.startswith("shotbudget."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_export_lists_name_only_defined_names():
    # a name left in __all__ after its definition goes breaks `import *` from that module
    for info in pkgutil.iter_modules(shotbudget.__path__):
        if info.name == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(f"shotbudget.{info.name}")
        exported = getattr(module, "__all__", ())  # the attribute access runs a lazy module
        assert [name for name in exported if name not in vars(module)] == [], info.name
    for home, names in shotbudget._EXPORTS.items():
        module = importlib.import_module(f"shotbudget.{home}")
        if hasattr(module, "__all__"):  # errors defines none
            assert [name for name in names.split() if name not in module.__all__] == [], home


def test_every_error_type_is_raised_somewhere():
    # an error class that no `raise X(` names any more is a check that went away
    raised = set()
    for path in pathlib.Path(shotbudget.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    errors = shotbudget.errors
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)
               and issubclass(value, errors.ShotBudgetError) and value.__module__ == errors.__name__}
    assert sorted(defined - raised) == []
