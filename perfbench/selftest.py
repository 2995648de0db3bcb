"""Self-test of the oracles: real outputs pass, corrupted outputs are flagged.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For the first op of every kind in every
workload it runs the real CLI once, requires the oracle to accept the
output, then applies each corruption listed for that oracle and requires
the oracle to reject every one.  Exits 1 if any check goes the wrong way.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import oracles
import run
import workloads


def _edit_json(path: tuple, change):
    """Corruption that applies `change` to the value at `path` in a JSON output."""

    def corrupt(out: str) -> str:
        doc = json.loads(out)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        return json.dumps(doc)

    return corrupt


def _drop_line(index: int):
    def corrupt(out: str) -> str:
        lines = out.splitlines()
        del lines[index]
        return "\n".join(lines) + "\n"

    return corrupt


def _csv_theta(out: str) -> str:
    lines = out.splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) * 1.001)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _validate_estimate(out: str) -> str:
    doc = json.loads(out)
    doc["estimate"] = doc["expected"] + 5.0 * doc["std_error"] + 1e-9
    return json.dumps(doc)


CORRUPTIONS = {
    "qcb": {
        "Q off by 1e-4": _edit_json(("q",), lambda v: v + 1e-4),
        "fidelity off by 1e-4": _edit_json(("fidelity",), lambda v: v - 1e-4),
        "trace distance off by 1e-4": _edit_json(("trace_distance",), lambda v: v + 1e-4),
        "shots plus one": _edit_json(("shots", "shots"), lambda v: v + 1),
    },
    "chisq": {
        "w2 off by 1e-6 relative": _edit_json(("w2",), lambda v: v * (1.0 + 1e-6)),
        "lambda off by 1e-5 relative": _edit_json(("noncentrality",), lambda v: v * (1.0 + 1e-5)),
        "shots plus one": _edit_json(("shots",), lambda v: v + 1),
    },
    "decide": {
        "p-value off by 1e-4 relative": _edit_json(("p_value",), lambda v: v * (1.0 + 1e-4)),
        "reject flipped": _edit_json(("reject",), lambda v: not v),
    },
    "shots": {
        "swap raw off by 1e-9 relative": _edit_json(
            ("estimates", 2, "raw"), lambda v: v * (1.0 + 1e-9)),
        "pure shots plus one": _edit_json(("estimates", 0, "shots"), lambda v: v + 1),
    },
    "plan": {
        "raw off by 1e-5 relative": _edit_json(("raw",), lambda v: v * (1.0 + 1e-5)),
        "shots plus one": _edit_json(("shots",), lambda v: v + 1),
    },
    "budget/json": {
        "block dropped": _edit_json(("blocks",), lambda v: v[:-1]),
        "theta off by 1e-6 relative": _edit_json(
            ("blocks", 0, "theta"), lambda v: v * (1.0 + 1e-6)),
        "lambda off by 1e-5 relative": _edit_json(
            ("chisq", "noncentrality"), lambda v: v * (1.0 + 1e-5)),
        "infeasible flag toggled": _edit_json(
            ("blocks", -1, "infeasible"), lambda v: [] if v else ["chisq_attaining"]),
    },
    "budget/csv": {
        "row dropped": _drop_line(-1),
        "theta off by 1e-3 relative": _csv_theta,
    },
    "budget/table": {
        "row dropped": _drop_line(1),
    },
    "validate": {
        "verdict FAIL": _edit_json(("pass",), lambda v: False),
        "estimate 5 SE off": _validate_estimate,
    },
}


def _oracle_key(check: dict) -> str:
    if check["oracle"] == "budget":
        return f"budget/{check['out']}"
    return check["oracle"]


def main() -> int:
    if not os.path.isfile(run.PACKAGE_MARKER):
        print(f"selftest: {run.PACKAGE_MARKER} not found; run from a checkout root", file=sys.stderr)
        return 2
    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    bad = 0
    try:
        runner = run.Runner(work)
        for workload in workloads.WORKLOADS:
            ops = workloads.build(workload, 1, os.path.join(work, workload))
            seen: set[str] = set()
            for op in ops:
                if op["kind"] in seen:
                    continue
                seen.add(op["kind"])
                result = runner.plain(op["argv"])
                out = result["stdout"].decode("utf-8")
                result = runner.check(op, result)
                status = "ok" if result["error"] is None else f"REJECTED: {result['error']}"
                bad += result["error"] is not None
                print(f"{op['kind']:28s} real output                   {status}")
                for label, corrupt in CORRUPTIONS[_oracle_key(op["check"])].items():
                    reason = oracles.check(op["check"], corrupt(out))
                    bad += reason is None
                    status = f"flagged: {reason}" if reason else "NOT FLAGGED"
                    print(f"{op['kind']:28s} {label:29s} {status[:110]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest:", "FAIL" if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
