"""Compare benchmark runs of two commits.

    python3 perfbench/compare.py BASE_RESULTS.jsonl NEW_RESULTS.jsonl

Each file holds the records run.py appends to .perfbench_work/results.jsonl,
one per run.  For every workload and metric this prints both sides'
median and quartiles over their runs and the ratio new/base with its
base.  End-to-end metrics also get a verdict against the bound fixed in
BENCHMARK.json:

  worse       the new median is worse than the base median by more than the bound
  better      every new run beats every base run, or the medians differ in
              the better direction by more than the base quartile distance
  unchanged   neither, and both sides' spreads are within the bound
  unresolved  a side's quartile distance over its median exceeds the bound,
              and the new runs do not all beat the base runs

Per-layer metrics (traced runs) are listed with their ratios only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def load(path: str) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values over runs."""
    runs: dict[tuple[str, int], dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            metrics = runs.setdefault((record["workload"], record["trace"]), {})
            for name, metric in record["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    b1, bm, b3 = summary(base)
    n1, nm, n3 = summary(new)
    sign = 1.0 if lower_is_better else -1.0
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if all_better:
        return "better"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        return "unresolved"
    if sign * (nm - bm) > bound * abs(bm):
        return "worse"
    if sign * (bm - nm) > (b3 - b1):
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n== {workload} ({'traced, per-layer' if trace else 'end-to-end'}): "
              f"{len(next(iter(base[key].values())))} base runs, "
              f"{len(next(iter(new[key].values())))} new runs")
        print(f"{'metric':52s} {'base q1/median/q3':>30s} {'new q1/median/q3':>30s} "
              f"{'new/base':>9s}  verdict")
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = summary(base[key][name]), summary(new[key][name])
            ratio = f"{n[1] / b[1]:9.3f}" if b[1] else f"{'n/a':>9s}"
            line = (f"{name:52s} {b[0]:9.4g}/{b[1]:9.4g}/{b[2]:9.4g} "
                    f"{n[0]:9.4g}/{n[1]:9.4g}/{n[2]:9.4g} {ratio}")
            if not trace and name in bounds:
                m = bounds[name]
                v = verdict(base[key][name], new[key][name], m["bound"], m["better"] == "lower")
                worse += v == "worse"
                line += f"  {v} (bound {m['bound']:g}, base {b[1]:.6g} {m['unit']})"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
