"""Closed-loop benchmark of the shotbudget command line.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client runs one child process per
op (`python -m shotbudget ...` with PYTHONPATH=src) and starts the next op
only after the previous child has exited.  Each op's output is checked by
an oracle in oracles.py, outside the timed region.  Per-child CPU time and
peak RSS come from os.wait4.

--trace 0 measures the end-to-end metrics.  --trace 1 runs every op plain
and through launcher.py, which records spans around the layer functions
(and, for Monte Carlo ops, once more for tracemalloc peaks); it reports the
per-layer metrics, normalised per op, and the tracing overhead.  The last line of stdout is one JSON object; every
run is also appended to .perfbench_work/results.jsonl for compare.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import oracles
import workloads

WORK = ".perfbench_work"
RESULTS = os.path.join(WORK, "results.jsonl")
PACKAGE_MARKER = os.path.join("src", "shotbudget", "__init__.py")
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
SETUP_REPEATS = 5
# The tail is the highest of these percentiles with at least MIN_BEYOND
# ops above it.  A fixed grid keeps the percentile, and so the metric,
# the same from run to run at a given op count.
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
# A run stops mid-cycle only when a commit is so slow that whole cycles
# would break the 180 s limit on one run.
HARD_STOP_FACTOR = 3.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Layer functions reported as .calls, .s and .self_s (per op).
LAYER_FUNCTIONS = (
    "cli.main",
    "numerics.hermitian_eigendecomposition",
    "numerics.regularized_gamma_p",
    "numerics.solve_increasing",
    "numerics.minimize_unimodal",
    "rng.uniform_block",
    "states.load_state",
    "states.fidelity",
    "states.trace_distance",
    "states.qcb_q",
    "stat_power.load_distribution",
    "stat_power.noncentral_chi2_cdf",
    "stat_power.lambda_noncentral",
    "stat_power.binomial_decision",
    "stat_power.binomial_rejection_threshold",
    "budget.load_program_spec",
    "budget.allocate",
    "montecarlo.simulate_inverse_miss_rate",
    "montecarlo.simulate_swap_miss_rate",
    "montecarlo.simulate_chisq_power",
    "montecarlo.simulate_binomial_detection",
)
EIGEN_DIMS = (4, 8, 16, 32)
SIMULATORS = ("inverse", "swap", "chisq", "binomial")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_latency_p50_s": "s",
    "op_latency_tail_s": "s",
    "op_cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name in LAYER_FUNCTIONS:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.s"] = "s/op"
        units[f"{name}.self_s"] = "s/op"
    units["cli.import_s"] = "s/op"
    units["cli.stdout_bytes"] = "B/op"
    for dim in EIGEN_DIMS:
        units[f"numerics.hermitian_eigendecomposition.s.d{dim}"] = "s/op"
    units["rng.uniforms_drawn"] = "uniforms/op"
    units["rng.uniforms_per_s"] = "uniforms/s"
    units["shot_estimators.calls"] = "calls/op"
    units["shot_estimators.s"] = "s/op"
    units["budget.blocks"] = "blocks/op"
    units["montecarlo.trials"] = "trials/op"
    units["montecarlo.uniforms_per_trial"] = "uniforms/trial"
    for sim in SIMULATORS:
        units[f"montecarlo.uniforms_per_trial.{sim}"] = "uniforms/trial"
    units["montecarlo.peak_alloc_mb"] = "MB"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# children


def child_env() -> dict[str, str]:
    """The same environment on every commit: no inherited Python settings,
    one BLAS thread (one client on nproc cores), fixed hash seed."""
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": os.path.abspath("src"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
        "LC_ALL": "C.UTF-8",
    }
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(cmd: list[str], env: dict[str, str]) -> dict:
    """Spawn with piped output, wait with os.wait4 for this child's own
    rusage, and time it from spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "latency_s": latency,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "code": proc.returncode,
        "stdout": out,
        "stderr": err,
    }


def _drain(proc: subprocess.Popen) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF without reaping the child."""
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        for pipe in (proc.stdout, proc.stderr):
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    out, err = (b"".join(chunks[pipe.fileno()]) for pipe in (proc.stdout, proc.stderr))
    proc.stdout.close()
    proc.stderr.close()
    return out, err


class Runner:
    """Runs ops plain or traced and checks each output with its oracle."""

    def __init__(self, work: str) -> None:
        self.env = child_env()
        self.spans_dir = os.path.join(work, "spans")
        os.makedirs(self.spans_dir, exist_ok=True)
        self.traced_ops = 0

    def plain(self, argv: list[str]) -> dict:
        cmd = [sys.executable, "-m", "shotbudget", *argv]
        return run_child(cmd, self.env)

    def traced(self, argv: list[str], mode: str) -> dict:
        """Run through the launcher in "spans" or "memory" mode."""
        spans = os.path.join(self.spans_dir, f"{self.traced_ops}.{mode}.json")
        cmd = [sys.executable, LAUNCHER, spans, str(self.traced_ops), mode, "--", *argv]
        self.traced_ops += 1
        result = run_child(cmd, self.env)
        result["spans"] = spans
        result["mode"] = mode
        return result

    def check(self, op: dict, result: dict) -> dict:
        """Replace the captured output by its size and the oracle's verdict."""
        raw = result.pop("stdout")
        result["stdout_bytes"] = len(raw)
        out = raw.decode("utf-8", errors="replace")
        err = result.pop("stderr").decode("utf-8", errors="replace")
        if result["code"] != 0:
            last = (err.strip().splitlines() or [""])[-1]
            result["error"] = f"exit code {result['code']}: {last[:200]}"
        else:
            result["error"] = oracles.check(op["check"], out)
        result["kind"] = op["kind"]
        return result


# ---------------------------------------------------------------------------
# set-up and the closed loop


def setup(runner: Runner, workload: str, seed: int, inputs: str) -> tuple[list[dict], list[float]]:
    """Generate the inputs and warm the page cache and bytecode, several times."""
    times = []
    ops: list[dict] = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        ops = workloads.build(workload, seed, inputs)
        warm = runner.plain(["shots", "--fidelity", "0.9", "--json"])
        times.append(time.perf_counter() - start)
        if warm["code"] != 0:
            raise SystemExit(f"perfbench: warm-up op failed with exit code {warm['code']}")
    return ops, times


def closed_loop(runner: Runner, ops: list[dict], seconds: float, trace: bool) -> tuple[list[dict], float, int]:
    """Repeat whole cycles while another cycle fits in `seconds`.

    With `trace`, each op also runs through the launcher for spans and,
    if it ran a Monte Carlo simulator, once more for its memory.  Oracle
    checks run outside the timed region.  Returns the op results, the
    timed wall time and the number of cycles run."""
    results: list[dict] = []
    timed = 0.0
    cycles = 0
    while True:
        for op in ops:
            start = time.perf_counter()
            batch = [runner.plain(op["argv"])]
            if trace:
                batch.append(runner.traced(op["argv"], "spans"))
                if _ran_simulator(batch[-1]["spans"]):
                    batch.append(runner.traced(op["argv"], "memory"))
            timed += time.perf_counter() - start
            for result in batch:
                results.append(runner.check(op, result))
            if timed > HARD_STOP_FACTOR * seconds:
                return results, timed, cycles + 1
        cycles += 1
        if timed + timed / cycles > seconds:
            return results, timed, cycles


def _ran_simulator(spans_path: str) -> bool:
    try:
        with open(spans_path, encoding="utf-8") as fh:
            return '"montecarlo.simulate_' in fh.read()
    except OSError:
        return False


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float:
    for pct in TAIL_GRID:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct
    return TAIL_GRID[-1]


def end_to_end(results: list[dict], timed: float, setup_times: list[float]) -> tuple[dict, dict]:
    latencies = sorted(r["latency_s"] for r in results)
    pct = tail_percentile(len(latencies))
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(results) / timed,
        "op_latency_p50_s": nearest_rank(latencies, 50.0),
        "op_latency_tail_s": nearest_rank(latencies, pct),
        "op_cpu_s": statistics.fmean(r["cpu_s"] for r in results),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    tail = {"percentile": pct, "samples": len(latencies)}
    return values, tail


# ---------------------------------------------------------------------------
# per-layer aggregation of the traced run


def _uniforms_below(spans: list[list], children: list[list[int]], index: int) -> int:
    total = 0
    pending = list(children[index])
    while pending:
        i = pending.pop()
        if spans[i][0] == "rng.uniform_block":
            total += spans[i][4] or 0
        pending.extend(children[i])
    return total


def per_layer(results: list[dict]) -> tuple[dict, list[str], dict]:
    """Per-op layer metrics, absent targets, and per op kind the mean
    main time and the four layers with the most self time."""
    traced = [r for r in results if r.get("mode") == "spans"]
    memory = [r for r in results if r.get("mode") == "memory"]
    plain = [r for r in results if "mode" not in r]
    calls = dict.fromkeys(LAYER_FUNCTIONS, 0)
    total = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
    self_time = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
    eig_by_dim = dict.fromkeys(EIGEN_DIMS, 0.0)
    ratios: dict[str, list[float]] = {sim: [] for sim in SIMULATORS}
    import_s = est_calls = est_s = uniforms = uniform_s = blocks = 0.0
    sim_trials = sim_uniforms = 0
    peak_alloc = 0
    absent: set[str] = set()
    kind_ops: dict[str, int] = {}
    kind_self: dict[str, dict[str, float]] = {}
    for result in traced:
        if not os.path.exists(result["spans"]):
            continue  # the launcher died before writing; the op counts as failed
        with open(result["spans"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        kind_ops[result["kind"]] = kind_ops.get(result["kind"], 0) + 1
        own = kind_self.setdefault(result["kind"], dict.fromkeys(LAYER_FUNCTIONS, 0.0))
        import_s += doc["import_s"]
        absent.update(doc["absent"])
        spans = doc["spans"]
        children: list[list[int]] = [[] for _ in spans]
        covered = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                children[parent].append(i)
                covered[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(spans):
            duration = end - start
            if name in calls:
                calls[name] += 1
                total[name] += duration
                self_time[name] += duration - covered[i]
                own[name] += duration - covered[i]
                if name == "cli.main":
                    own["main_s"] = own.get("main_s", 0.0) + duration
            if name.startswith("shot_estimators."):
                est_calls += 1
                if parent < 0 or not spans[parent][0].startswith("shot_estimators."):
                    est_s += duration
            elif name == "numerics.hermitian_eigendecomposition" and extra in eig_by_dim:
                eig_by_dim[extra] += duration
            elif name == "rng.uniform_block":
                uniforms += extra or 0
                uniform_s += duration
            elif name == "budget.allocate":
                blocks += extra or 0
            elif name.startswith("montecarlo.simulate_"):
                trials = extra or 0
                drawn = _uniforms_below(spans, children, i)
                sim_trials += trials
                sim_uniforms += drawn
                sim = name.removeprefix("montecarlo.simulate_").split("_")[0]
                ratios.setdefault(sim, []).append(drawn / trials if trials else 0.0)
    for result in memory:
        if os.path.exists(result["spans"]):
            with open(result["spans"], "r", encoding="utf-8") as fh:
                for name, _, _, _, peak in json.load(fh)["spans"]:
                    if name.startswith("montecarlo.simulate_"):
                        peak_alloc = max(peak_alloc, peak or 0)
    n = max(1, len(traced))
    metrics: dict[str, float] = {}
    for name in LAYER_FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.s"] = total[name] / n
        metrics[f"{name}.self_s"] = self_time[name] / n
    metrics["cli.import_s"] = import_s / n
    metrics["cli.stdout_bytes"] = statistics.fmean(r["stdout_bytes"] for r in traced) if traced else 0.0
    for dim in EIGEN_DIMS:
        metrics[f"numerics.hermitian_eigendecomposition.s.d{dim}"] = eig_by_dim[dim] / n
    metrics["rng.uniforms_drawn"] = uniforms / n
    metrics["rng.uniforms_per_s"] = uniforms / uniform_s if uniform_s > 0 else 0.0
    metrics["shot_estimators.calls"] = est_calls / n
    metrics["shot_estimators.s"] = est_s / n
    metrics["budget.blocks"] = blocks / n
    metrics["montecarlo.trials"] = sim_trials / n
    metrics["montecarlo.uniforms_per_trial"] = sim_uniforms / sim_trials if sim_trials else 0.0
    for sim in SIMULATORS:
        # median over calls, so one long single-trial op does not set it
        metrics[f"montecarlo.uniforms_per_trial.{sim}"] = (
            statistics.median(ratios[sim]) if ratios[sim] else 0.0)
    metrics["montecarlo.peak_alloc_mb"] = peak_alloc / 2**20
    metrics["trace.overhead_s"] = (
        statistics.median(r["latency_s"] for r in traced)
        - statistics.median(r["latency_s"] for r in plain)) if traced and plain else 0.0
    layers_by_kind = {}
    for kind, own in kind_self.items():
        ops = kind_ops[kind]
        top = sorted(LAYER_FUNCTIONS, key=own.get, reverse=True)[:4]
        layers_by_kind[kind] = {"main_s": own.get("main_s", 0.0) / ops,
                                "self_s": {name: own[name] / ops for name in top}}
    return metrics, sorted(absent), layers_by_kind


# ---------------------------------------------------------------------------
# run facts


def git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree (read, not executed)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_facts() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: child_env()[var] for var in BLAS_THREAD_VARS},
        "loadavg_before": os.getloadavg(),
    }


def by_kind(results: list[dict]) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in results:
        if "mode" not in r:
            kinds.setdefault(r["kind"], []).append(r["latency_s"])
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in kinds.items()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(PACKAGE_MARKER):
        print(f"perfbench: {PACKAGE_MARKER} not found; run from the root of a shotbudget "
              "checkout", file=sys.stderr)
        return 2
    facts = run_facts()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(work)
        ops, setup_times = setup(runner, args.workload, args.seed, os.path.join(work, "inputs"))
        results, timed, cycles = closed_loop(runner, ops, args.seconds, bool(args.trace))
        failed = [r for r in results if r["error"]]
        e2e, tail = end_to_end([r for r in results if "mode" not in r], timed, setup_times)
        if args.trace:
            metrics, absent, layers = per_layer(results)
            units = per_layer_units()
        else:
            metrics, absent, layers = e2e, [], {}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    facts["loadavg_after"] = os.getloadavg()
    failed_ratio = len(failed) / len(results)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": cycles, "ops_per_cycle": len(ops),
        "tail": tail, "failed_ops_ratio": failed_ratio, "absent": absent,
        "setup_times_s": setup_times, "by_kind": by_kind(results),
        "layers_by_kind": layers, "facts": facts,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": [f"{r['kind']}: {r['error']}" for r in failed[:20]],
    }
    with open(RESULTS, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for key in ("facts", "tail", "cycles", "absent", "failures", "layers_by_kind"):
        print(json.dumps({key: record[key]}))
    for name, value in metrics.items():
        print(f"{name:58s} {value:16.6g} {units[name]}")
    print(f"{'failed_ops_ratio':58s} {failed_ratio:16.6g} 1")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
