"""Traced child process: one CLI op with spans around the layer functions.

Usage: python perfbench/launcher.py SPANS_PATH OP_ID MODE -- ARGV...

Times `import shotbudget.cli`, replaces each function in TARGETS with a
recording wrapper in every shotbudget module that holds it (which is
where its callers look it up), then runs shotbudget.cli.main(ARGV).
Spans are kept in memory and written to SPANS_PATH as one JSON document
at exit.  A target the package no longer has is listed as absent rather
than failing the op, so the same launcher runs on any commit.

MODE "spans" wraps every target.  MODE "memory" wraps only the Monte
Carlo simulators and runs each under tracemalloc, recording its peak
traced bytes; tracemalloc slows code that allocates many small arrays
several-fold, so it never runs in the same process as the timed spans.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# (module, function) pairs wrapped in every shotbudget module that holds
# them.  Public shots_* functions of shot_estimators are added at run time.
TARGETS = (
    ("numerics", "hermitian_eigendecomposition"),
    ("numerics", "regularized_gamma_p"),
    ("numerics", "solve_increasing"),
    ("numerics", "minimize_unimodal"),
    ("rng", "uniform_block"),
    ("states", "load_state"),
    ("states", "fidelity"),
    ("states", "trace_distance"),
    ("states", "qcb_q"),
    ("stat_power", "load_distribution"),
    ("stat_power", "noncentral_chi2_cdf"),
    ("stat_power", "lambda_noncentral"),
    ("stat_power", "binomial_decision"),
    ("stat_power", "binomial_rejection_threshold"),
    ("budget", "load_program_spec"),
    ("budget", "allocate"),
    ("montecarlo", "simulate_inverse_miss_rate"),
    ("montecarlo", "simulate_swap_miss_rate"),
    ("montecarlo", "simulate_chisq_power"),
    ("montecarlo", "simulate_binomial_detection"),
)


def _extra(name: str, args: tuple, result) -> object:
    """Work count attached to a span: elements, matrix size, blocks or trials."""
    if name == "rng.uniform_block":
        return int(getattr(result, "size", 0))
    if name == "numerics.hermitian_eigendecomposition":
        return int(args[0].shape[0])
    if name == "budget.allocate":
        return len(args[0]) if hasattr(args[0], "__len__") else None
    if name.startswith("montecarlo.simulate_"):
        return int(getattr(result, "trials", 0))
    return None


class Recorder:
    """Spans as [name, start, end, parent index, extra] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, memory: bool = False):
        """Wrapper recording one span per call; with `memory`, the span's
        work count is the peak bytes tracemalloc saw during the call."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    span[4] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span[2] = clock()
                stack.pop()
            if not memory:
                span[4] = _extra(name, args, result)
            return result

        return wrapper


def install(recorder: Recorder, memory: bool) -> list[str]:
    """Wrap every target where callers look it up; return the absent ones."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == "shotbudget" or name.startswith("shotbudget.")}
    targets = [t for t in TARGETS if t[1].startswith("simulate_")] if memory else list(TARGETS)
    estimators = modules.get("shotbudget.shot_estimators")
    if estimators is not None and not memory:
        targets += [("shot_estimators", n) for n in sorted(vars(estimators))
                    if n.startswith("shots_") and callable(getattr(estimators, n))]
    absent = []
    for module_name, attr in targets:
        module = modules.get(f"shotbudget.{module_name}")
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            absent.append(f"{module_name}.{attr}")
            continue
        wrapper = recorder.wrap(f"{module_name}.{attr}", original, memory)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return absent


def main() -> int:
    spans_path, op_id, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    argv = sys.argv[5:] if sys.argv[4] == "--" else sys.argv[4:]
    start = time.perf_counter()
    import shotbudget.cli as cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    absent = install(recorder, memory=mode == "memory")
    run = recorder.wrap("cli.main", cli.main)
    code = 1
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse exits on bad usage
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "mode": mode, "import_s": import_s, "absent": absent,
                       "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
