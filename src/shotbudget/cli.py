"""Command-line interface for shot planning and validation.

Subcommands:
  shots     shot formulas from a fidelity or trace-distance target
  qcb       Chernoff quantity, fidelity and trace distance of two states
  chisq     chi-square shot plan from w^2, a fidelity, or distributions
  noise     binomial planning (plan) and the exact decision rule (decide)
  budget    program-level Bures-angle allocation from a spec file
  validate  Monte Carlo check of a formula against its simulated truth
  curve     CSV sweeps of the shot formulas for plotting

Exit codes: 0 success, 1 validation failure or infeasible strict budget,
2 input or domain error, 3 degenerate input (nothing to distinguish).
The console script and `python -m shotbudget` run main through entry,
without the cycle collector, and end by os._exit, without teardown.

shots, qcb, chisq, noise and validate take --json.  Each of their cmd_*
returns one _Result: the JSON document, the table (one cell for the line
that decide and validate print) and the exit code.  main renders it once:
--json prints the document at full precision and nothing else on stdout;
otherwise the table renders at 6 significant digits and the document's
warnings go to stderr.  qcb's notice goes to stderr either way.  budget
picks its form with --out table|json|csv and curve writes CSV only; both
stream their rows.  Errors stay plain "error: ..." on stderr, --json or not.
"""

import argparse
import gc
import json
import math
import os
import re
import sys
from functools import cache, partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import DegenerateStates, Record, ShotBudgetError, check_count, check_range
from . import budget as budget_mod
from . import montecarlo as mc
from . import shot_estimators as est
from . import stat_power as sp
from . import states as st

__all__ = ["TestPlanParams", "CurveRequest", "main", "entry"]


class TestPlanParams(NamedTuple):
    """Error tolerances of a curve sweep."""

    p_e: float = 0.05
    alpha: float = 0.01
    beta: float = 0.01
    regime_factor: float = 1.0


class CurveRequest(Record):
    """One CSV sweep: grid bounds plus the fixed test parameters."""

    __slots__ = _fields = ("curve", "start", "stop", "points", "params", "bins", "q1_values")

    def __init__(self, curve: str, start: float, stop: float, points: int, params: TestPlanParams,
                 bins: tuple[int, ...] = (), q1_values: tuple[float, ...] = ()) -> None:
        points = check_count("curve points", points, 2)  # a grid of 2^63 fails before its first row
        start, stop = check_range("curve start", start), check_range("curve stop", stop)
        if not start < stop:
            raise ShotBudgetError(f"curve needs start < stop, got [{start}, {stop}]")
        self._set(curve, start, stop, points, params, bins, q1_values)


def _sig6(value: float) -> str:
    return f"{value:.6g}"


_CHUNK_ROWS = 1024  # rows per write, so output memory stays flat at any row count


def _write_rows(head: str, row: str, rows, sep: str = "", tail: str = "", out=None) -> None:
    """Write head, each row tuple through the %-template row joined by sep, then tail, to out or stdout."""
    stdout = out or sys.stdout
    stdout.write(head)
    first = True
    while chunk := sep.join(map(row.__mod__, islice(rows, _CHUNK_ROWS))):
        stdout.write(chunk if first else sep + chunk)
        first = False
    stdout.write(tail)


def _print_table(columns: list, tail: str = "") -> None:
    """Write columns of text cells, each headed by its first cell, as rows of left-aligned cells."""
    row = "  ".join(f"%-{max(map(len, column))}s" for column in columns) + "\n"
    _write_rows("", row, zip(*columns), tail=tail)


class _Result(NamedTuple):
    """What a planning command prints; see the module docstring."""

    doc: dict  # its "warnings" go to stderr under a table, its "notice" in both forms
    table: list  # rows of raw cells, the header first; decide and validate print one cell
    code: int = 0


def _jsonable(value):
    # strict JSON has no Infinity/NaN literals; map non-finite floats to null
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _render(result: _Result, as_json: bool) -> int:
    if as_json:
        print(json.dumps(_jsonable(result.doc), indent=2, allow_nan=False))
    else:
        _print_table([[_sig6(v) if isinstance(v, float) else str(v) for v in column] for column in zip(*result.table)])
        for warning in result.doc.get("warnings", ()):
            print(f"warning: {warning}", file=sys.stderr)
    if "notice" in result.doc:
        print(result.doc["notice"], file=sys.stderr)
    return result.code


def _estimate_doc(e: est.ShotEstimate) -> dict:
    return {
        "formula": e.formula.value,
        "raw": e.raw,
        "shots": e.shots,
        "interpretation": e.interpretation,
    }


# ---------------------------------------------------------------------------
# shots

F = est.Formula
# (source, --test) -> its formulas, a pair being a (lower, upper) bracket;
# --test all lists every row of the source in this order
_SHOT_TESTS = {
    ("fidelity", "pure"): (F.PURE,),
    ("fidelity", "inverse"): (F.INVERSE_IDEAL,),
    ("fidelity", "swap"): (F.SWAP_IDEAL,),
    ("fidelity", "mixed"): (F.MIXED_LOWER, F.MIXED_UPPER),
    ("trace_distance", "pure"): (F.TRACE_PURE,),
    ("trace_distance", "pure-mixed"): (F.TRACE_PURE_MIXED_LOWER, F.TRACE_PURE_MIXED_UPPER),
    ("trace_distance", "mixed"): (F.TRACE_MIXED_LOWER, F.TRACE_MIXED_UPPER),
}
_FAULT_PRONE = {F.INVERSE_IDEAL: F.INVERSE_REAL, F.SWAP_IDEAL: F.SWAP_REAL}  # used when R > 1


def cmd_shots(args: argparse.Namespace) -> _Result:
    if (args.fidelity is None) == (args.trace_distance is None):
        raise ShotBudgetError("provide exactly one of --fidelity or --trace-distance")
    source = "fidelity" if args.fidelity is not None else "trace_distance"
    x = getattr(args, source)
    keys = [key for key in _SHOT_TESTS if key[0] == source] if args.test == "all" else [(source, args.test)]
    if keys[0] not in _SHOT_TESTS:
        raise ShotBudgetError(f"--test {args.test} has no shot formula for --{source.replace('_', '-')}")
    estimates = []
    for key in keys:
        formulas = _SHOT_TESTS[key]
        if args.regime_factor > 1.0:
            formulas = [_FAULT_PRONE.get(f, f) for f in formulas]
        rows = [est.estimate(f, x, args.pe, args.regime_factor, conservative=args.conservative)
                for f in formulas]
        if len(rows) == 2:
            est.ShotBounds(*rows)  # raises DomainError on an inverted bracket
        estimates += map(_estimate_doc, rows)
    return _Result(
        {
            "input": {source: x, "p_e": args.pe, "regime_factor": args.regime_factor},
            "estimates": estimates,
        },
        [["formula", "raw", "shots", "interpretation"], *(list(e.values()) for e in estimates)],
    )


# ---------------------------------------------------------------------------
# qcb


def cmd_qcb(args: argparse.Namespace) -> _Result:
    if args.pe is not None:
        est.check_tolerances(args.pe)
    state_a = st.load_state(args.state_a)
    state_b = st.load_state(args.state_b)
    result = st.qcb_q(state_a, state_b)
    fid = st.fidelity(state_a, state_b)
    dist = st.trace_distance(state_a, state_b)
    q_lo, q_hi = st.q_bounds_mixed(fid)

    doc: dict = {
        "q": result.q,
        "s_star": result.s_star,
        "exponent": result.exponent,
        "fidelity": fid,
        "trace_distance": dist,
        "q_bounds_from_fidelity": [q_lo, q_hi],
    }
    labels = ("Q", "s_star", "exponent", "fidelity", "trace_distance")  # of the first five entries
    rows = [["quantity", "value"], *zip(labels, doc.values()), ["Q_lower(F)", q_lo], ["Q_upper(F)", q_hi]]
    code = 0
    if args.pe is not None:
        if result.q >= 1.0:
            doc["notice"] = "states are indistinguishable (Q = 1); no finite shot count separates them"
            code = 3
        elif result.q == 0.0:
            doc["shots"] = {"formula": "qcb", "raw": 0.0, "shots": 1}
            doc["notice"] = "orthogonal supports (Q = 0); a single shot distinguishes the states"
        else:
            doc["shots"] = _estimate_doc(est.estimate(F.QCB, result.q, args.pe))
    if "shots" in doc:
        rows.append(["shots", doc["shots"]["shots"]])
    return _Result(doc, rows, code)


# ---------------------------------------------------------------------------
# chisq


def cmd_chisq(args: argparse.Namespace) -> _Result:
    sources = [args.w2 is not None, args.fidelity is not None, args.p is not None or args.q is not None]
    if sum(sources) != 1:
        raise ShotBudgetError("provide exactly one of --w2, --fidelity, or --p with --q")
    bins = args.bins
    q_dist = None
    if args.w2 is not None:
        w2 = args.w2
        source = {"w2": w2}
    elif args.fidelity is not None:
        if args.case == "attaining":
            w2 = sp.w2_fidelity_attaining(args.fidelity)
        else:
            w2 = sp.w2_small_discrepancy(args.fidelity)
        source = {"fidelity": args.fidelity, "case": args.case}
    elif args.p is None or args.q is None:
        raise ShotBudgetError("distribution mode needs both --p and --q")
    else:
        q_dist = sp.load_distribution(args.q)
        w2 = sp.chi2_distance(sp.load_distribution(args.p), q_dist)
        source = {"p": args.p, "q": args.q}
        bins = q_dist.k  # bin count is a property of the data, not a flag
    plan = sp.shots_chisq(w2, bins, args.alpha, args.beta)
    doc = {
        "source": source,
        "bins": plan.bins,
        "alpha": plan.alpha,
        "beta": plan.beta,
        "noncentrality": plan.noncentrality,
        "w2": plan.w2,
        "raw": plan.raw,
        "shots": plan.shots,
        "warnings": [] if q_dist is None else list(sp.chisq_validity(plan.shots, q_dist)),
    }
    rows = [[key, value] for key, value in doc.items() if key not in ("source", "warnings")]
    return _Result(doc, [["quantity", "value"], *rows])


# ---------------------------------------------------------------------------
# noise


def cmd_noise(args: argparse.Namespace) -> _Result:
    if args.mode == "plan":
        if args.q1 is None:
            raise ShotBudgetError("plan mode needs --q1")
        doc = sp.two_proportion_shots(args.q0, args.q1, args.alpha, args.beta,
                                      one_sided=not args.two_sided)._asdict()
        rows = [["sided", "one" if value else "two"] if key == "one_sided" else [key, value]
                for key, value in doc.items()]
        return _Result(doc, [["quantity", "value"], *rows])
    if args.zeros is None or args.shots is None:
        raise ShotBudgetError("decide mode needs --zeros and --shots")
    reject, p_value = sp.binomial_decision(args.zeros, args.shots, args.q0, args.alpha)
    verdict = "REJECT (success rate dropped below baseline)" if reject else "no reject"
    return _Result(
        {
            "mode": "decide",
            "zeros": args.zeros,
            "shots": args.shots,
            "q0": args.q0,
            "alpha": args.alpha,
            "p_value": p_value,
            "reject": reject,
        },
        [[f"p_value = {_sig6(p_value)}  ->  {verdict}"]],
    )


# ---------------------------------------------------------------------------
# budget

_BUDGET_FIELDS = ("name", "multiplicity", "weight", "theta", "f_target", "shots_inverse",
                  "shots_swap", "shots_chisq_small", "shots_chisq_attaining", "infeasible")
_JSON_NULL = {"inf": "null", "-inf": "null", "nan": "null"}
_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _per_value(fn, values) -> list[str]:
    # fn once per distinct value, for columns with few of them (the infeasible sets)
    table = {value: fn(value) for value in set(values)}
    return list(map(table.__getitem__, values))


def _json_numbers(values) -> list[str]:
    # json.dumps spells numbers with repr and, after _jsonable, non-finite floats as null
    texts = list(map(repr, values))  # searched once: a column seldom holds a non-finite float
    return [_JSON_NULL.get(t, t) for t in texts] if "inf" in texts or "-inf" in texts or "nan" in texts else texts


def _json_kinds(kinds: tuple[str, ...]) -> str:
    return json.dumps(list(kinds), indent=2).replace("\n", "\n      ")  # nested in a block


def _csv_field(text: str) -> str:
    # RFC 4180: quote only a field holding a comma, a quote, CR or LF
    return '"' + text.replace('"', '""') + '"' if _CSV_SPECIAL(text) else text


def _formatted_rows(columns: dict, fields, default, **special):
    """Row tuples of cells, each field's column formatted by special[field] or default."""
    for lo in range(0, len(columns["name"]), _CHUNK_ROWS):
        cells = (special.get(k, default)(columns[k][lo:lo + _CHUNK_ROWS]) for k in fields)
        yield from zip(*cells)


def cmd_budget(args: argparse.Namespace) -> int:
    # each cell is formatted once, a chunk of rows at a time; the JSON bytes are
    # those of json.dumps(indent=2) over the report with non-finite floats as null
    spec = budget_mod.load_program_spec(args.spec)
    report = budget_mod.allocate_program(spec)
    cols = report.columns
    if args.out == "json":
        rows = _formatted_rows(cols, cols, _json_numbers, name=partial(map, encode_basestring_ascii),
                               infeasible=partial(_per_value, _json_kinds))
        skeleton = {
            "f_prog": report.f_prog, "p_e": report.p_e, "regime_factor": report.regime_factor,
            "chisq": {"bins": report.chisq_bins, "alpha": report.chisq_alpha,
                      "beta": report.chisq_beta, "noncentrality": report.noncentrality},
            "theta_star": report.theta_star, "total_weight": report.total_weight,
            "total_angle": report.total_angle, "blocks": [], "totals": report.totals,
        }
        head, tail = json.dumps(_jsonable(skeleton), indent=2).split('"blocks": []')
        row = "    {\n" + ",\n".join(f'      "{k}": %s' for k in cols) + "\n    }"
        _write_rows(head + '"blocks": [\n', row, rows, ",\n", "\n  ]" + tail + "\n")
    elif args.out == "csv":
        rows = _formatted_rows(cols, _BUDGET_FIELDS, partial(map, repr), name=partial(map, _csv_field),
                               infeasible=partial(_per_value, "|".join))
        _write_rows(",".join(_BUDGET_FIELDS) + "\n", ",".join(["%s"] * len(_BUDGET_FIELDS)) + "\n", rows)
    else:
        formats = {"weight": partial(map, _sig6), "theta": partial(map, _sig6),
                   "f_target": partial(map, "{:.10f}".format),
                   "infeasible": partial(_per_value, lambda kinds: ",".join(kinds) or "-")}
        heads = ("block", "n", "weight", "theta", "f_target", "N_inverse", "N_swap",
                 "N_chi2_small", "N_chi2_attain", "infeasible")
        footer = [f"theta_star   {_sig6(report.theta_star)}", f"total_angle  {_sig6(report.total_angle)}"]
        footer += [f"total_{kind}  {total}" for kind, total in report.totals.items()]
        _print_table([[head, *formats.get(k, partial(map, str))(cols[k])] for head, k in zip(heads, _BUDGET_FIELDS)],
                     "".join(line + "\n" for line in footer))
    if args.strict and report.any_infeasible:
        print("budget infeasible: some shot counts exceed 2^63", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# validate


# scenario -> the flags it needs
_VALIDATE_FLAGS = {"inverse": ("fidelity", "shots"), "swap": ("fidelity", "shots"),
                   "chisq": ("p", "q", "shots"), "binomial": ("q0", "q1", "shots")}


def cmd_validate(args: argparse.Namespace) -> _Result:
    config = mc.McConfig(trials=args.trials, seed=args.seed)
    if any(getattr(args, name) is None for name in _VALIDATE_FLAGS[args.scenario]):
        flags = [f"--{name}" for name in _VALIDATE_FLAGS[args.scenario]]
        raise ShotBudgetError(f"{args.scenario} scenario needs {', '.join(flags[:-1])} and {flags[-1]}")
    # each simulator is looked up in mc when called, so a replacement there (a tracer) is used
    if args.scenario == "inverse":
        result = mc.simulate_inverse_miss_rate(args.fidelity, args.shots, config)
        expected = est.FORMULAS[F.INVERSE_IDEAL].per_shot(args.fidelity) ** args.shots
    elif args.scenario == "swap":
        result = mc.simulate_swap_miss_rate(args.fidelity, args.shots, config)
        expected = est.FORMULAS[F.SWAP_IDEAL].per_shot(args.fidelity) ** args.shots
    elif args.scenario == "chisq":
        p_dist = sp.load_distribution(args.p)
        q_dist = sp.load_distribution(args.q)
        result = mc.simulate_chisq_power(p_dist, q_dist, args.shots, args.alpha, config)
        w2 = sp.chi2_distance(p_dist, q_dist)
        if w2 == 0.0:
            expected = args.alpha
        else:
            crit = sp.chi2_quantile(1.0 - args.alpha, float(q_dist.k - 1))
            expected = 1.0 - sp.noncentral_chi2_cdf(crit, float(q_dist.k - 1), args.shots * w2)
    else:
        result = mc.simulate_binomial_detection(args.q0, args.q1, args.shots, args.alpha, config)
        threshold = sp.binomial_rejection_threshold(args.shots, args.q0, args.alpha)
        if threshold < 0:
            expected = 0.0
        else:
            expected = sp.binomial_cdf(threshold, args.shots, args.q1)
    se_expected = math.sqrt(expected * (1.0 - expected) / args.trials)
    band = 4.0 * se_expected
    diff = abs(result.estimate - expected)
    passed = diff <= band if band > 0.0 else result.estimate == expected
    return _Result(
        {
            "scenario": args.scenario,
            "trials": result.trials,
            "seed": args.seed,
            "estimate": result.estimate,
            "expected": expected,
            "std_error": se_expected,
            "band_4se": band,
            "pass": passed,
            "warnings": list(result.warnings),
        },
        [[f"{args.scenario}: estimate={_sig6(result.estimate)} expected={_sig6(expected)} "
          f"band(4SE)={_sig6(band)} {'PASS' if passed else 'FAIL'}"]],
        code=0 if passed else 1,
    )


# ---------------------------------------------------------------------------
# curve


def _parse_list(text: str, kind: type) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(",") if x)
    except ValueError:
        noun = "integer" if kind is int else "number"
        raise ShotBudgetError(f"expected a comma-separated {noun} list, got {text!r}") from None


_CURVE_DEFAULTS = {
    "fid_vs_shots": (0.001, 0.99999, 0.05),
    "test_comparison": (0.900, 0.995, 0.01),
    "noise_binomial": (0.991, 1.000, 0.01),
    "trace_vs_shots": (0.001, 0.999, 0.05),
}


# curves of the shot formulas: header, then the formulas priced at each grid point x
_CURVE_FORMULAS = {
    "fid_vs_shots": (["F", "one_minus_F", "n_pure", "n_mixed_lo", "n_mixed_hi"],
                     (F.PURE, F.MIXED_LOWER, F.MIXED_UPPER)),
    "trace_vs_shots": (["T", "one_minus_T", "n_pure", "n_pm_lo", "n_pm_hi", "n_mixed_lo", "n_mixed_hi"],
                       (F.TRACE_PURE, F.TRACE_PURE_MIXED_LOWER, F.TRACE_PURE_MIXED_UPPER,
                        F.TRACE_MIXED_LOWER, F.TRACE_MIXED_UPPER)),
}


def emit_curve(request: CurveRequest, out=None) -> None:
    """Write one curve as CSV (header plus one row per grid point).

    Each column is monotone in the grid point, so a point fails only where a grid end
    fails: both ends are priced before the first write, and a failing input writes
    nothing.  The rows then stream through _write_rows, so memory stays flat.
    """
    params = request.params
    step = (request.stop - request.start) / (request.points - 1)
    point = lambda i: request.start + i * step
    if request.curve in _CURVE_FORMULAS:
        header, formulas = _CURVE_FORMULAS[request.curve]

        def row(x):
            return (x, 1.0 - x, *(est.estimate(f, x, params.p_e).shots for f in formulas))
    elif request.curve == "test_comparison":
        lams = [sp.chisq_noncentrality(k, params.alpha, params.beta) for k in request.bins]
        header = ["F", "n_inverse", "n_swap",
                  *(f"n_chisq_{w2}_k{k}" for k in request.bins for w2 in ("small", "attaining"))]

        def row(f):
            ideal = [est.estimate(k, f, params.p_e).shots for k in (F.INVERSE_IDEAL, F.SWAP_IDEAL)]
            w2s = (sp.w2_small_discrepancy(f), sp.w2_fidelity_attaining(f))
            return (f, *ideal, *(est._shot_count(lam / w2) for lam in lams for w2 in w2s))
    elif request.curve == "noise_binomial":
        header = ["q0", *(f"n_{kind}_q1_{q1:g}" for q1 in request.q1_values
                          for kind in ("binomial", "inverse_real", "swap_real"))]
        # priced on first use, after the binomial plan has checked q1 as a success probability
        refs = cache(lambda q1: [est.estimate(f, q1, params.p_e, params.regime_factor).shots
                                 for f in (F.INVERSE_REAL, F.SWAP_REAL)])

        def row(q0):
            cells = [q0]
            for q1 in request.q1_values:
                cells += [sp.two_proportion_shots(q0, q1, params.alpha, params.beta).shots, *refs(q1)]
            return tuple(cells)
    else:
        raise ShotBudgetError(f"unknown curve {request.curve!r}")
    row(point(0)), row(point(request.points - 1))  # if any point fails, an end does
    # %s spells a float as repr does
    _write_rows(",".join(header) + "\n", ",".join(["%s"] * len(header)) + "\n",
                map(row, map(point, range(request.points))), out=out)


def cmd_curve(args: argparse.Namespace) -> int:
    # a flag left unset takes the curve's default
    flags = (args.start, args.stop, args.pe)
    start, stop, p_e = (d if f is None else f for d, f in zip(_CURVE_DEFAULTS[args.curve], flags))
    request = CurveRequest(
        curve=args.curve,
        start=start,
        stop=stop,
        points=args.points,
        params=TestPlanParams(
            p_e=p_e, alpha=args.alpha, beta=args.beta, regime_factor=args.regime_factor
        ),
        bins=_parse_list(args.bins, int),
        q1_values=_parse_list(args.q1, float),
    )
    emit_curve(request)
    return 0


# ---------------------------------------------------------------------------
# parser


# command -> (help line, handler, its arguments as (name, add_argument keywords)); a
# command that returns a _Result takes --json, last, as its help lists it
_JSON = ("--json", {"action": "store_true"})
_COMMANDS = {
    "shots": ("shot formulas from a fidelity or trace distance", cmd_shots, [
        ("--fidelity", {"type": float, "default": None}),
        ("--trace-distance", {"type": float, "default": None}),
        ("--pe", {"type": float, "default": 0.05, "help": "target error probability"}),
        ("--test", {"choices": ["all", *dict.fromkeys(test for _, test in _SHOT_TESTS)], "default": "all"}),
        ("--regime-factor", {"type": float, "default": 1.0}),
        ("--conservative", {"action": "store_true"}),
        _JSON]),
    "qcb": ("Chernoff quantity and distances of two state files", cmd_qcb, [
        ("state_a", {}),
        ("state_b", {}),
        ("--pe", {"type": float, "default": None}),
        _JSON]),
    "chisq": ("chi-square shot plan", cmd_chisq, [
        ("--bins", {"type": int, "default": 16}),
        ("--alpha", {"type": float, "default": 0.01}),
        ("--beta", {"type": float, "default": 0.01}),
        ("--w2", {"type": float, "default": None}),
        ("--fidelity", {"type": float, "default": None}),
        ("--case", {"choices": ["attaining", "small"], "default": "small"}),
        ("--p", {"default": None, "help": "observed distribution file"}),
        ("--q", {"default": None, "help": "reference distribution file"}),
        _JSON]),
    "noise": ("binomial noise-calibrated planning and decision", cmd_noise, [
        ("mode", {"choices": ["plan", "decide"]}),
        ("--q0", {"type": float, "required": True, "help": "baseline success probability"}),
        ("--q1", {"type": float, "default": None, "help": "degraded success probability"}),
        ("--alpha", {"type": float, "default": 0.01}),
        ("--beta", {"type": float, "default": 0.01}),
        ("--two-sided", {"action": "store_true"}),
        ("--zeros", {"type": int, "default": None, "help": "observed all-zeros count"}),
        ("--shots", {"type": int, "default": None}),
        _JSON]),
    "budget": ("allocate a program error budget from a spec file", cmd_budget, [
        ("--spec", {"required": True}),
        ("--out", {"choices": ["table", "json", "csv"], "default": "table"}),
        ("--strict", {"action": "store_true"})]),
    "validate": ("Monte Carlo check of a formula", cmd_validate, [
        ("--scenario", {"choices": list(_VALIDATE_FLAGS), "required": True}),
        ("--trials", {"type": int, "default": 100_000}),
        ("--seed", {"type": int, "default": 20_260_822}),
        ("--fidelity", {"type": float, "default": None}),
        ("--shots", {"type": int, "default": None}),
        ("--alpha", {"type": float, "default": 0.05}),
        ("--p", {"default": None}),
        ("--q", {"default": None}),
        ("--q0", {"type": float, "default": None}),
        ("--q1", {"type": float, "default": None}),
        _JSON]),
    "curve": ("CSV sweep of the shot formulas", cmd_curve, [
        ("curve", {"choices": list(_CURVE_DEFAULTS)}),
        ("--start", {"type": float, "default": None}),
        ("--stop", {"type": float, "default": None}),
        ("--points", {"type": int, "default": 200}),
        ("--pe", {"type": float, "default": None}),
        ("--alpha", {"type": float, "default": 0.01}),
        ("--beta", {"type": float, "default": 0.01}),
        ("--regime-factor", {"type": float, "default": 2.0}),
        ("--bins", {"default": "2,4,8,16,32,64,128"}),
        ("--q1", {"default": "0.90,0.99"})]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command with its help line, and the arguments (most of the
    build time) of `command` only, or of every command if it names none."""
    parser = argparse.ArgumentParser(
        prog="shotbudget",
        description="Measurement-shot planning for quantum program verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, arguments) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=text)
        p_command.set_defaults(func=func)
        if command == name or command not in _COMMANDS:
            for flag, options in arguments:
                p_command.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        result = args.func(args)  # budget and curve stream their own output and return the code
        return result if isinstance(result, int) else _render(result, args.json)
    except DegenerateStates as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return 3
    except (ShotBudgetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run main without the cycle collector, flush its output and end the process by os._exit,
    without teardown.  A stdout that cannot be flushed exits 120 with the interpreter's own
    message; a closed standard stream, argparse's exits and uncaught exceptions end as usual."""
    gc.disable()
    code = main(sys.argv[1:])
    if sys.stdout is None or sys.stderr is None:
        raise SystemExit(code)
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"Exception ignored in: {sys.stdout!r}\n{type(exc).__name__}: {exc}", file=sys.stderr)
        code = 120
    sys.stderr.flush()
    os._exit(code)
