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

shots, qcb, chisq, noise and validate take --json.  Each of their cmd_*
returns one _Result: the JSON document, the table (one cell for the line
that decide and validate print) and the exit code.  main renders it once:
--json prints the document at full precision and nothing else on stdout;
otherwise the table renders at 6 significant digits and the document's
warnings go to stderr.  qcb's notice goes to stderr either way.  budget
picks its form with --out table|json|csv and curve writes CSV only; both
stream their rows.  Errors stay plain "error: ..." on stderr, --json or not.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import DegenerateStates, Record, ShotBudgetError
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
        if points < 2:
            raise ShotBudgetError(f"curve needs at least 2 points, got {points}")
        if not start < stop:
            raise ShotBudgetError(f"curve needs start < stop, got [{start}, {stop}]")
        self._set(curve, start, stop, points, params, bins, q1_values)


def _sig6(value: float) -> str:
    return f"{value:.6g}"


_CHUNK_ROWS = 1024  # rows per write, so output memory stays flat at any row count


def _write_rows(head: str, row: str, rows, sep: str = "", tail: str = "") -> None:
    """Write head, each row tuple through the %-template row joined by sep, then tail."""
    stdout = sys.stdout
    stdout.write(head)
    first = True
    while chunk := sep.join(map(row.__mod__, islice(rows, _CHUNK_ROWS))):
        stdout.write(chunk if first else sep + chunk)
        first = False
    stdout.write(tail)


def _print_table(rows: list, tail: str = "") -> None:
    """Write rows of text cells, the header row first, in left-aligned columns."""
    row = "  ".join(f"%-{max(map(len, column))}s" for column in zip(*rows)) + "\n"
    _write_rows("", row, map(tuple, rows), tail=tail)


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
        _print_table([[_sig6(v) if isinstance(v, float) else str(v) for v in row] for row in result.table])
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
    return [_JSON_NULL.get(text, text) for text in map(repr, values)]


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
        rows = _formatted_rows(
            cols, _BUDGET_FIELDS, partial(map, str), weight=partial(map, _sig6),
            theta=partial(map, _sig6), f_target=partial(map, "{:.10f}".format),
            infeasible=partial(_per_value, lambda kinds: ",".join(kinds) or "-"),
        )
        footer = [f"theta_star   {_sig6(report.theta_star)}", f"total_angle  {_sig6(report.total_angle)}"]
        footer += [f"total_{kind}  {total}" for kind, total in report.totals.items()]
        _print_table([("block", "n", "weight", "theta", "f_target", "N_inverse", "N_swap",
                       "N_chi2_small", "N_chi2_attain", "infeasible"), *rows],
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

    Every row is computed before the first line is written, so an input
    that fails part way along the grid leaves the output empty.
    """
    params = request.params
    step = (request.stop - request.start) / (request.points - 1)
    grid = [request.start + i * step for i in range(request.points)]
    rows = []
    if request.curve in _CURVE_FORMULAS:
        header, formulas = _CURVE_FORMULAS[request.curve]
        for x in grid:
            rows.append([x, 1.0 - x, *(est.estimate(f, x, params.p_e).shots for f in formulas)])
    elif request.curve == "test_comparison":
        lams = {k: sp.lambda_noncentral(k - 1, params.alpha, 1.0 - params.beta) for k in request.bins}
        header = ["F", "n_inverse", "n_swap"]
        for k in request.bins:
            header += [f"n_chisq_small_k{k}", f"n_chisq_attaining_k{k}"]
        for f in grid:
            row = [f, *(est.estimate(k, f, params.p_e).shots for k in (F.INVERSE_IDEAL, F.SWAP_IDEAL))]
            small = sp.w2_small_discrepancy(f)
            attain = sp.w2_fidelity_attaining(f)
            for k in request.bins:
                row += [max(1, math.ceil(lams[k] / small)), max(1, math.ceil(lams[k] / attain))]
            rows.append(row)
    elif request.curve == "noise_binomial":
        header = ["q0"]
        for q1 in request.q1_values:
            header += [f"n_binomial_q1_{q1:g}", f"n_inverse_real_q1_{q1:g}", f"n_swap_real_q1_{q1:g}"]
        refs = {
            q1: [est.estimate(f, q1, params.p_e, params.regime_factor).shots
                 for f in (F.INVERSE_REAL, F.SWAP_REAL)]
            for q1 in request.q1_values
        }
        for q0 in grid:
            row = [q0]
            for q1 in request.q1_values:
                row += [sp.two_proportion_shots(q0, q1, params.alpha, params.beta).shots, *refs[q1]]
            rows.append(row)
    else:
        raise ShotBudgetError(f"unknown curve {request.curve!r}")
    # str spells a float as repr does
    (out or sys.stdout).write("".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotbudget",
        description="Measurement-shot planning for quantum program verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_shots = sub.add_parser("shots", help="shot formulas from a fidelity or trace distance")
    p_shots.add_argument("--fidelity", type=float, default=None)
    p_shots.add_argument("--trace-distance", type=float, default=None)
    p_shots.add_argument("--pe", type=float, default=0.05, help="target error probability")
    tests = dict.fromkeys(test for _, test in _SHOT_TESTS)  # pure, inverse, swap, mixed, pure-mixed
    p_shots.add_argument("--test", choices=["all", *tests], default="all")
    p_shots.add_argument("--regime-factor", type=float, default=1.0)
    p_shots.add_argument("--conservative", action="store_true")
    p_shots.set_defaults(func=cmd_shots)

    p_qcb = sub.add_parser("qcb", help="Chernoff quantity and distances of two state files")
    p_qcb.add_argument("state_a")
    p_qcb.add_argument("state_b")
    p_qcb.add_argument("--pe", type=float, default=None)
    p_qcb.set_defaults(func=cmd_qcb)

    p_chisq = sub.add_parser("chisq", help="chi-square shot plan")
    p_chisq.add_argument("--bins", type=int, default=16)
    p_chisq.add_argument("--alpha", type=float, default=0.01)
    p_chisq.add_argument("--beta", type=float, default=0.01)
    p_chisq.add_argument("--w2", type=float, default=None)
    p_chisq.add_argument("--fidelity", type=float, default=None)
    p_chisq.add_argument("--case", choices=["attaining", "small"], default="small")
    p_chisq.add_argument("--p", default=None, help="observed distribution file")
    p_chisq.add_argument("--q", default=None, help="reference distribution file")
    p_chisq.set_defaults(func=cmd_chisq)

    p_noise = sub.add_parser("noise", help="binomial noise-calibrated planning and decision")
    p_noise.add_argument("mode", choices=["plan", "decide"])
    p_noise.add_argument("--q0", type=float, required=True, help="baseline success probability")
    p_noise.add_argument("--q1", type=float, default=None, help="degraded success probability")
    p_noise.add_argument("--alpha", type=float, default=0.01)
    p_noise.add_argument("--beta", type=float, default=0.01)
    p_noise.add_argument("--two-sided", action="store_true")
    p_noise.add_argument("--zeros", type=int, default=None, help="observed all-zeros count")
    p_noise.add_argument("--shots", type=int, default=None)
    p_noise.set_defaults(func=cmd_noise)

    p_budget = sub.add_parser("budget", help="allocate a program error budget from a spec file")
    p_budget.add_argument("--spec", required=True)
    p_budget.add_argument("--out", choices=["table", "json", "csv"], default="table")
    p_budget.add_argument("--strict", action="store_true")
    p_budget.set_defaults(func=cmd_budget)

    p_val = sub.add_parser("validate", help="Monte Carlo check of a formula")
    p_val.add_argument("--scenario", choices=list(_VALIDATE_FLAGS), required=True)
    p_val.add_argument("--trials", type=int, default=100_000)
    p_val.add_argument("--seed", type=int, default=20_260_822)
    p_val.add_argument("--fidelity", type=float, default=None)
    p_val.add_argument("--shots", type=int, default=None)
    p_val.add_argument("--alpha", type=float, default=0.05)
    p_val.add_argument("--p", default=None)
    p_val.add_argument("--q", default=None)
    p_val.add_argument("--q0", type=float, default=None)
    p_val.add_argument("--q1", type=float, default=None)
    p_val.set_defaults(func=cmd_validate)

    p_curve = sub.add_parser("curve", help="CSV sweep of the shot formulas")
    p_curve.add_argument("curve", choices=list(_CURVE_DEFAULTS))
    p_curve.add_argument("--start", type=float, default=None)
    p_curve.add_argument("--stop", type=float, default=None)
    p_curve.add_argument("--points", type=int, default=200)
    p_curve.add_argument("--pe", type=float, default=None)
    p_curve.add_argument("--alpha", type=float, default=0.01)
    p_curve.add_argument("--beta", type=float, default=0.01)
    p_curve.add_argument("--regime-factor", type=float, default=2.0)
    p_curve.add_argument("--bins", default="2,4,8,16,32,64,128")
    p_curve.add_argument("--q1", default="0.90,0.99")
    p_curve.set_defaults(func=cmd_curve)
    for p_json in (p_shots, p_qcb, p_chisq, p_noise, p_val):  # the commands that return a _Result
        p_json.add_argument("--json", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    raise SystemExit(main(sys.argv[1:]))
