"""Independent checks of every op's output, using numpy and the stdlib only.

Nothing here imports shotbudget: each check recomputes the answer by its
own route (LAPACK eigensolves instead of Jacobi, lgamma-based binomial
terms instead of the running recurrence, the closed-form chi-square
recurrence instead of the incomplete-gamma continued fraction, the stdlib
normal quantile) and compares it with what the CLI printed.

check(op_check, stdout_text) returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from statistics import NormalDist

import numpy as np

# Noncentrality lambda at which the chi-square test with df degrees of
# freedom reaches power 0.99 at size 0.01, for the df values the workloads
# use (bins 16, 64, 256, 1024).  Provenance: scipy 1.17.1,
#   crit = scipy.stats.chi2.isf(0.01, df)
#   brentq(lambda lam: ncx2.sf(crit, df, lam) - 0.99, 1e-6, 5000, xtol=1e-13)
LAMBDA_TABLE = {
    15: 44.928094952697386,
    63: 72.39872187349638,
    255: 125.80595858961759,
    1023: 231.57687566041542,
}
LAMBDA_RTOL = 1e-6

# The support cut for eigenvalues of unit-trace states: the workloads'
# rank-deficient states have nonzero eigenvalues far above it and zero
# eigenvalues far below it.
_SUPPORT_CUT = 1e-12
_Q_ATOL = 1e-6
_MAX_SCHEDULABLE = 2.0**63


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# states


def _density(path: str) -> np.ndarray:
    obj = _read_json(path)
    flat = np.array([complex(re, im) for re, im in obj["data"]], dtype=np.complex128)
    if obj["kind"] == "pure":
        return np.outer(flat, flat.conj())
    dim = 2 ** obj["n"]
    return flat.reshape(dim, dim)


def _chernoff_q(rho: np.ndarray, sigma: np.ndarray) -> float:
    """min over s in [0, 1] of sum_ij l_i^s |<u_i|v_j>|^2 m_j^(1-s), 0^0 = 0."""
    lam, u = np.linalg.eigh(rho)
    mu, v = np.linalg.eigh(sigma)
    keep_l, keep_m = lam > _SUPPORT_CUT, mu > _SUPPORT_CUT
    overlap = (np.abs(u.conj().T @ v) ** 2)[np.ix_(keep_l, keep_m)]
    log_l, log_m = np.log(lam[keep_l]), np.log(mu[keep_m])

    def f(s: float) -> float:
        return float(np.exp(s * log_l) @ overlap @ np.exp((1.0 - s) * log_m))

    # the objective is convex in s, so golden section on [0, 1] converges
    a, b = 0.0, 1.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return min(f(0.0), f(1.0), f((a + b) / 2.0))


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    mu, v = np.linalg.eigh(sigma)
    root = (v * np.sqrt(np.where(mu > _SUPPORT_CUT, mu, 0.0))) @ v.conj().T
    inner = root @ rho @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(np.sum(np.sqrt(vals[vals > _SUPPORT_CUT]))) ** 2


def _check_qcb(check: dict, out: str):
    doc = json.loads(out)
    rho, sigma = _density(check["a"]), _density(check["b"])
    q = doc["q"]
    q_ref = _chernoff_q(rho, sigma)
    if not _close(q, q_ref, 0.0, _Q_ATOL):
        return f"qcb: Q {q!r} vs eigh reference {q_ref!r}"
    fid = _fidelity(rho, sigma)
    if not _close(doc["fidelity"], fid, 0.0, 1e-6):
        return f"qcb: fidelity {doc['fidelity']!r} vs eigh reference {fid!r}"
    dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))
    if not _close(doc["trace_distance"], dist, 0.0, 1e-6):
        return f"qcb: trace distance {doc['trace_distance']!r} vs eigh reference {dist!r}"
    if not 1.0 - math.sqrt(1.0 - fid) - 1e-9 <= q <= math.sqrt(fid) + 1e-9:
        return f"qcb: Q {q!r} outside the fidelity sandwich at F={fid!r}"
    shots = max(1, math.ceil(math.log(check["pe"]) / math.log(q)))
    if doc.get("shots", {}).get("shots") != shots:
        return f"qcb: shots {doc.get('shots')!r}, expected ceil(ln pe / ln Q) = {shots}"
    return None


# ---------------------------------------------------------------------------
# chi-square


def _distribution(path: str) -> np.ndarray:
    probs = np.array(_read_json(path), dtype=np.float64)
    return probs / probs.sum()


def _w2(p_path: str, q_path: str) -> tuple[float, int]:
    p, q = _distribution(p_path), _distribution(q_path)
    return float(np.sum((p - q) ** 2 / q)), q.size


def _check_chisq(check: dict, out: str):
    doc = json.loads(out)
    w2, bins = _w2(check["p"], check["q"])
    if doc["bins"] != bins:
        return f"chisq: bins {doc['bins']!r}, files have {bins}"
    if not _close(doc["w2"], w2, 1e-9):
        return f"chisq: w2 {doc['w2']!r} vs recomputed {w2!r}"
    lam = LAMBDA_TABLE.get(bins - 1)
    if lam is None:
        return f"chisq: no pinned lambda for df={bins - 1}"
    if not _close(doc["noncentrality"], lam, LAMBDA_RTOL):
        return f"chisq: lambda {doc['noncentrality']!r} vs pinned {lam!r}"
    shots = max(1, math.ceil(doc["noncentrality"] / doc["w2"]))
    if doc["shots"] != shots:
        return f"chisq: shots {doc['shots']!r}, expected max(1, ceil(lambda / w2)) = {shots}"
    return None


def _chi2_cdf(x: float, df: int) -> float:
    """Central chi-square CDF for integer df by the closed-form recurrence
    P(a + 1, h) = P(a, h) - h^a e^-h / Gamma(a + 1) from df = 1 or 2."""
    if x <= 0.0:
        return 0.0
    h = x / 2.0
    if df % 2 == 0:
        cdf, nu = -math.expm1(-h), 2
    else:
        cdf, nu = math.erf(math.sqrt(h)), 1
    while nu < df:
        cdf -= math.exp(nu / 2.0 * math.log(h) - h - math.lgamma(nu / 2.0 + 1.0))
        nu += 2
    return min(1.0, max(0.0, cdf))


def _noncentral_chi2_cdf(x: float, df: int, lam: float) -> float:
    half = lam / 2.0
    terms = int(half + 20.0 * math.sqrt(half) + 30.0)
    total = 0.0
    for j in range(terms):
        weight = math.exp(-half + (j * math.log(half) if j else 0.0) - math.lgamma(j + 1.0))
        total += weight * _chi2_cdf(x, df + 2 * j)
    return min(1.0, total)


def _chi2_quantile(prob: float, df: int) -> float:
    lo, hi = 0.0, df + 20.0 * math.sqrt(2.0 * df) + 50.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _chi2_cdf(mid, df) < prob:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# binomial


def _binomial_log_pmf(ks: np.ndarray, n: int, q: float) -> np.ndarray:
    lg = np.frompyfunc(math.lgamma, 1, 1)
    log_binom = math.lgamma(n + 1.0) - lg(ks + 1.0).astype(float) - lg(n - ks + 1.0).astype(float)
    return log_binom + ks * math.log(q) + (n - ks) * math.log1p(-q)


def binomial_cdf(k: int, n: int, q: float) -> float:
    """P[Bin(n, q) <= k], summing lgamma-based terms over the window that
    carries all but a negligible part of the mass."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    sd = math.sqrt(n * q * (1.0 - q))
    lo = max(0, int(min(k, n * q) - 40.0 * sd - 50.0))
    log_terms = _binomial_log_pmf(np.arange(lo, k + 1, dtype=np.float64), n, q)
    top = float(log_terms.max())
    return min(1.0, math.exp(top) * float(np.sum(np.exp(log_terms - top))))


def _rejection_threshold(n: int, q0: float, alpha: float) -> int:
    """Largest k with P[Bin(n, q0) <= k] <= alpha, or -1."""
    log_cdf = np.logaddexp.accumulate(_binomial_log_pmf(np.arange(n + 1, dtype=np.float64), n, q0))
    return int(np.searchsorted(log_cdf, math.log(alpha), side="right")) - 1


def _check_decide(check: dict, out: str):
    doc = json.loads(out)
    p_ref = binomial_cdf(check["zeros"], check["shots"], check["q0"])
    if not _close(doc["p_value"], p_ref, 1e-6, 1e-300):
        return f"decide: p-value {doc['p_value']!r} vs log-space reference {p_ref!r}"
    if doc["reject"] != (doc["p_value"] <= check["alpha"]):
        return f"decide: reject={doc['reject']!r} at p={doc['p_value']!r}, alpha={check['alpha']}"
    return None


# ---------------------------------------------------------------------------
# shot formulas


def _check_shots(check: dict, out: str):
    doc = json.loads(out)
    fid, ln_pe = check["fidelity"], math.log(check["pe"])
    raws = {
        "pure": ln_pe / math.log(fid),
        "inverse_ideal": ln_pe / math.log(fid),
        "swap_ideal": ln_pe / math.log(0.5 + 0.5 * fid),
        "mixed_lower": ln_pe / math.log(1.0 - math.sqrt(1.0 - fid)),
        "mixed_upper": 2.0 * ln_pe / math.log(fid),
    }
    got = {e["formula"]: e for e in doc["estimates"]}
    if set(got) != set(raws):
        return f"shots: formulas {sorted(got)} differ from {sorted(raws)}"
    for name, raw in raws.items():
        if not _close(got[name]["raw"], raw, 1e-12):
            return f"shots: {name} raw {got[name]['raw']!r} vs {raw!r}"
        if got[name]["shots"] != max(1, math.ceil(got[name]["raw"])):
            return f"shots: {name} shots {got[name]['shots']!r} is not ceil(raw)"
    return None


def _check_plan(check: dict, out: str):
    doc = json.loads(out)
    q0, q1 = check["q0"], check["q1"]
    z = NormalDist().inv_cdf
    pbar = (q0 + q1) / 2.0
    raw = (
        z(1.0 - check["alpha"]) * math.sqrt(2.0 * pbar * (1.0 - pbar))
        + z(1.0 - check["beta"]) * math.sqrt(q0 * (1.0 - q0) + q1 * (1.0 - q1))
    ) ** 2 / (q0 - q1) ** 2
    if not _close(doc["raw"], raw, 1e-7):
        return f"plan: raw {doc['raw']!r} vs two-proportion formula {raw!r}"
    if doc["shots"] != max(1, math.ceil(doc["raw"])):
        return f"plan: shots {doc['shots']!r} is not ceil(raw)"
    return None


# ---------------------------------------------------------------------------
# budget


def _expected_thetas(spec: dict) -> tuple[list[str], list[int], np.ndarray, float]:
    hw = spec["hardware"]
    names, mult, weights = [], [], []
    for b in spec["blocks"]:
        names.append(b["name"])
        mult.append(b.get("multiplicity", 1))
        if "weight" in b:
            weights.append(b["weight"])
        else:
            weights.append(b.get("g1", 0.0) * hw["r1"] + b.get("g2", 0.0) * hw["r2"]
                           + b.get("depth", 0.0) * hw.get("gamma", 0.0))
    w = np.array(weights)
    big_theta = math.acos(math.sqrt(spec["fidelity_target"]))
    return names, mult, w / float(np.dot(mult, w)) * big_theta, big_theta


def _budget_rows(out: str, fmt: str) -> list[tuple[str, int, float]]:
    """(name, multiplicity, theta) per block row of any output format."""
    if fmt == "json":
        doc = json.loads(out)
        return [(b["name"], b["multiplicity"], b["theta"]) for b in doc["blocks"]]
    lines = out.splitlines()
    if fmt == "csv":
        return [(c[0], int(c[1]), float(c[3])) for c in (line.split(",") for line in lines[1:])]
    rows = []
    for line in lines[1:]:
        cells = line.split()
        if cells and cells[0] == "theta_star":
            break
        rows.append((cells[0], int(cells[1]), float(cells[3])))
    return rows


def _check_budget(check: dict, out: str):
    spec = _read_json(check["spec"])
    names, mult, thetas, big_theta = _expected_thetas(spec)
    fmt = check["out"]
    rows = _budget_rows(out, fmt)
    if len(rows) != len(names):
        return f"budget/{fmt}: {len(rows)} rows for {len(names)} blocks"
    if [r[0] for r in rows] != names or [r[1] for r in rows] != mult:
        return f"budget/{fmt}: block names or multiplicities differ from the spec"
    # table cells carry 6 significant digits
    rtol = 1e-9 if fmt != "table" else 1e-5
    got = np.array([r[2] for r in rows])
    if not np.all(np.abs(got - thetas) <= rtol * thetas):
        worst = int(np.argmax(np.abs(got - thetas) / thetas))
        return f"budget/{fmt}: theta of {names[worst]} {got[worst]!r} vs {thetas[worst]!r}"
    total = float(np.dot(mult, got))
    if not _close(total, big_theta, rtol):
        return f"budget/{fmt}: sum n_j theta_j = {total!r}, arccos sqrt F = {big_theta!r}"
    if fmt == "json":
        doc = json.loads(out)
        lam = LAMBDA_TABLE.get(doc["chisq"]["bins"] - 1)
        if lam is not None and not _close(doc["chisq"]["noncentrality"], lam, LAMBDA_RTOL):
            return f"budget/json: lambda {doc['chisq']['noncentrality']!r} vs pinned {lam!r}"
        for b in doc["blocks"]:
            for kind in ("inverse", "swap", "chisq_small", "chisq_attaining"):
                raw = b["raw_" + kind]
                over = raw is None or raw > _MAX_SCHEDULABLE
                if over != (kind in b["infeasible"]):
                    return f"budget/json: {b['name']} {kind} raw {raw!r} vs infeasible {b['infeasible']}"
    return None


# ---------------------------------------------------------------------------
# Monte Carlo validation


def _closed_form(check: dict) -> float:
    scenario = check["scenario"]
    if scenario == "inverse":
        return check["fidelity"] ** check["shots"]
    if scenario == "swap":
        return (0.5 + 0.5 * check["fidelity"]) ** check["shots"]
    if scenario == "binomial":
        threshold = _rejection_threshold(check["shots"], check["q0"], check["alpha"])
        return binomial_cdf(threshold, check["shots"], check["q1"])
    w2, bins = _w2(check["p"], check["q"])
    if w2 == 0.0:
        return check["alpha"]
    crit = _chi2_quantile(1.0 - check["alpha"], bins - 1)
    return 1.0 - _noncentral_chi2_cdf(crit, bins - 1, check["shots"] * w2)


def _check_validate(check: dict, out: str):
    doc = json.loads(out)
    if doc["pass"] is not True:
        return f"validate/{check['scenario']}: verdict is not PASS"
    if doc["trials"] != check["trials"]:
        return f"validate/{check['scenario']}: {doc['trials']!r} trials, asked for {check['trials']}"
    expected = _closed_form(check)
    band = 4.0 * math.sqrt(expected * (1.0 - expected) / check["trials"])
    if abs(doc["estimate"] - expected) > band:
        return (f"validate/{check['scenario']}: estimate {doc['estimate']!r} outside "
                f"{expected!r} +- {band!r} (4 SE)")
    return None


_CHECKS = {
    "qcb": _check_qcb,
    "chisq": _check_chisq,
    "decide": _check_decide,
    "shots": _check_shots,
    "plan": _check_plan,
    "budget": _check_budget,
    "validate": _check_validate,
}


def check(op_check: dict, out: str):
    """None if `out` is the right output for the op, else the reason."""
    try:
        return _CHECKS[op_check["oracle"]](op_check, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{op_check['oracle']}: unparsable output ({type(exc).__name__}: {exc})"
