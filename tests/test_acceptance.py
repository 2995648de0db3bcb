"""Release gate: thirteen numbered checks at fixed tolerances.

Each check prints one verdict line straight to the terminal (through
capsys.disabled, past the fd-level capture) so every run shows the full
scoreboard, then asserts.
"""

import io
import math
import time

import numpy as np
import pytest

from shotbudget import (
    BlockSpec,
    Distribution,
    HardwareRates,
    McConfig,
    allocate,
    fidelity,
    fuchs_van_de_graaf_bounds,
    lambda_noncentral,
    qcb_q,
    shots_chisq,
    shots_inverse_ideal,
    shots_swap_ideal,
    simulate_chisq_power,
    simulate_inverse_miss_rate,
    simulate_swap_miss_rate,
    trace_distance,
    w2_fidelity_attaining,
    w2_small_discrepancy,
)
from shotbudget import cli
from shotbudget.states import DensityMatrix

from conftest import qcb_grid_oracle, random_density, random_pure

SEED = 20_260_822
NO_RATES = HardwareRates(r1=0.0, r2=0.0)


@pytest.fixture()
def report(capsys):
    def emit(num: int, ok: bool, detail: str) -> None:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _best_time(fn, repeats: int = 7) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _dm(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.matrix
    amp = state.amplitudes
    return np.outer(amp, amp.conj())


def _equal_weight_blocks(count: int) -> tuple[BlockSpec, ...]:
    return (BlockSpec(name="unit", multiplicity=count, explicit_weight=1.0),)


@pytest.fixture(scope="module")
def mixed_pairs():
    rng = np.random.default_rng(SEED)
    pairs = []
    for _ in range(200):
        qubits = int(rng.integers(1, 4))
        pairs.append((random_density(rng, qubits), random_density(rng, qubits)))
    return pairs


@pytest.fixture(scope="module")
def pure_pairs():
    # every pair has at least one pure member; half are pure-pure
    rng = np.random.default_rng(SEED + 1)
    pairs = []
    for i in range(200):
        qubits = int(rng.integers(1, 4))
        psi = random_pure(rng, qubits)
        if i % 2 == 0:
            pairs.append((psi, random_pure(rng, qubits)))
        else:
            pairs.append((psi, random_density(rng, qubits)))
    return pairs


def _curve_rows(curve: str, start: float, stop: float, points: int, p_e: float,
                bins=(), q1_values=(), regime_factor: float = 1.0):
    request = cli.CurveRequest(
        curve=curve, start=start, stop=stop, points=points,
        params=cli.TestPlanParams(p_e=p_e, alpha=0.01, beta=0.01, regime_factor=regime_factor),
        bins=bins, q1_values=q1_values,
    )
    buffer = io.StringIO()
    cli.emit_curve(request, out=buffer)
    lines = buffer.getvalue().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_criterion_01_inverse_anchors(report):
    high = shots_inverse_ideal(0.999, 0.01)
    low = shots_inverse_ideal(0.99, 0.01)
    elapsed = _best_time(lambda: shots_inverse_ideal(0.999, 0.01))
    ok = (
        abs(round(high.raw) - 4603) <= 1
        and abs(round(low.raw) - 458) <= 1
        and elapsed < 1e-3
    )
    report(1, ok, f"raw {high.raw:.2f}, {low.raw:.2f}; call {elapsed * 1e6:.1f} us")


def test_criterion_02_swap_anchors_and_ratio(report):
    pairs = ((0.999, 9208), (0.99, 919))
    raws = []
    ratios = []
    for fid, want in pairs:
        swap = shots_swap_ideal(fid, 0.01)
        raws.append(abs(round(swap.raw) - want) <= 1)
        ratios.append(swap.raw / shots_inverse_ideal(fid, 0.01).raw)
    ok = all(raws) and all(2.00 <= r <= 2.01 for r in ratios)
    report(2, ok, f"ratios {ratios[0]:.4f}, {ratios[1]:.4f}")


def test_criterion_03_noncentrality_and_f999_plans(report):
    start = time.perf_counter()
    lam = lambda_noncentral(15, 0.01, 0.99)
    elapsed = time.perf_counter() - start
    attaining = shots_chisq(w2_fidelity_attaining(0.999), 16, 0.01, 0.01)
    small = shots_chisq(w2_small_discrepancy(0.999), 16, 0.01, 0.01)
    ok = (
        abs(lam - 44.93) <= 0.05
        and abs(attaining.raw / 7.18e8 - 1.0) <= 0.01
        and abs(small.raw / 1.12e4 - 1.0) <= 0.01
        and elapsed < 0.1
    )
    report(3, ok, f"lambda {lam:.4f} in {elapsed * 1e3:.1f} ms; "
                   f"N {attaining.raw:.3e}, {small.raw:.3e}")


def test_criterion_04_f99_discrepancy_and_plans(report):
    w_att = w2_fidelity_attaining(0.99)
    w_small = w2_small_discrepancy(0.99)
    plan_att = shots_chisq(w_att, 16, 0.01, 0.01)
    plan_small = shots_chisq(w_small, 16, 0.01, 0.01)
    ok = (
        abs(w_att / 6.28e-6 - 1.0) <= 0.01
        and abs(w_small / 4.01e-2 - 1.0) <= 0.01
        and abs(plan_att.raw / 7.15e6 - 1.0) <= 0.01
        and abs(plan_small.raw / 1.12e3 - 1.0) <= 0.01
    )
    report(4, ok, f"w2 {w_att:.3e}, {w_small:.3e}; N {plan_att.raw:.3e}, {plan_small.raw:.3e}")


def test_criterion_05_weighted_three_block_allocation(report):
    blocks = tuple(
        BlockSpec(name=f"b{i}", multiplicity=1, explicit_weight=float(w))
        for i, w in enumerate((1.0, 2.0, 3.0))
    )
    plan = allocate(blocks, NO_RATES, 0.99, 0.05)
    thetas = [a.theta for a in plan.allocations]
    targets = [a.f_target for a in plan.allocations]
    raws = [a.raw_inverse for a in plan.allocations]
    ok = (
        all(abs(t - want) <= 1e-3 for t, want in zip(thetas, (0.017, 0.033, 0.050)))
        and all(abs(f - want) <= 1e-4 for f, want in zip(targets, (0.9997, 0.9989, 0.9975)))
        and all(abs(n / want - 1.0) <= 0.05 for n, want in zip(raws, (1.1e4, 2.7e3, 1.2e3)))
    )
    report(5, ok, "theta " + ", ".join(f"{t:.4f}" for t in thetas)
                   + "; N " + ", ".join(f"{n:.0f}" for n in raws))


def test_criterion_06_ten_thousand_equal_blocks(report):
    plan = allocate(_equal_weight_blocks(10_000), NO_RATES, 0.99, 0.05)
    alloc = plan.allocations[0]
    ok = abs(alloc.theta - 1.0e-5) <= 1e-7 and abs(alloc.raw_inverse / 3e10 - 1.0) <= 0.05
    report(6, ok, f"theta {alloc.theta:.4e}; N {alloc.raw_inverse:.3e}")


def test_criterion_07_gate_weighted_program(report):
    rates = HardwareRates(r1=1e-11, r2=1e-10)
    blocks = (
        BlockSpec(name="A", multiplicity=10, g1=5e4, g2=1e4),
        BlockSpec(name="B", multiplicity=40, g1=2e4, g2=4e3),
        BlockSpec(name="C", multiplicity=50, g1=5e4, g2=2e4),
    )
    plan = allocate(blocks, rates, 0.99, 0.05)
    thetas = [a.theta for a in plan.allocations]
    raws = [a.raw_inverse for a in plan.allocations]
    ok = (
        abs(plan.total_weight - 1.64e-4) <= 1e-6
        and all(abs(t / want - 1.0) <= 0.02
                for t, want in zip(thetas, (9.2e-4, 3.7e-4, 1.5e-3)))
        and all(abs(n / want - 1.0) <= 0.05
                for n, want in zip(raws, (3.6e6, 2.2e7, 1.3e6)))
    )
    report(7, ok, f"W {plan.total_weight:.4e}; theta "
                   + ", ".join(f"{t:.2e}" for t in thetas))


def test_criterion_08_chernoff_sandwich_and_grid(report, mixed_pairs):
    start = time.perf_counter()
    worst_slack = math.inf
    worst_gap = 0.0
    for rho, sigma in mixed_pairs:
        fid = fidelity(rho, sigma)
        lower = 1.0 - math.sqrt(1.0 - fid)
        upper = math.sqrt(fid)
        result = qcb_q(rho, sigma)
        grid_q, _ = qcb_grid_oracle(rho, sigma, grid_points=100_001)
        worst_slack = min(worst_slack, result.q - lower + 1e-8, upper + 1e-8 - result.q)
        worst_gap = max(worst_gap, abs(result.q - grid_q))
    elapsed = time.perf_counter() - start
    ok = worst_slack >= 0.0 and worst_gap <= 1e-6 and elapsed < 30.0
    report(8, ok, f"200 pairs; bound slack {worst_slack:.2e}; "
                   f"grid gap {worst_gap:.2e}; {elapsed:.1f} s")


def test_criterion_09_pure_pairs_collapse_to_overlap(report, pure_pairs):
    worst = 0.0
    for a, b in pure_pairs:
        overlap = float(np.real(np.trace(_dm(a) @ _dm(b))))
        worst = max(worst, abs(qcb_q(a, b).q - overlap))
    ok = worst <= 1e-8
    report(9, ok, f"200 pairs; max |Q - Tr(rho sigma)| {worst:.2e}")


def test_criterion_10_distance_bounds(report, mixed_pairs, pure_pairs):
    worst_slack = math.inf
    for rho, sigma in list(mixed_pairs) + list(pure_pairs):
        fid = fidelity(rho, sigma)
        lower, upper = fuchs_van_de_graaf_bounds(fid)
        dist = trace_distance(rho, sigma)
        worst_slack = min(worst_slack, dist - lower + 1e-8, upper + 1e-8 - dist)
    worst_pure = 0.0
    for a, b in pure_pairs:
        if isinstance(b, DensityMatrix):
            continue
        law = math.sqrt(1.0 - fidelity(a, b))
        worst_pure = max(worst_pure, abs(trace_distance(a, b) - law))
    ok = worst_slack >= 0.0 and worst_pure <= 1e-9
    report(10, ok, f"bound slack {worst_slack:.2e}; pure-pair law gap {worst_pure:.2e}")


def test_criterion_11_monte_carlo_calibration(report):
    start = time.perf_counter()
    config = McConfig(trials=100_000, seed=SEED)
    band = 4.0 * math.sqrt(0.01 * 0.99 / config.trials)
    inverse = simulate_inverse_miss_rate(0.99, 458, config)
    swap = simulate_swap_miss_rate(0.99, 919, config)

    uniform = Distribution(np.full(8, 0.125))
    null_config = McConfig(trials=10_000, seed=SEED)
    null = simulate_chisq_power(uniform, uniform, 400, 0.05, null_config)
    null_band = 4.0 * math.sqrt(0.05 * 0.95 / null_config.trials)
    elapsed = time.perf_counter() - start
    ok = (
        abs(inverse.estimate - 0.01) <= band
        and abs(swap.estimate - 0.01) <= band
        and abs(null.estimate - 0.05) <= null_band
        and elapsed < 60.0
    )
    report(11, ok, f"miss {inverse.estimate:.5f}, {swap.estimate:.5f} (band {band:.5f}); "
                    f"type-I {null.estimate:.4f} (band {null_band:.4f}); {elapsed:.1f} s")


def test_criterion_12_curve_shapes(report):
    header, rows = _curve_rows("fid_vs_shots", 0.001, 0.99999, 60, 0.05)
    pure = [int(r[header.index("n_pure")]) for r in rows]
    fid_ok = pure == sorted(pure) and pure[0] == 1

    header, rows = _curve_rows("test_comparison", 0.900, 0.995, 20, 0.01, bins=(16,))
    i_inv = header.index("n_inverse")
    i_att = header.index("n_chisq_attaining_k16")
    by_f = {float(r[0]): (int(r[i_inv]), int(r[i_att])) for r in rows}
    low_ratio = by_f[0.9][1] / by_f[0.9][0]
    high_ratio = by_f[0.995][1] / by_f[0.995][0]
    comparison_ok = low_ratio >= 1e2 and high_ratio >= 10**3.5

    header, rows = _curve_rows("noise_binomial", 0.991, 1.000, 10, 0.01,
                               q1_values=(0.90, 0.99), regime_factor=2.0)
    wide = [int(r[header.index("n_binomial_q1_0.9")]) for r in rows]
    narrow = [int(r[header.index("n_binomial_q1_0.99")]) for r in rows]
    last = rows[-1]
    assert float(last[0]) == 1.0
    noise_ok = (
        all(w < n for w, n in zip(wide, narrow))
        and int(last[header.index("n_binomial_q1_0.99")])
        > int(last[header.index("n_inverse_real_q1_0.99")])
    )

    header, rows = _curve_rows("trace_vs_shots", 0.001, 0.999, 40, 0.05)
    i_pure = header.index("n_pure")
    i_hi = header.index("n_pm_hi")
    trace_ok = all(r[i_hi] == r[i_pure] for r in rows)

    ok = fid_ok and comparison_ok and noise_ok and trace_ok
    report(12, ok, f"ratios {low_ratio:.0f}, {high_ratio:.0f}; "
                    f"fid {fid_ok}, noise {noise_ok}, trace {trace_ok}")


def test_criterion_13_angle_identity_and_taylor_law(report):
    identity_gap = 0.0
    plans = [
        allocate(tuple(
            BlockSpec(name=f"b{i}", multiplicity=1, explicit_weight=float(w))
            for i, w in enumerate((1.0, 2.0, 3.0))
        ), NO_RATES, 0.99, 0.05),
        allocate(_equal_weight_blocks(10_000), NO_RATES, 0.99, 0.05),
        allocate((
            BlockSpec(name="A", multiplicity=10, g1=5e4, g2=1e4),
            BlockSpec(name="B", multiplicity=40, g1=2e4, g2=4e3),
            BlockSpec(name="C", multiplicity=50, g1=5e4, g2=2e4),
        ), HardwareRates(r1=1e-11, r2=1e-10), 0.99, 0.05),
    ]
    for plan in plans:
        total = sum(a.multiplicity * a.theta for a in plan.allocations)
        identity_gap = max(identity_gap, abs(total - plan.theta_star))

    law_gap = 0.0
    for count, regime in ((11, 1.0), (37, 1.0), (100, 2.0), (1000, 1.0)):
        plan = allocate(_equal_weight_blocks(count), NO_RATES, 0.99, 0.05,
                          regime_factor=regime)
        alloc = plan.allocations[0]
        assert alloc.theta <= 1e-2
        want = -regime * math.log(0.05)
        law_gap = max(law_gap, abs(alloc.raw_inverse * alloc.theta**2 / want - 1.0))
    ok = identity_gap <= 1e-9 and law_gap <= 0.002
    report(13, ok, f"angle identity gap {identity_gap:.2e}; "
                    f"Taylor law deviation {law_gap:.2e}")
