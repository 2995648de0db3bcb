"""RNG determinism contracts and Monte Carlo estimator calibration."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from shotbudget import (
    McConfig,
    simulate_binomial_detection,
    simulate_chisq_power,
    simulate_inverse_miss_rate,
    simulate_swap_miss_rate,
)
from shotbudget.errors import BaselineNotAboveTarget, DimensionMismatch, DomainError, ZeroExpectedBin
from shotbudget import montecarlo as mc
from shotbudget.rng import sub_seeds, uniform_block
from shotbudget.states import qcb_q
from shotbudget.stat_power import Distribution

from conftest import counting, mix64, qcb_grid_oracle, random_density, random_pure, stream_output


class TestSplitmix:
    def test_published_seed_zero_vectors(self):
        # first four outputs of the reference stream at seed 0
        expected = (
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        )
        for i, want in enumerate(expected):
            assert stream_output(0, i) == want

    def test_seed_1234567_vectors(self):
        expected = (
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
            0x3FBEF740E9177B3F,
        )
        for i, want in enumerate(expected):
            assert stream_output(1234567, i) == want

    def test_vectorized_matches_scalar(self):
        seeds = sub_seeds(20260822, 0, 64)
        for i in range(64):
            assert int(seeds[i]) == stream_output(20260822, i)

    def test_mix64_is_a_bijection_probe(self):
        # spot-check distinctness over a contiguous input run
        outs = {mix64((17 + i) & 0xFFFFFFFFFFFFFFFF) for i in range(1000)}
        assert len(outs) == 1000

    def test_uniform_block_range_and_determinism(self):
        # each draw is exactly the top 53 bits of the scalar stream output
        seeds = sub_seeds(7, 0, 4)
        a = uniform_block(seeds, 0, 100, np.empty(800, dtype=np.uint64))
        assert a.shape == (4, 100)
        expected = [[stream_output(int(s), j) >> 11 for j in range(100)] for s in seeds]
        assert a.tolist() == expected
        assert np.array_equal(uniform_block(seeds, 0, 100, np.empty(800, dtype=np.uint64)), a)

    def test_uniform_block_offset_slices_stream(self):
        seeds = sub_seeds(7, 0, 2)
        whole = uniform_block(seeds, 0, 50, np.empty(200, dtype=np.uint64))
        tail = uniform_block(seeds, 20, 30, np.empty(120, dtype=np.uint64))
        assert np.array_equal(whole[:, 20:], tail)

    def test_uniform_block_row_starts_slice_one_stream(self):
        # per-row start positions read the same draws as slices of one block,
        # also when the block reuses a scratch buffer
        seeds = sub_seeds(99, 0, 4)
        whole = uniform_block(seeds, 0, 60, np.empty(480, dtype=np.uint64))
        starts = np.array([0, 7, 31, 50])
        scratch = np.empty(2 * 4 * 10, dtype=np.uint64)
        rows = uniform_block(seeds, starts, 10, scratch)
        for i, start in enumerate(starts):
            assert np.array_equal(rows[i], whole[i, start : start + 10])


class TestMissRateSimulators:
    def test_inverse_matches_analytic_rate(self):
        config = McConfig(trials=40_000, seed=11)
        result = simulate_inverse_miss_rate(0.99, 458, config)
        expected = 0.99**458
        se = math.sqrt(expected * (1.0 - expected) / config.trials)
        assert abs(result.estimate - expected) <= 4.0 * se
        assert result.trials == 40_000

    def test_swap_matches_analytic_rate(self):
        config = McConfig(trials=40_000, seed=12)
        result = simulate_swap_miss_rate(0.99, 919, config)
        expected = (0.5 + 0.5 * 0.99) ** 919
        se = math.sqrt(expected * (1.0 - expected) / config.trials)
        assert abs(result.estimate - expected) <= 4.0 * se

    def test_orthogonal_swap_hits_half_power(self):
        # F = 0 still accepts with probability 1/2 per shot; N = 7 shots
        # puts the miss rate at 2^-7
        config = McConfig(trials=100_000, seed=13)
        result = simulate_swap_miss_rate(0.0, 7, config)
        expected = 0.5**7
        se = math.sqrt(expected * (1.0 - expected) / config.trials)
        assert abs(result.estimate - expected) <= 4.0 * se

    def test_bit_identical_reruns(self):
        config = McConfig(trials=5_000, seed=20260822)
        a = simulate_inverse_miss_rate(0.97, 100, config)
        b = simulate_inverse_miss_rate(0.97, 100, config)
        assert a.estimate == b.estimate

    def test_chunk_size_does_not_change_results(self, monkeypatch):
        config = McConfig(trials=3_000, seed=5)
        baseline = simulate_inverse_miss_rate(0.95, 200, config).estimate
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 1_000)
        assert simulate_inverse_miss_rate(0.95, 200, config).estimate == baseline

    def test_draw_equal_to_acceptance_probability_rejects(self):
        # u < p is strict: a shot whose uniform is exactly F rejects, and the
        # next double above it accepts
        m = stream_output(int(sub_seeds(5, 0, 1)[0]), 0) >> 11
        fid = m * 2.0**-53
        config = McConfig(trials=1, seed=5)
        assert simulate_inverse_miss_rate(fid, 1, config).estimate == 0.0
        assert simulate_inverse_miss_rate(float(np.nextafter(fid, 1.0)), 1, config).estimate == 1.0

    def test_early_exit_reads_about_one_over_one_minus_f(self):
        # the first reject decides a trial: ~1/(1 - F) = 100 draws, not 458
        config = McConfig(trials=5_000, seed=17)
        with counting("uniforms") as work:
            simulate_inverse_miss_rate(0.99, 458, config)
        assert 0 < work["uniforms"] < 200 * config.trials

    def test_seed_outside_64_bits_rejected(self):
        for seed in (-5, 2**64, 99999999999999999999999):
            with pytest.raises(DomainError, match="seed"):
                McConfig(trials=1, seed=seed)
        assert McConfig(trials=1, seed=2**64 - 1).seed == 2**64 - 1

    def test_seed_changes_results(self):
        a = simulate_inverse_miss_rate(0.97, 100, McConfig(trials=5_000, seed=1))
        b = simulate_inverse_miss_rate(0.97, 100, McConfig(trials=5_000, seed=2))
        assert a.estimate != b.estimate


class TestChiSquareSimulator:
    def test_type_one_error_calibrated(self):
        p = Distribution(np.full(4, 0.25))
        config = McConfig(trials=4_000, seed=21)
        result = simulate_chisq_power(p, p, 400, 0.05, config)
        se = math.sqrt(0.05 * 0.95 / config.trials)
        # discreteness of counts leaves a small size distortion on top of
        # the Monte Carlo band
        assert abs(result.estimate - 0.05) <= 5.0 * se + 0.005

    def test_power_tracks_noncentral_approximation(self):
        p = Distribution(np.array([0.3, 0.3, 0.2, 0.2]))
        q = Distribution(np.full(4, 0.25))
        config = McConfig(trials=3_000, seed=22)
        result = simulate_chisq_power(p, q, 430, 0.05, config)
        assert result.estimate == pytest.approx(0.95, abs=0.03)

    @pytest.mark.parametrize("shots, rate", [(3, 0.0), (4, 1.0)])
    def test_every_shot_lands_in_the_one_live_bin(self, shots, rate):
        # counts (0, N) against expected (N/2, N/2) give a statistic of exactly N,
        # either side of the 3.84 critical value at 1 df
        with counting("uniforms") as work:
            result = simulate_chisq_power(Distribution([0.0, 1.0]), Distribution([0.5, 0.5]), shots,
                                          0.05, McConfig(trials=50, seed=3))
        assert result.estimate == rate
        assert work["uniforms"] == 50 * shots

    def test_bin_mismatch_and_zero_reference_bin_fail_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("uniform_block called")

        monkeypatch.setattr(mc, "uniform_block", no_draws)
        p = Distribution(np.full(4, 0.25))
        config = McConfig(trials=10, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroExpectedBin, match="reference bin 2 has zero probability"):
                simulate_chisq_power(p, Distribution(np.array([0.5, 0.25, 0.0, 0.25])), 100, 0.05, config)
            with pytest.raises(DimensionMismatch, match="bin count mismatch: 4 vs 3"):
                simulate_chisq_power(p, Distribution(np.full(3, 1 / 3)), 100, 0.05, config)


class TestBinomialSimulator:
    def test_single_shot_perfect_baseline(self):
        # q0 = 1 rejects on any failure; with q1 = 0.5 and one shot the
        # detection rate is exactly the failure probability 1/2
        config = McConfig(trials=100_000, seed=31)
        result = simulate_binomial_detection(1.0, 0.5, 1, 0.05, config)
        se = math.sqrt(0.25 / config.trials)
        assert abs(result.estimate - 0.5) <= 4.0 * se

    def test_planned_shots_reach_target_power(self):
        config = McConfig(trials=3_000, seed=32)
        result = simulate_binomial_detection(1.0, 0.99, 2149, 0.01, config)
        assert result.estimate >= 0.99 - 0.01

    def test_rejects_degraded_above_baseline(self):
        with pytest.raises(BaselineNotAboveTarget):
            simulate_binomial_detection(0.9, 0.95, 100, 0.05, McConfig(trials=10, seed=1))


class TestPredictions:
    """Each simulator's `expected` against scipy and closed forms, not stat_power."""

    ONE = McConfig(trials=1, seed=1)  # the prediction does not depend on the draws

    @pytest.mark.parametrize("fid", [0.0, 0.5, 0.9, 0.99, 0.999])
    @pytest.mark.parametrize("n", [1, 7, 458, 10_000])
    def test_miss_rates_are_the_closed_forms(self, fid, n):
        assert simulate_inverse_miss_rate(fid, n, self.ONE).expected == pytest.approx(fid**n, rel=1e-12, abs=0.0)
        swap = simulate_swap_miss_rate(fid, n, self.ONE).expected
        assert swap == pytest.approx(((1.0 + fid) / 2.0) ** n, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [2, 4, 16])
    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    @pytest.mark.parametrize("n", [50, 400, 3000])
    def test_chisq_power_is_scipys_noncentral_tail(self, k, alpha, n):
        # the critical value solves to ROOT_RTOL x 32 ~ 3e-8 at most here, and the noncentral density
        # at it is under 1, so the rate may read ~3e-8 off scipy's: allow 1e-7
        q = np.full(k, 1.0 / k)
        p = q + 0.2 / k * np.where(np.arange(k) % 2, -1.0, 1.0) * (np.arange(k) < k - k % 2)
        w2 = float(np.sum((p - q) ** 2 / q))
        df = k - 1
        oracle = 1.0 - scipy.stats.ncx2.cdf(scipy.stats.chi2.ppf(1.0 - alpha, df), df, n * w2)
        expected = simulate_chisq_power(Distribution(p), Distribution(q), n, alpha, self.ONE).expected
        assert expected == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_chisq_at_no_discrepancy_predicts_alpha(self, alpha):
        q = Distribution(np.full(4, 0.25))
        assert simulate_chisq_power(q, q, 400, alpha, self.ONE).expected == alpha

    @pytest.mark.parametrize("q0, q1", [(0.99, 0.95), (0.99, 0.985), (0.9, 0.8), (0.7, 0.5)])
    @pytest.mark.parametrize("n", [30, 300, 3000])
    @pytest.mark.parametrize("alpha", [0.01, 0.05])
    def test_binomial_detection_is_scipys_tail_at_its_threshold(self, q0, q1, n, alpha):
        # scipy's threshold: the largest count whose tail at q0 is still <= alpha, -1 if none
        c = int(scipy.stats.binom.ppf(alpha, n, q0))
        t = c if scipy.stats.binom.cdf(c, n, q0) <= alpha else c - 1
        oracle = scipy.stats.binom.cdf(t, n, q1) if t >= 0 else 0.0
        expected = simulate_binomial_detection(q0, q1, n, alpha, self.ONE).expected
        assert expected == pytest.approx(oracle, rel=1e-10, abs=1e-300)

    def test_binomial_with_no_rejecting_count_predicts_zero(self):
        # three shots at q0 = 1/2: even a count of 0 has tail 1/8 > alpha
        assert scipy.stats.binom.cdf(0, 3, 0.5) > 0.05
        assert simulate_binomial_detection(0.5, 0.1, 3, 0.05, self.ONE).expected == 0.0


class TestKernelInvariants:
    """Properties of the tiled kernel that hold for any tile cap."""

    @staticmethod
    def _estimates(trials, shots, seed):
        config = McConfig(trials=trials, seed=seed)
        p = Distribution(np.array([0.2, 0.0, 0.5, 0.3]))
        q = Distribution(np.array([0.25, 0.15, 0.35, 0.25]))
        return (
            simulate_inverse_miss_rate(0.9, shots, config),
            simulate_swap_miss_rate(0.7, shots, config),
            simulate_binomial_detection(0.99, 0.9, shots, 0.05, config),
            simulate_chisq_power(p, q, shots, 0.05, config),
        )

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        chunk=st.integers(min_value=1, max_value=600),
        trials=st.integers(min_value=1, max_value=23),
        shots=st.integers(min_value=1, max_value=47),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_estimates_do_not_depend_on_the_tile_cap(self, chunk, trials, shots, seed):
        baseline = [r.estimate for r in self._estimates(trials, shots, seed)]
        saved = mc._CHUNK_ELEMENTS
        mc._CHUNK_ELEMENTS = chunk
        try:
            tiled = [r.estimate for r in self._estimates(trials, shots, seed)]
        finally:
            mc._CHUNK_ELEMENTS = saved
        assert tiled == baseline

    @pytest.mark.parametrize("simulate", [
        lambda shots: simulate_binomial_detection(1.0, 1.0 - 1e-12, shots, 0.05, McConfig(trials=1, seed=3)),
        lambda shots: simulate_inverse_miss_rate(1.0 - 1e-12, shots, McConfig(trials=1, seed=3)),
        lambda shots: simulate_chisq_power(Distribution([0.5, 0.5]), Distribution([0.5, 0.5]), shots,
                                           0.05, McConfig(trials=1, seed=3)),
    ], ids=["binomial_full_read", "inverse_no_reject", "chisq_full_read"])
    def test_one_long_trial_stays_under_the_tile_cap(self, simulate):
        # two uint64 tile buffers plus boolean masks: under 32 bytes a draw
        # of the cap, where holding the whole trial would take 40
        cap = mc._CHUNK_ELEMENTS
        with counting("uniforms") as work:
            tracemalloc.start()
            try:
                simulate(5 * cap)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert work["uniforms"] == 5 * cap
        assert peak < 32 * cap

    @pytest.mark.parametrize("simulate", [
        lambda config: simulate_inverse_miss_rate(0.9, 5, config),
        lambda config: simulate_swap_miss_rate(0.9, 5, config),
        lambda config: simulate_binomial_detection(0.99, 0.9, 20, 0.05, config),
        lambda config: simulate_chisq_power(Distribution([0.6, 0.4]), Distribution([0.5, 0.5]), 20,
                                            0.05, config),
    ], ids=["inverse", "swap", "binomial", "chisq"])
    def test_memory_does_not_grow_with_the_trial_count(self, simulate, monkeypatch):
        # trials walk in blocks of the cap, so 64 blocks peak where 4 do; the
        # slack covers a few Python objects, where one int64 per trial adds 240 KiB
        monkeypatch.setattr(mc, "_CHUNK_ELEMENTS", 512)
        simulate(McConfig(trials=1, seed=3))  # one-time allocations happen outside the trace
        peaks = []
        for blocks in (4, 64):
            tracemalloc.start()
            try:
                simulate(McConfig(trials=blocks * 512, seed=3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 1024, peaks


class TestGridOracle:
    def test_matches_minimizer_on_mixed_pairs(self, rng):
        for _ in range(8):
            qubits = rng.integers(1, 3)
            rho, sigma = random_density(rng, qubits), random_density(rng, qubits)
            q_min, s_min = qcb_grid_oracle(rho, sigma, grid_points=20_001)
            result = qcb_q(rho, sigma)
            assert result.q == pytest.approx(q_min, abs=1e-6)
            assert 0.0 <= s_min <= 1.0

    def test_handles_pure_states(self, rng):
        a, b = random_pure(rng, 1), random_pure(rng, 1)
        q_min, _ = qcb_grid_oracle(a, b, grid_points=5_001)
        assert qcb_q(a, b).q == pytest.approx(q_min, abs=1e-8)
