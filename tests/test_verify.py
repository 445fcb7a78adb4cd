import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scistats

from levyemm.emm_construct import make_h2_kernel
from levyemm.levy_model import (
    DiscreteMeasure,
    LevyTriplet,
    indicator_inside,
    symmetric_alpha_stable,
    uniform_band,
)
from levyemm.verify import (
    PIT_MIN_MARKS,
    RunningStats,
    _merge_tail_bins,
    bonferroni_crit,
    brownian_invariance_test,
    conditional_jump_law_test,
    doubling_verdict,
    finite_expect,
    jump_intensity_test,
    mean_density_test,
    q_martingale_test,
)


class TestRunningStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        rs = RunningStats().add(x)
        assert rs.mean == pytest.approx(np.mean(x), abs=1e-12)
        assert rs.variance == pytest.approx(np.var(x, ddof=1), rel=1e-12)
        assert rs.stderr == pytest.approx(np.std(x, ddof=1) / math.sqrt(1000),
                                          rel=1e-12)

    @given(st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_pooled(self, split):
        rng = np.random.default_rng(split)
        x = rng.standard_normal(250)
        a = RunningStats().add(x[:split])
        b = RunningStats().add(x[split:])
        merged = a.merge(b)
        pooled = RunningStats().add(x)
        assert merged.n == pooled.n
        assert merged.mean == pytest.approx(pooled.mean, abs=1e-10)
        assert merged.m2 == pytest.approx(pooled.m2, rel=1e-9, abs=1e-9)

    def test_empty_merge_noop(self):
        rs = RunningStats().add([1.0, 2.0])
        rs.merge(RunningStats())
        assert rs.n == 2


class TestBonferroni:
    def test_single_probe_is_three(self):
        assert bonferroni_crit(1) == pytest.approx(3.0, abs=1e-9)

    def test_monotone_in_probes(self):
        assert bonferroni_crit(4) > bonferroni_crit(2) > bonferroni_crit(1)


class TestMeanDensity:
    def test_unit_mean_passes(self):
        rng = np.random.default_rng(1)
        z = np.exp(rng.normal(-0.02, 0.2, 20_000))
        z = z / z.mean()
        rep = mean_density_test(z, seed=1)
        assert rep.verdict == "pass"
        assert rep.n_samples == 20_000

    def test_biased_mean_fails(self):
        rng = np.random.default_rng(2)
        z = 1.1 + 0.01 * rng.standard_normal(10_000)
        assert mean_density_test(z).verdict == "fail"

    def test_exact_degenerate(self):
        assert mean_density_test(np.ones(100)).verdict == "pass"
        assert mean_density_test(np.full(100, 1.5)).verdict == "fail"


class TestQMartingale:
    def test_zero_mean_passes(self):
        rng = np.random.default_rng(3)
        n, k = 20_000, 3
        x0 = np.zeros(n)
        x = rng.standard_normal((n, k))
        z = np.ones(n)
        rep = q_martingale_test(x, x0, z, [0.25, 0.5, 1.0], seed=3)
        assert rep.verdict == "pass"
        assert len(rep.details["probes"]) == k

    def test_shifted_probe_fails(self):
        rng = np.random.default_rng(4)
        n = 20_000
        x = rng.standard_normal((n, 2))
        x[:, 1] += 0.1
        rep = q_martingale_test(x, np.zeros(n), np.ones(n), [0.5, 1.0])
        assert rep.verdict == "fail"
        assert rep.details["probes"][1]["pass"] is False


class TestJumpIntensity:
    def test_poisson_passes(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(4.0, 20_000)
        rep = jump_intensity_test(counts, lam=2.0, T=2.0, seed=5)
        assert rep.verdict == "pass"
        assert rep.details["p_value"] >= 0.01

    def test_wrong_rate_fails(self):
        rng = np.random.default_rng(6)
        counts = rng.poisson(5.0, 20_000)
        rep = jump_intensity_test(counts, lam=2.0, T=2.0)
        assert rep.verdict == "fail"

    def test_overdispersed_fails_chi2(self):
        rng = np.random.default_rng(7)
        # mixture keeps the mean at 4 but inflates the variance
        counts = np.concatenate([
            rng.poisson(1.0, 10_000), rng.poisson(7.0, 10_000)
        ])
        rep = jump_intensity_test(counts, lam=2.0, T=2.0)
        assert rep.details["chi2_pass"] is False

    def test_weighted_recovers_target(self):
        # importance weights that tilt towards high counts, with the
        # matching inverse-likelihood weight restoring the Poisson(4) law
        rng = np.random.default_rng(8)
        counts = rng.poisson(5.0, 40_000)
        w = scistats.poisson.pmf(counts, 4.0) / scistats.poisson.pmf(counts, 5.0)
        rep = jump_intensity_test(counts, lam=2.0, T=2.0, weights=w)
        assert rep.verdict == "pass"


    @pytest.mark.parametrize("counts", [[], [3.0]])
    def test_fewer_than_two_paths_inconclusive(self, counts):
        rep = jump_intensity_test(counts, lam=2.0, T=2.0)
        assert rep.verdict == "inconclusive"
        assert rep.n_samples == len(counts)


class TestMergeTailBins:
    def test_merges_small_expected(self):
        obs = np.array([50.0, 30.0, 2.0, 1.0, 0.0])
        exp = np.array([48.0, 31.0, 3.0, 1.5, 0.5])
        o, e = _merge_tail_bins(obs, exp, floor=5.0)
        assert np.all(e >= 5.0)
        assert o.sum() == pytest.approx(obs.sum())
        assert e.sum() == pytest.approx(exp.sum())

    def test_all_small_collapses_to_one(self):
        o, e = _merge_tail_bins([1.0, 1.0], [0.5, 0.5], floor=5.0)
        assert len(o) == 1


class TestConditionalJumpLaw:
    def _gk(self):
        F = DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)])
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(0.5))
        return make_h2_kernel(t, 0.5)

    def test_matching_law_passes(self):
        gk = self._gk()
        rng = np.random.default_rng(9)
        y = np.full(5000, -1.0)  # zeta = 0.5: P(mark=+1) = 0.75
        marks = rng.choice([-1.0, 1.0], size=5000, p=[0.25, 0.75])
        rep = conditional_jump_law_test(y, marks, gk, seed=9)
        assert rep.verdict == "pass"

    def test_wrong_law_fails(self):
        gk = self._gk()
        rng = np.random.default_rng(10)
        y = np.full(5000, -1.0)
        marks = rng.choice([-1.0, 1.0], size=5000, p=[0.5, 0.5])
        assert conditional_jump_law_test(y, marks, gk).verdict == "fail"

    def test_insufficient_samples_inconclusive(self):
        gk = self._gk()
        rep = conditional_jump_law_test(np.zeros(10), np.ones(10), gk)
        assert rep.verdict == "inconclusive"
        assert rep.n_samples == 10
        assert rep.details["bins"] == [{"bin": 0, "n": 10, "skipped": True}]

    def test_mark_floor_is_fifty(self):
        gk = self._gk()
        y = np.zeros(PIT_MIN_MARKS)
        marks = np.tile([-1.0, 1.0], PIT_MIN_MARKS // 2)
        assert PIT_MIN_MARKS == 50
        assert conditional_jump_law_test(y[1:], marks[1:], gk).verdict == "inconclusive"
        assert conditional_jump_law_test(y, marks, gk).verdict == "pass"

    def test_no_marks_inconclusive(self):
        rep = conditional_jump_law_test([], [], self._gk())
        assert rep.verdict == "inconclusive"
        assert rep.details["bins"] == [{"bin": 0, "n": 0, "skipped": True}]

    def test_state_dependent_marks_pass(self):
        gk = self._gk()
        rng = np.random.default_rng(11)
        y = rng.uniform(-1.2, 1.2, 8000)
        p_minus = (y / 2.0 + 1.0) / 2.0  # exact conditional law at each y
        marks = np.where(rng.uniform(size=8000) < p_minus, -1.0, 1.0)
        rep = conditional_jump_law_test(y, marks, gk, seed=11)
        assert rep.verdict == "pass"
        assert sum(rep.details["bins"][0]["decile_counts"]) == 8000

    def test_randomisation_follows_the_seed(self):
        gk = self._gk()
        rng = np.random.default_rng(12)
        marks = rng.choice([-1.0, 1.0], size=2000, p=[0.25, 0.75])
        y = np.full(2000, -1.0)
        a, b, c = (conditional_jump_law_test(y, marks, gk, seed=s).details
                   for s in (1, 2, 1))
        assert a == c
        assert a != b

    @pytest.mark.parametrize("measure", ["stable", "grid"])
    def test_density_tail_marks(self, measure):
        F = symmetric_alpha_stable(1.5) if measure == "stable" \
            else uniform_band(0.25, 2.0)
        gk = make_h2_kernel(LevyTriplet(0.0, F, 0.0, indicator_inside(0.5),
                                        integrable=measure == "grid"), 0.5)
        rng = np.random.default_rng(13)
        y = rng.uniform(1.5, 2.5, 4000)
        marks = gk.mark_quantile(y, rng.random(4000))
        assert conditional_jump_law_test(y, marks, gk, seed=13).verdict == "pass"
        # marks of the law at y = 0 fail at the states they are tested at
        flat = gk.mark_quantile(np.zeros(4000), rng.random(4000))
        assert conditional_jump_law_test(y, flat, gk, seed=13).verdict == "fail"


class TestDoublingVerdict:
    def test_stable_passes(self):
        assert doubling_verdict([1.0, 1.02, 1.01, 1.005, 1.0]) == "pass"

    def test_nonfinite_diverges(self):
        assert doubling_verdict([1.0, 2.0, math.inf]) == "diverging"
        assert doubling_verdict([1.0, math.nan, 1.0]) == "diverging"

    def test_persistent_growth_diverges(self):
        assert doubling_verdict([1.0, 2.0, 4.0, 8.0, 16.0]) == "diverging"

    def test_mild_drift_inconclusive(self):
        assert doubling_verdict([1.0, 1.15, 1.3, 1.45, 1.6]) == "inconclusive"


class TestFiniteExpect:
    def test_bounded_ensemble_passes(self):
        rng = np.random.default_rng(12)
        p = np.abs(rng.normal(0.0, 0.5, (8192, 4)))
        rep = finite_expect(p, eps=0.05)
        assert rep.verdict == "pass"

    def test_heavy_tail_diverges(self):
        # exp(3 Y log(1+Y)) with Y ~ Exp(1) has no finite mean
        rng = np.random.default_rng(13)
        p = rng.exponential(1.0, (16384, 1))
        rep = finite_expect(p, eps=3.0)
        assert rep.verdict == "diverging"

    def test_one_dim_input_promoted(self):
        rep = finite_expect(np.zeros(64), eps=0.05)
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)


class TestBrownianInvariance:
    def test_brownian_paths_pass(self):
        rng = np.random.default_rng(14)
        n, k = 20_000, 5
        times = np.linspace(0.0, 1.0, k)
        dB = rng.normal(0.0, math.sqrt(0.25), (n, k - 1))
        x = np.concatenate([np.zeros((n, 1)), np.cumsum(dB, axis=1)], axis=1)
        rep = brownian_invariance_test(
            x, times, np.ones(n), [(0, 2), (2, 4)], phi0=1.0, c=1.0, seed=14
        )
        assert rep.verdict == "pass"

    def test_wrong_variance_fails(self):
        rng = np.random.default_rng(15)
        n, k = 20_000, 3
        times = np.linspace(0.0, 1.0, k)
        dB = rng.normal(0.0, math.sqrt(0.5 * 2.0), (n, k - 1))
        x = np.concatenate([np.zeros((n, 1)), np.cumsum(dB, axis=1)], axis=1)
        rep = brownian_invariance_test(
            x, times, np.ones(n), [(0, 2)], phi0=1.0, c=1.0
        )
        assert rep.verdict == "fail"
