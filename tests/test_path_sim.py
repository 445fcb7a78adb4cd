import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from levyemm import _backend
from levyemm.errors import InvalidConfig
from levyemm.kernel import (
    constant_kernel,
    exponential_kernel,
    power_kernel,
    zero_start_kernel,
)
from levyemm.levy_model import (
    DiscreteMeasure,
    Interval,
    LevyTriplet,
    ball_complement,
    gaussian_only,
    indicator_inside,
    levy_integrate,
    symmetric_alpha_stable,
    tail_law,
    tail_mass,
    tempered_stable,
    uniform_band,
)
from levyemm.path_sim import (
    KernelResponse,
    LatticePath,
    PathSimulator,
    SimConfig,
    decomposition_residual,
    extract_jump_measure,
    moving_average,
    simulate_levy,
    y_at,
)


def _cfg(**kw):
    base = dict(T=1.0, M=1.0, dt=0.125, eps_jump=0.5, n_paths=1, seed=11)
    base.update(kw)
    return SimConfig(**base)


def _gauss_triplet(c=1.0, b=0.0):
    return LevyTriplet(c, gaussian_only(), b, indicator_inside(1.0))


class TestConfig:
    def test_dt_must_divide(self):
        with pytest.raises(InvalidConfig):
            _cfg(dt=0.3)

    def test_eps_jump_bounded_by_truncation(self):
        t = LevyTriplet(0.0, DiscreteMeasure([(1.0, 1.0)]), 0.0, indicator_inside(0.25))
        with pytest.raises(InvalidConfig):
            PathSimulator(t, _cfg(eps_jump=0.5))

    def test_grid_counts(self):
        cfg = _cfg(T=2.0, M=1.0, dt=0.25)
        assert cfg.n_out == 9
        assert cfg.m_cells == 4
        assert cfg.n_cells == 12


class TestBrownianIncrements:
    def test_mean_and_variance(self):
        cfg = SimConfig(T=8.0, M=0.0, dt=1 / 512, eps_jump=0.5, n_paths=1, seed=2)
        sim = PathSimulator(_gauss_triplet(c=2.0, b=0.5), cfg)
        path = sim.simulate_index(0)
        inc = path.increments
        n = len(inc)
        se_mean = math.sqrt(2.0 * cfg.dt / n)
        assert abs(inc.mean() - 0.5 * cfg.dt) < 4 * se_mean
        assert inc.var() == pytest.approx(2.0 * cfg.dt, rel=0.1)

    def test_drift_only_when_c_zero(self):
        cfg = _cfg()
        sim = PathSimulator(_gauss_triplet(c=0.0, b=1.5), cfg)
        path = sim.simulate_index(0)
        np.testing.assert_allclose(path.increments, 1.5 * cfg.dt, atol=1e-15)


class TestJumps:
    def test_compound_poisson_count(self):
        F = DiscreteMeasure([(-1.0, 1.0), (1.0, 2.0)])
        cfg = _cfg(T=4.0, M=0.0, dt=0.25, eps_jump=0.5, seed=5)
        sim = PathSimulator(LevyTriplet(0.0, F, 0.0, indicator_inside(0.5)), cfg)
        counts = [len(sim.simulate_index(i).jump_times) for i in range(400)]
        lam = 3.0 * cfg.T
        se = math.sqrt(lam / 400)
        assert abs(np.mean(counts) - lam) < 4 * se

    def test_stable_sampler_tail_law(self):
        s = tail_law(symmetric_alpha_stable(1.5),
                     ball_complement(0.25, open_ends=False))
        rng = np.random.default_rng(8)
        z = np.abs(s.sample(40_000, rng))
        # P(|Z| > 2 eps) = 2^{-alpha}
        p_hat = np.mean(z > 0.5)
        p = 2.0**-1.5
        assert abs(p_hat - p) < 4 * math.sqrt(p * (1 - p) / 40_000)
        # Hill estimate of the tail index
        hill = 1.0 / np.mean(np.log(z / 0.25))
        assert hill == pytest.approx(1.5, rel=0.05)

    def test_jumps_embedded_in_increments(self):
        F = DiscreteMeasure([(2.0, 1.0)])
        cfg = _cfg(T=2.0, M=0.0, dt=0.5, eps_jump=0.5, seed=3)
        sim = PathSimulator(LevyTriplet(0.0, F, 0.0, indicator_inside(0.5)), cfg)
        path = sim.simulate_index(0)
        # removing the jumps leaves only the compensator drift
        drift = sim.drift_rate * cfg.dt
        np.testing.assert_allclose(path.diffuse_increments(), drift, atol=1e-12)
        assert path.increments.sum() == pytest.approx(
            drift * 4 + path.jump_sizes.sum(), abs=1e-12
        )

    def test_extract_jump_measure_window(self):
        path = LatticePath(
            times=np.linspace(-1.0, 1.0, 5),
            increments=np.zeros(4),
            jump_times=np.array([-0.5, 0.2, 0.7]),
            jump_sizes=np.array([1.0, 2.0, 3.0]),
        )
        jt, jz = extract_jump_measure(path, (0.0, 1.0))
        np.testing.assert_allclose(jt, [0.2, 0.7])
        np.testing.assert_allclose(jz, [2.0, 3.0])

    def test_interarrival_times_exponential(self):
        F = DiscreteMeasure([(1.0, 4.0)])
        cfg = _cfg(T=8.0, M=0.0, dt=0.5, eps_jump=0.5, seed=17)
        sim = PathSimulator(LevyTriplet(0.0, F, 0.0, indicator_inside(0.5)), cfg)
        # first arrival per path: Exp(rate) up to an e^{-32} truncation
        first = []
        for i in range(300):
            jt = sim.simulate_index(i).jump_times
            if len(jt):
                first.append(jt[0])
        res = stats.kstest(np.asarray(first), "expon", args=(0.0, 1.0 / 4.0))
        assert res.pvalue > 0.01


class TestMovingAverage:
    def test_constant_kernel_telescopes(self):
        cfg = _cfg(T=2.0, M=1.0, dt=0.25, seed=7)
        t = LevyTriplet(1.0, DiscreteMeasure([(1.0, 0.5)]), 0.3, indicator_inside(0.5))
        sim = PathSimulator(t, _cfg(T=2.0, M=1.0, dt=0.25, seed=7))
        path = sim.simulate_index(0)
        ma = moving_average(constant_kernel(1.0), path, cfg.m_cells)
        L = path.levy_values_from_zero(cfg.m_cells)
        np.testing.assert_allclose(ma.X - ma.X0, L, atol=1e-12)
        np.testing.assert_allclose(ma.Y, 0.0, atol=1e-15)

    def test_single_jump_response_exact(self):
        kappa = 0.7
        times = np.linspace(-1.0, 1.0, 9)
        inc = np.zeros(8)
        inc[2] = 2.0  # jump at -0.3 lives in cell (-0.5, -0.25]
        path = LatticePath(
            times=times,
            increments=inc,
            jump_times=np.array([-0.3]),
            jump_sizes=np.array([2.0]),
        )
        ma = moving_average(exponential_kernel(kappa), path, 4)
        expect = 2.0 * np.exp(-kappa * (ma.times + 0.3))
        np.testing.assert_allclose(ma.X, expect, atol=1e-12)
        np.testing.assert_allclose(ma.Y, -kappa * expect, atol=1e-12)

    def test_y_at_is_left_limit(self):
        kappa = 0.7
        times = np.linspace(-1.0, 1.0, 9)
        inc = np.zeros(8)
        inc[5] = 1.0  # jump at 0.5 lives in cell (0.25, 0.5]
        path = LatticePath(
            times=times,
            increments=inc,
            jump_times=np.array([0.5]),
            jump_sizes=np.array([1.0]),
        )
        k = exponential_kernel(kappa)
        # at the jump instant the jump itself must not contribute
        assert y_at(k, path, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert y_at(k, path, 0.75) == pytest.approx(
            -kappa * math.exp(-kappa * 0.25), abs=1e-12
        )

    def test_kernel_response_matches_grid_moving_average(self):
        # off the jump times, X_t and Y_{t-} equal the grid values
        k = exponential_kernel(0.7)
        F = DiscreteMeasure([(-1.0, 2.0), (1.0, 2.0)])
        triplet = LevyTriplet(1.0, F, 0.3, indicator_inside(0.5))
        sim = PathSimulator(triplet, _cfg(M=2.0, eps_jump=0.25))
        path = sim.simulate_index(4)
        assert len(path.jump_times) and np.any(path.diffuse_increments())
        ma = moving_average(k, path, sim.config.m_cells)
        resp = KernelResponse(k, path)
        for t, x, y in zip(ma.times, ma.X, ma.Y):
            assert resp.x_at(t) == pytest.approx(x, abs=1e-12)
            assert resp.y_pre(t) == pytest.approx(y, abs=1e-12)
            assert resp.y_pre(t) == y_at(k, path, t)

    def test_kernel_response_at_a_jump(self):
        # X_t includes a jump at t, Y_{t-} leaves it out
        k = exponential_kernel(0.7)
        times = np.linspace(-1.0, 1.0, 9)
        inc = np.zeros(8)
        inc[5] = 2.0  # jump at 0.5 lives in cell (0.25, 0.5]
        path = LatticePath(times, inc, np.array([0.5]), np.array([2.0]))
        resp = KernelResponse(k, path)
        assert resp.x_at(0.5) == 2.0 and resp.y_pre(0.5) == 0.0
        resp.add_jump(0.25, 1.0)
        np.testing.assert_array_equal(resp.jump_times, [0.25, 0.5])
        assert resp.y_pre(0.5) == pytest.approx(-0.7 * math.exp(-0.7 * 0.25),
                                                abs=1e-15)

    def test_decomposition_residual_first_order_in_dt(self):
        k = exponential_kernel(1.0)
        rng = np.random.default_rng(23)
        cfg_f = SimConfig(T=1.0, M=2.0, dt=1 / 256, eps_jump=0.5, n_paths=1, seed=0)
        fine = PathSimulator(_gauss_triplet(), cfg_f).simulate(rng)
        # coarse path shares the same Brownian increments pairwise summed
        coarse = LatticePath(
            times=fine.times[::2],
            increments=fine.increments.reshape(-1, 2).sum(axis=1),
            jump_times=fine.jump_times,
            jump_sizes=fine.jump_sizes,
        )
        r_f = decomposition_residual(k, fine, moving_average(k, fine, 512), 512)
        r_c = decomposition_residual(k, coarse, moving_average(k, coarse, 256), 256)
        err_f = np.max(np.abs(r_f))
        err_c = np.max(np.abs(r_c[: len(r_f)]))
        assert err_f < err_c / 1.5

    @pytest.mark.parametrize("k", [exponential_kernel(0.7, 1.3),
                                   constant_kernel(0.8), zero_start_kernel(0.6)],
                             ids=lambda k: k.name)
    def test_recursion_matches_fft(self, k):
        F = DiscreteMeasure([(-1.0, 2.0), (1.0, 2.0)])
        triplet = LevyTriplet(1.0, F, 0.3, indicator_inside(0.5))
        sim = PathSimulator(triplet, _cfg(M=4.0, eps_jump=0.25))
        path = sim.simulate_index(4)
        assert len(path.jump_times) and np.any(path.diffuse_increments())
        assert k.recursion(sim.config.dt)[0] is not None
        got = moving_average(k, path, sim.config.m_cells)
        fft = moving_average(dataclasses.replace(k, iir=None), path,
                             sim.config.m_cells)
        np.testing.assert_allclose(got.X, fft.X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.Y, fft.Y, rtol=0, atol=1e-12)

    def test_power_kernel_takes_the_fft(self):
        k = power_kernel(1.5)
        assert k.recursion(0.125) == (None, None)
        cfg = _cfg(M=2.0)
        path = PathSimulator(_gauss_triplet(), cfg).simulate_index(0)
        ma = moving_average(k, path, cfg.m_cells)
        lags = np.arange(len(path.increments) + 1) * cfg.dt
        row = path.increments[None, :]
        np.testing.assert_array_equal(
            ma.X, _backend.ma_correlate(row, k(lags), cfg.n_out, cfg.m_cells)[0])
        np.testing.assert_array_equal(
            ma.Y, _backend.ma_correlate(row, k.dphi(lags), cfg.n_out,
                                        cfg.m_cells)[0])

    def test_truncation_bias_bound_attached(self):
        cfg = _cfg(M=2.0)
        path = PathSimulator(_gauss_triplet(), cfg).simulate_index(0)
        ma = moving_average(exponential_kernel(1.0), path, cfg.m_cells)
        assert ma.truncation_bias_bound == pytest.approx(math.exp(-2.0), rel=1e-9)


class TestDensityTails:
    """Explicit jumps of density measures drawn from the grid tail law."""

    @pytest.mark.parametrize("F", [tempered_stable(1.0, 1.0, 1.5),
                                   uniform_band(0.5, 2.0)],
                             ids=["tempered-stable", "uniform-band"])
    def test_rate_and_mean_size(self, F):
        eps = 0.25
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0))
        sim = PathSimulator(t, _cfg(eps_jump=eps, seed=23))
        assert sim.jump_rate == pytest.approx(tail_mass(F, eps), rel=1e-4)
        z = np.abs(np.concatenate([sim.simulate_index(i).jump_sizes
                                   for i in range(500)]))
        assert np.all(z >= eps)
        target = levy_integrate(F, np.abs, ball_complement(eps, open_ends=False))
        target /= sim.jump_rate
        assert abs(z.mean() - target) < 4 * z.std(ddof=1) / math.sqrt(len(z))

    def test_zero_mass_first_doubling(self):
        # [eps, 2 eps] = [0.25, 0.5] holds no mass; the grid must go on
        F = uniform_band(0.5, 2.0)
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0))
        sim = PathSimulator(t, _cfg(eps_jump=0.25))
        assert sim.jump_rate == pytest.approx(3.0, rel=1e-12)
        z = np.abs(sim.simulate_index(0).jump_sizes)
        assert len(z) and np.all((z >= 0.5) & (z <= 2.0))

    def test_stable_below_one_still_simulates(self):
        t = LevyTriplet(0.0, symmetric_alpha_stable(0.9), 0.0,
                        indicator_inside(1.0), integrable=False)
        sim = PathSimulator(t, _cfg(eps_jump=0.5))
        assert sim.jump_rate == pytest.approx(2.0 * 0.5**-0.9 / 0.9, rel=1e-12)
        assert np.all(np.abs(sim.simulate_index(0).jump_sizes) >= 0.5)


class TestVarianceBudget:
    def test_eps_halving_conserves_small_variance(self):
        F = symmetric_alpha_stable(1.5)
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0), integrable=False)
        s1 = PathSimulator(t, _cfg(eps_jump=0.5, dt=0.125))
        s2 = PathSimulator(t, _cfg(eps_jump=0.25, dt=0.125))
        band = levy_integrate(
            F, lambda x: x * x,
            [Interval(-0.5, -0.25, open_hi=False), Interval(0.25, 0.5, open_lo=False)],
        )
        # shrinking eps moves band variance from the Gaussian proxy to jumps
        assert s1.small_var_rate - s2.small_var_rate == pytest.approx(band, rel=1e-3)
        assert s2.jump_rate > s1.jump_rate


class TestReproducibility:
    def test_bit_identical_per_index(self):
        t = LevyTriplet(1.0, DiscreteMeasure([(1.0, 1.0)]), 0.0, indicator_inside(0.5))
        sim = PathSimulator(t, _cfg(seed=99))
        a = sim.simulate_index(5)
        b = sim.simulate_index(5)
        assert np.array_equal(a.increments, b.increments)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_sizes, b.jump_sizes)

    def test_indices_independent_of_order(self):
        t = _gauss_triplet()
        sim = PathSimulator(t, _cfg(seed=42))
        first = {i: sim.simulate_index(i).increments for i in (0, 1, 2)}
        for i in (2, 0, 1):
            assert np.array_equal(sim.simulate_index(i).increments, first[i])

    def test_simulate_levy_wrapper(self):
        cfg = _cfg(seed=1)
        rng = np.random.default_rng(np.random.SeedSequence((1, 0)))
        a = simulate_levy(_gauss_triplet(), cfg, rng)
        b = PathSimulator(_gauss_triplet(), cfg).simulate_index(0)
        assert np.array_equal(a.increments, b.increments)


class TestStationarity:
    def test_same_marginal_at_two_times(self):
        # exponential kernel, long pre-history: X_0 and X_T share the law
        k = exponential_kernel(1.0)
        cfg = SimConfig(T=1.0, M=12.0, dt=0.25, eps_jump=0.5, n_paths=1, seed=31)
        t = LevyTriplet(1.0, DiscreteMeasure([(1.0, 1.0)]), 0.0, indicator_inside(0.5))
        sim = PathSimulator(t, cfg)
        x0, xT = [], []
        for i in range(400):
            ma = moving_average(k, sim.simulate_index(i), cfg.m_cells)
            (x0 if i % 2 == 0 else xT).append(ma.X[0] if i % 2 == 0 else ma.X[-1])
        res = stats.ks_2samp(np.asarray(x0), np.asarray(xT))
        assert res.pvalue > 0.01
