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
    LatticePath,
    PathBlock,
    PathSimulator,
    SimConfig,
    decomposition_residual,
    extract_jump_measure,
    _weight_table,
    _window_sums,
    moving_average,
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
        ma = moving_average(constant_kernel(1.0), path)
        L = path.levy_values_from_zero()
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
        ma = moving_average(exponential_kernel(kappa), path)
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
        ma = moving_average(k, path)
        block = PathBlock.of_path(path)
        rows = np.zeros(len(ma.times), dtype=int)
        x_at = block.response(k, rows, ma.times, strict=False)
        y_pre = block.response(k.dphi, rows, ma.times, strict=True)
        np.testing.assert_allclose(x_at, ma.X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y_pre, ma.Y, rtol=0, atol=1e-12)
        assert list(y_pre) == [y_at(k, path, t) for t in ma.times]

    def test_kernel_response_at_a_jump(self):
        # X_t includes a jump at t, Y_{t-} leaves it out
        k = exponential_kernel(0.7)
        times = np.linspace(-1.0, 1.0, 9)
        inc = np.zeros(8)
        inc[5] = 2.0  # jump at 0.5 lives in cell (0.25, 0.5]
        path = LatticePath(times, inc, np.array([0.5]), np.array([2.0]))
        block = PathBlock.of_path(path)
        assert block.response(k, [0], [0.5], strict=False)[0] == 2.0
        assert block.response(k.dphi, [0], [0.5], strict=True)[0] == 0.0
        two = PathBlock.of_path(LatticePath(times, inc, np.array([0.25, 0.5]),
                                            np.array([1.0, 2.0])),
                                diffuse=np.zeros(8))
        assert two.response(k.dphi, [0], [0.5], strict=True)[0] == \
            pytest.approx(-0.7 * math.exp(-0.7 * 0.25), abs=1e-15)

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
        r_f = decomposition_residual(k, fine, moving_average(k, fine))
        r_c = decomposition_residual(k, coarse, moving_average(k, coarse))
        err_f = np.max(np.abs(r_f))
        err_c = np.max(np.abs(r_c[: len(r_f)]))
        assert err_f < err_c / 1.5

    @pytest.mark.parametrize("k", [exponential_kernel(0.7, 1.3),
                                   constant_kernel(0.8)], ids=lambda k: k.name)
    def test_recursion_matches_fft(self, k):
        F = DiscreteMeasure([(-1.0, 2.0), (1.0, 2.0)])
        triplet = LevyTriplet(1.0, F, 0.3, indicator_inside(0.5))
        sim = PathSimulator(triplet, _cfg(M=4.0, eps_jump=0.25))
        path = sim.simulate_index(4)
        assert len(path.jump_times) and np.any(path.diffuse_increments())
        assert k.exponential is not None
        got = moving_average(k, path)
        fft = moving_average(dataclasses.replace(k, exponential=None), path)
        np.testing.assert_allclose(got.X, fft.X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.Y, fft.Y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [power_kernel(1.5), zero_start_kernel(0.6)],
                             ids=lambda k: k.name)
    def test_power_kernel_takes_the_fft(self, k):
        assert k.exponential is None
        cfg = _cfg(M=2.0)
        path = PathSimulator(_gauss_triplet(), cfg).simulate_index(0)
        ma = moving_average(k, path)
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
        ma = moving_average(exponential_kernel(1.0), path)
        assert ma.truncation_bias_bound == pytest.approx(math.exp(-2.0), rel=1e-9)


class TestDensityTails:
    """Explicit jumps of density measures drawn from their closed-form
    tail laws."""

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

    def test_band_beyond_eps(self):
        # (eps, a) = (0.25, 0.5) holds no mass
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


class TestStationarity:
    def test_same_marginal_at_two_times(self):
        # exponential kernel, long pre-history: X_0 and X_T share the law
        k = exponential_kernel(1.0)
        cfg = SimConfig(T=1.0, M=12.0, dt=0.25, eps_jump=0.5, n_paths=1, seed=31)
        t = LevyTriplet(1.0, DiscreteMeasure([(1.0, 1.0)]), 0.0, indicator_inside(0.5))
        sim = PathSimulator(t, cfg)
        x0, xT = [], []
        for i in range(400):
            ma = moving_average(k, sim.simulate_index(i))
            (x0 if i % 2 == 0 else xT).append(ma.X[0] if i % 2 == 0 else ma.X[-1])
        res = stats.ks_2samp(np.asarray(x0), np.asarray(xT))
        assert res.pvalue > 0.01


# the lattice of the Gaussian builtins
_PRE_CFG = dict(T=0.5, M=10.0, dt=2.0 ** -9, eps_jump=0.5, n_paths=1, seed=5)


def _prehistory_rows(kernel, cfg):
    """A[(a, k), p - 1] = w_a[k + p], p = 1..m: the pre-history's weights in
    X (a = 0) and Y (a = 1) at grid node k."""
    tables = [_weight_table(fn, cfg.n_cells, cfg.dt) for fn in (kernel, kernel.dphi)]
    win = np.lib.stride_tricks.sliding_window_view
    return np.vstack([win(w[1:], cfg.m_cells)[:cfg.n_out] for w in tables])


class TestPrehistory:
    @pytest.mark.parametrize("kernel,rank", [
        (exponential_kernel(1.0), 1), (zero_start_kernel(1.0), 2),
        (power_kernel(1.5), 6), (power_kernel(2.5), 6)])
    def test_factor_reproduces_the_covariance(self, kernel, rank):
        cfg = SimConfig(**_PRE_CFG)
        law = PathSimulator(_gauss_triplet(c=0.7), cfg).prehistory(kernel)
        A = _prehistory_rows(kernel, cfg)
        G = 0.7 * cfg.dt * A @ A.T
        L = law.factor.reshape(2 * cfg.n_out, -1)
        assert law.rank == rank
        assert np.max(np.abs(L @ L.T - G)) <= 1e-12 * np.max(np.abs(G))

    @pytest.mark.parametrize("kernel", [
        exponential_kernel(1.0), zero_start_kernel(1.0), power_kernel(1.5),
        power_kernel(2.5)])
    def test_window_sums_equal_correlations_with_ones(self, kernel):
        # the mean and G's diagonal are window sums of w and w * w
        cfg = SimConfig(**_PRE_CFG)
        w = np.stack([_weight_table(fn, cfg.n_cells, cfg.dt)[1:]
                      for fn in (kernel, kernel.dphi)])
        ones = np.ones(cfg.m_cells)
        for v in (w, w * w):
            want = np.stack([np.correlate(a, ones, "valid") for a in v])
            np.testing.assert_allclose(_window_sums(v, cfg.m_cells), want,
                                       rtol=1e-12, atol=0.0)
        assert np.array_equal(_window_sums(np.arange(5.0), 2), [1.0, 3.0, 5.0, 7.0])

    def test_mean_is_the_drift_sum(self):
        cfg = SimConfig(**_PRE_CFG)
        kernel = power_kernel(1.5)
        law = PathSimulator(_gauss_triplet(b=0.3), cfg).prehistory(kernel)
        want = 0.3 * cfg.dt * _prehistory_rows(kernel, cfg).sum(axis=1)
        assert law.mean.shape == (2, cfg.n_out)
        assert np.max(np.abs(law.mean.reshape(-1) - want)) <= 1e-12

    @pytest.mark.parametrize("kernel", [exponential_kernel(1.0),
                                        zero_start_kernel(1.0)])
    def test_lattice_prehistory_lies_in_the_factor_span(self, kernel):
        # what the cells of [-M, 0] add to a drawn path is mean + factor eta
        # for some eta, up to the trace the factor leaves out
        cfg = _cfg(T=2.0, M=8.0, dt=0.0625)
        sim = PathSimulator(_gauss_triplet(b=0.2), cfg)
        law = sim.prehistory(kernel)
        block = sim.draw(sim.rngs(0, 8))
        near = dataclasses.replace(block, times=block.times[cfg.m_cells:],
                                   diffuse=block.diffuse[:, cfg.m_cells:])
        pre = np.hstack([a - b for a, b in zip(block.moving_average(kernel),
                                               near.moving_average(kernel))])
        pre -= law.mean.reshape(-1)
        L = law.factor.reshape(2 * cfg.n_out, -1)
        eta = np.linalg.lstsq(L, pre.T, rcond=None)[0]
        assert np.max(np.abs(L @ eta - pre.T)) <= 1e-12 * np.max(np.abs(pre))

    def test_no_prehistory_without_cells(self):
        cfg = _cfg(M=0.0)
        law = PathSimulator(_gauss_triplet(b=0.5), cfg).prehistory(power_kernel(1.5))
        assert law.rank == 0 and not law.mean.any()
        sim = PathSimulator(_gauss_triplet(), cfg)
        assert sim.draw(sim.rngs(0, 3), law).eta.shape == (3, 0)

    def test_explicit_jumps_refused(self):
        t = LevyTriplet(0.0, DiscreteMeasure([(1.0, 1.0)]), 0.0, indicator_inside(1.0))
        with pytest.raises(InvalidConfig):
            PathSimulator(t, _cfg()).prehistory(exponential_kernel(1.0))

    def test_law_needs_a_block_drawn_from_zero(self):
        sim = PathSimulator(_gauss_triplet(), _cfg())
        kernel = exponential_kernel(1.0)
        law = sim.prehistory(kernel)
        # a draw with the law spans [0, T], so the block from -M gets its
        # eta by hand
        block = dataclasses.replace(sim.draw(sim.rngs(0, 2)),
                                    eta=np.zeros((2, law.rank)))
        with pytest.raises(ValueError):
            block.moving_average(kernel, law)

    def test_law_needs_a_block_drawn_with_it(self):
        kernel = exponential_kernel(1.0)
        law = PathSimulator(_gauss_triplet(), _cfg()).prehistory(kernel)
        near = PathSimulator(_gauss_triplet(), _cfg(M=0.0))
        with pytest.raises(ValueError):
            near.draw(near.rngs(0, 2)).moving_average(kernel, law)
