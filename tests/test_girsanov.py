import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyemm.emm_construct import make_h1_kernel, make_h2_kernel
from levyemm.errors import (
    DomainError,
    DominanceViolated,
    NonPositiveAlpha,
    UnsupportedModel,
)
from levyemm.girsanov import (
    density_process,
    f_lm,
    fit_envelope,
    lm_compensator,
    lm_criterion_check,
    q_characteristics,
    simulate_under_q,
    stoch_exp,
)
from levyemm.kernel import constant_kernel, exponential_kernel
from levyemm.levy_model import DiscreteMeasure, LevyTriplet, indicator_inside
from levyemm.path_sim import MovingAveragePath, SimConfig

F_LM_AT_ONE = 2.0 * math.log(2.0) - 1.0


def _two_atom_triplet(a_trunc=0.5):
    F = DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)])
    return LevyTriplet(0.0, F, 0.0, indicator_inside(a_trunc))


def _flat_ma(times, y=0.0):
    n = len(times)
    return MovingAveragePath(np.asarray(times, dtype=float), np.zeros(n),
                             np.full(n, y), 0.0)


class TestStochExp:
    def test_pure_drift(self):
        t = np.linspace(0.0, 1.0, 5)
        out = stoch_exp(t, t.copy(), np.empty(0), np.empty(0))
        np.testing.assert_allclose(out, np.exp(t), rtol=1e-12)

    def test_continuous_qv_correction(self):
        t = np.linspace(0.0, 1.0, 5)
        M = np.array([0.0, 0.3, -0.1, 0.4, 0.2])
        qv = 0.5 * t
        out = stoch_exp(t, M, np.empty(0), np.empty(0), qv_cont=qv)
        np.testing.assert_allclose(out, np.exp(M - 0.5 * qv), rtol=1e-12)

    def test_single_jump_factor(self):
        t = np.linspace(0.0, 1.0, 5)
        M = np.where(t >= 0.5, 0.5, 0.0)  # one jump of 0.5 at t = 0.5
        out = stoch_exp(t, M, np.array([0.5]), np.array([0.5]))
        expect = np.where(t >= 0.5, 1.5, 1.0)
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_absorbed_at_minus_one(self):
        t = np.linspace(0.0, 1.0, 5)
        M = np.where(t >= 0.5, -1.0, 0.0)
        out = stoch_exp(t, M, np.array([0.5]), np.array([-1.0]))
        np.testing.assert_allclose(out[t >= 0.5], 0.0, atol=0)
        np.testing.assert_allclose(out[t < 0.5], 1.0, rtol=1e-12)

    def test_sign_flip_below_minus_one(self):
        t = np.linspace(0.0, 1.0, 5)
        M = np.where(t >= 0.5, -1.5, 0.0)
        out = stoch_exp(t, M, np.array([0.5]), np.array([-1.5]))
        assert np.all(out[t >= 0.5] < 0.0)
        np.testing.assert_allclose(out[-1], -0.5, rtol=1e-12)


class TestDensityProcess:
    def test_two_atom_factors(self):
        t = _two_atom_triplet()
        gk = make_h2_kernel(t, 0.5)
        times = np.linspace(0.0, 1.0, 5)
        jumps = (np.array([0.3, 0.7]), np.array([-1.0, 1.0]))
        dp = density_process(gk, _flat_ma(times), jumps,
                             y_at_jumps=np.array([-1.0, -1.0]))
        # zeta(-1) = 0.5: levels 0.5 below, 1.5 above
        np.testing.assert_allclose(dp.jump_factors, [0.5, 1.5], atol=1e-12)
        assert dp.Z_T == pytest.approx(0.75, abs=1e-12)
        np.testing.assert_allclose(dp.compensator_drift, 0.0, atol=0)
        assert dp.log_identity_residual() < 1e-12

    def test_trivial_when_alpha_one(self):
        # y + b_h = 0 and symmetric tail: zeta = 0 gives the flat density
        t = _two_atom_triplet()
        gk = make_h2_kernel(t, 0.5)
        times = np.linspace(0.0, 1.0, 5)
        jumps = (np.array([0.5]), np.array([1.0]))
        dp = density_process(gk, _flat_ma(times), jumps,
                             y_at_jumps=np.array([0.0]))
        np.testing.assert_allclose(dp.Z, 1.0, atol=1e-12)

    def test_h1_no_band_jumps_and_zero_drift(self):
        F = DiscreteMeasure([(-1.5, 1.0), (1.5, 1.0)])
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0))
        gk = make_h1_kernel(t, 1.0, 2.0)
        times = np.linspace(0.0, 1.0, 5)
        dp = density_process(gk, _flat_ma(times, y=0.0),
                             (np.empty(0), np.empty(0)))
        np.testing.assert_allclose(dp.Z, 1.0, atol=1e-12)

    def test_h1_compensator_accumulates(self):
        F = DiscreteMeasure([(-1.5, 1.0), (1.5, 1.0)])
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0))
        gk = make_h1_kernel(t, 1.0, 2.0)
        times = np.linspace(0.0, 1.0, 5)
        y = -2.0  # raises the positive band side
        dp = density_process(gk, _flat_ma(times, y=y),
                             (np.empty(0), np.empty(0)))
        # rate = (-y) * m_pos / sigma_plus^2 with m_pos = 1.5, s+^2 = 2.25
        rate = 2.0 * 1.5 / 2.25
        np.testing.assert_allclose(dp.compensator_drift, -rate * times, atol=1e-12)
        np.testing.assert_allclose(dp.Z, np.exp(-rate * times), rtol=1e-12)

    def test_nonpositive_alpha_raises(self):
        class Bad:
            kind = "h2"

            def evaluate(self, y, x):
                return np.asarray(-1.0)

        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(NonPositiveAlpha):
            density_process(Bad(), _flat_ma(times),
                            (np.array([0.5]), np.array([1.0])))

    def test_matches_stoch_exp_route(self):
        t = _two_atom_triplet()
        gk = make_h2_kernel(t, 0.5)
        times = np.linspace(0.0, 1.0, 9)
        jumps = (np.array([0.25, 0.6]), np.array([1.0, -1.0]))
        y_pre = np.array([-0.4, 0.8])
        dp = density_process(gk, _flat_ma(times), jumps, y_at_jumps=y_pre)
        # same object as the stochastic exponential of the jump martingale
        dM = dp.jump_factors - 1.0
        M = np.zeros_like(times)
        for t_n, d in zip(jumps[0], dM):
            M[times >= t_n] += d
        via_se = stoch_exp(times, M, jumps[0], dM)
        np.testing.assert_allclose(dp.Z, via_se, rtol=1e-12)


class TestQCharacteristics:
    def test_total_drift_vanishes_h2(self):
        t = _two_atom_triplet()
        gk = make_h2_kernel(t, 0.5)
        for y in (-1.5, -0.3, 0.0, 0.7, 1.5):
            q = q_characteristics(gk, t, y)
            assert q.drift_t == pytest.approx(y, abs=1e-12)
            assert q.total_q_drift == pytest.approx(0.0, abs=1e-12)

    def test_total_drift_vanishes_h1(self):
        F = DiscreteMeasure([(-1.5, 1.0), (1.5, 1.0), (0.5, 2.0)])
        t = LevyTriplet(0.0, F, 0.3, indicator_inside(1.0))
        gk = make_h1_kernel(t, 1.0, 2.0)
        for y in (-2.0, 0.0, 1.5):
            q = q_characteristics(gk, t, y)
            assert q.total_q_drift == pytest.approx(0.0, abs=1e-12)

    def test_q_measure_is_alpha_reweighted(self):
        t = _two_atom_triplet()
        gk = make_h2_kernel(t, 0.5)
        q = q_characteristics(gk, t, -1.0)
        np.testing.assert_allclose(q.alpha(np.array([-1.0, 1.0])), [0.5, 1.5],
                                   atol=1e-12)


class TestFLm:
    def test_values(self):
        assert f_lm(0.0) == 0.0
        assert f_lm(1.0) == pytest.approx(F_LM_AT_ONE, abs=1e-15)
        assert f_lm(math.e - 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            f_lm(-1.0)
        with pytest.raises(DomainError):
            f_lm(np.array([0.5, -1.2]))

    @given(st.floats(-0.99, 20.0), st.floats(-0.99, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_midpoint_convex(self, a, b):
        assert f_lm(a) >= 0.0
        mid = f_lm(0.5 * (a + b))
        assert mid <= 0.5 * (f_lm(a) + f_lm(b)) + 1e-12


class TestLmCompensator:
    def test_constant_w_two_atoms(self):
        t = _two_atom_triplet()
        times = np.linspace(0.0, 1.0, 9)
        y = np.zeros_like(times)
        W = lambda u, yv, x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731
        total = lm_compensator(W, t, times, y, (0.0, 1.0))
        assert total == pytest.approx(2.0 * F_LM_AT_ONE, abs=1e-12)

    def test_partial_window(self):
        t = _two_atom_triplet()
        times = np.linspace(0.0, 1.0, 9)
        y = np.zeros_like(times)
        W = lambda u, yv, x: np.ones_like(np.asarray(x, dtype=float))  # noqa: E731
        half = lm_compensator(W, t, times, y, (0.25, 0.75))
        assert half == pytest.approx(F_LM_AT_ONE, abs=1e-12)

    def test_zero_w_gives_zero(self):
        t = _two_atom_triplet()
        times = np.linspace(0.0, 1.0, 5)
        W = lambda u, yv, x: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731
        assert lm_compensator(W, t, times, np.zeros(5), (0.0, 1.0)) == 0.0


class TestEnvelopeFit:
    def test_exact_envelope(self):
        y = np.geomspace(1e-3, 1e3, 100)
        h = y * np.log1p(y)
        g1, g2 = fit_envelope(h, y)
        assert g1 == pytest.approx(1.0, rel=1e-12)
        assert g2 <= 1.0 + 1e-12
        np.testing.assert_array_less(h, g1 * y * np.log1p(y) + g2 + 1e-12)

    def test_constant_h(self):
        y = np.geomspace(1e-3, 1e3, 100)
        h = np.full_like(y, 3.0)
        g1, g2 = fit_envelope(h, y)
        np.testing.assert_array_less(h - 1e-12, g1 * y * np.log1p(y) + g2)


class TestLmCriterion:
    def test_zero_exposure_certifies(self):
        t = _two_atom_triplet()
        times = np.linspace(0.0, 1.0, 9)
        p = np.zeros((64, 9))
        rep = lm_criterion_check(times, p, lambda x: np.abs(x), t)
        assert rep.certified
        assert rep.condition_b == pytest.approx(2.0 * (1.0 + math.log(2.0)), rel=1e-12)

    def test_dominance_violation_detected(self):
        t = _two_atom_triplet()
        times = np.linspace(0.0, 1.0, 5)
        p = np.ones((16, 5))
        with pytest.raises(DominanceViolated):
            lm_criterion_check(
                times, p, lambda x: np.abs(x), t,
                w_fn=lambda pv, x: 2.0 * pv * abs(float(x)),
            )

    def test_dominance_spot_check_passes_when_tight(self):
        t = _two_atom_triplet()
        times = np.linspace(0.0, 1.0, 5)
        p = np.ones((16, 5))
        rep = lm_criterion_check(
            times, p, lambda x: np.abs(x), t,
            w_fn=lambda pv, x: pv * abs(float(x)),
        )
        assert rep.dominance_checked


class TestSimulateUnderQ:
    def _setup(self):
        t = _two_atom_triplet()
        gk = make_h2_kernel(t, 0.5)
        cfg = SimConfig(T=2.0, M=1.0, dt=0.25, eps_jump=0.25, n_paths=1, seed=77)
        return t, gk, cfg

    def test_requires_h2(self):
        F = DiscreteMeasure([(-1.5, 1.0), (1.5, 1.0)])
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0))
        gk = make_h1_kernel(t, 1.0, 2.0)
        cfg = SimConfig(T=1.0, M=0.0, dt=0.25, eps_jump=0.5, n_paths=1, seed=1)
        with pytest.raises(UnsupportedModel):
            simulate_under_q(gk, t, exponential_kernel(1.0), cfg, 0)

    def test_eps_jump_bound(self):
        t, gk, _ = self._setup()
        cfg = SimConfig(T=1.0, M=0.0, dt=0.25, eps_jump=0.5, n_paths=1, seed=1)
        cfg = SimConfig(T=1.0, M=0.0, dt=0.25, eps_jump=0.6,  # > a would hide jumps
                        n_paths=1, seed=1)
        # eps_jump > truncation radius is already rejected upstream
        with pytest.raises(Exception):
            simulate_under_q(gk, t, exponential_kernel(1.0), cfg, 0)

    def test_constant_kernel_gives_uniform_marks(self):
        # constant kernel: Y = 0 and zeta = 0, so marks keep the P-law
        t, gk, cfg = self._setup()
        k = constant_kernel(1.0)
        sizes, counts = [], []
        from levyemm.path_sim import PathSimulator

        sim = PathSimulator(t, cfg)
        for i in range(300):
            rec = simulate_under_q(gk, t, k, cfg, i, sim=sim)
            sizes.extend(rec.jump_sizes)
            counts.append(rec.n_tail_jumps)
            np.testing.assert_allclose(rec.y_pre, 0.0, atol=1e-12)
        sizes = np.asarray(sizes)
        p_hat = np.mean(sizes > 0)
        assert abs(p_hat - 0.5) < 4 * math.sqrt(0.25 / len(sizes))
        lam_t = gk.lam * cfg.T
        assert abs(np.mean(counts) - lam_t) < 4 * math.sqrt(lam_t / len(counts))

    def test_marks_reproduce_reweighted_choice(self):
        # the Q-law quantile at one uniform draws what rng.choice draws from
        # the atoms reweighted by alpha, and leaves the stream where it does
        F = DiscreteMeasure([(-2.0, 0.3), (-1.0, 1.0), (0.7, 0.8), (1.5, 0.6),
                             (3.0, 0.1)])
        gk = make_h2_kernel(LevyTriplet(0.0, F, 0.0, indicator_inside(0.5)), 0.5)
        x, w = gk.tail.x, gk.tail.w
        ys = np.random.default_rng(0).uniform(-1.0, 1.0, 2000)
        for seed, y in enumerate(ys):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            p = w * gk.evaluate(y, x)
            assert gk.mark_quantile(y, a.random()) == b.choice(x, p=p / p.sum())
            assert a.random() == b.random()

    def test_reproducible(self):
        t, gk, cfg = self._setup()
        k = exponential_kernel(1.0)
        a = simulate_under_q(gk, t, k, cfg, 3)
        b = simulate_under_q(gk, t, k, cfg, 3)
        assert np.array_equal(a.jump_times, b.jump_times)
        assert np.array_equal(a.jump_sizes, b.jump_sizes)
