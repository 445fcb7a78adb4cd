import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyemm.emm_construct import (
    GirsanovKernelH2,
    f_zeta,
    lambda_of_zeta,
    make_h1_kernel,
    make_h2_kernel,
    sigma_pm,
    validate_girsanov_kernel,
)
from levyemm.errors import TruncationViolated, UnsupportedModel, ZetaOutOfRange
from levyemm.levy_model import (
    DiscreteMeasure,
    DiscreteTailLaw,
    LevyTriplet,
    ball_complement,
    indicator_inside,
    symmetric_alpha_stable,
    tail_law,
    uniform_band,
)


def _triplet(F, b=0.0, a_trunc=1.0, c=0.0):
    return LevyTriplet(c, F, b, indicator_inside(a_trunc))


class TestSigmaPm:
    def test_discrete_band_moments(self):
        F = DiscreteMeasure([(-1.5, 2.0), (1.0, 0.0001), (1.2, 3.0), (5.0, 1.0)])
        s_plus, s_minus = sigma_pm(F, 1.1, 2.0)
        assert s_plus == pytest.approx(1.44 * 3.0, abs=1e-12)
        assert s_minus == pytest.approx(2.25 * 2.0, abs=1e-12)

    def test_one_sided_band_rejected(self):
        F = DiscreteMeasure([(1.2, 1.0)])
        with pytest.raises(TruncationViolated):
            sigma_pm(F, 1.0, 2.0)

    def test_symmetric_density(self):
        F = symmetric_alpha_stable(1.5)
        s_plus, s_minus = sigma_pm(F, 1.0, 2.0)
        assert s_plus == pytest.approx(s_minus, rel=1e-9)
        # int_1^2 x^2 x^{-2.5} dx = 2(sqrt(2) - 1)
        assert s_plus == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-9)


class TestH1Kernel:
    def _sym(self):
        F = DiscreteMeasure([(-1.5, 1.0), (1.5, 1.0)])
        return make_h1_kernel(_triplet(F), 1.0, 2.0)

    def test_alpha_is_one_outside_band(self):
        k = self._sym()
        vals = k.evaluate(3.0, np.array([0.5, -0.5, 2.5, -2.5]))
        np.testing.assert_allclose(vals, 1.0, atol=0)

    def test_alpha_at_least_one_on_raised_side(self):
        k = self._sym()
        for y in (-4.0, -1.0, 0.0, 1.0, 4.0):
            vals = k.evaluate(y, np.linspace(-1.99, 1.99, 101))
            assert np.min(vals) >= 1.0 - 1e-12

    def test_only_one_side_raised(self):
        k = self._sym()
        # y + xi > 0: negative side raised, positive side untouched
        vals_pos = k.evaluate(2.0, np.array([1.5]))
        vals_neg = k.evaluate(2.0, np.array([-1.5]))
        assert vals_pos[0] == 1.0
        assert vals_neg[0] > 1.0

    def test_drift_identity_discrete(self):
        F = DiscreteMeasure([(-1.5, 1.0), (1.5, 1.0), (3.0, 0.5)])
        t = _triplet(F, b=0.2)
        k = make_h1_kernel(t, 1.0, 2.0)
        res = validate_girsanov_kernel(k, t, np.linspace(-5, 5, 21))
        assert res["ok"], res
        assert res["max_drift_violation"] < 1e-12

    def test_drift_identity_stable_density(self):
        F = symmetric_alpha_stable(1.5)
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0), integrable=True)
        k = make_h1_kernel(t, 1.0, 2.0)
        res = validate_girsanov_kernel(k, t, np.linspace(-2, 2, 9))
        assert res["ok"], res
        assert res["max_drift_violation"] < 1e-6

    def test_excess_rate_is_band_integral(self):
        # int (alpha(y, x) - 1) F(dx) on an asymmetric measure, both signs
        F = DiscreteMeasure([(-1.5, 2.0), (1.2, 3.0), (1.8, 0.5), (3.0, 0.5)])
        k = make_h1_kernel(_triplet(F, b=0.2), 1.0, 2.0)
        ys = np.array([-3.0, -0.4, 0.0, 0.7, 2.5])
        exact = [float(np.sum((k.evaluate(y, F.x) - 1.0) * F.w)) for y in ys]
        np.testing.assert_allclose(k.excess_rate(ys), exact, atol=1e-12)
        assert make_h2_kernel(_triplet(F), 1.0).excess_rate is None

    def test_xi_requires_integrable_tail(self):
        # h1 needs xi; a non-integrable tail cannot supply it
        from levyemm.errors import NonIntegrable

        F = symmetric_alpha_stable(0.9)
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0), integrable=False)
        with pytest.raises(NonIntegrable):
            make_h1_kernel(t, 1.0, 2.0)


class TestTailLaw:
    def test_discrete_queries(self):
        law = DiscreteTailLaw(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
        assert law.mean == 0.0
        assert law.mass_below(0.0) == 0.5
        assert law.partial_mean_below(0.0) == -0.5
        assert law.mass_below(-1.0) == 0.0  # strict: P(X < -1)
        assert law.mass_below(1.5) == 1.0

    def test_one_sided_tail_rejected(self):
        F = DiscreteMeasure([(1.0, 1.0), (0.2, 5.0)])
        with pytest.raises(TruncationViolated):
            make_h2_kernel(_triplet(F), 0.5)

    def test_grid_law_matches_uniform_band(self):
        F = uniform_band(1.0, 2.0, 0.3)
        law = tail_law(F, ball_complement(1.0))
        assert law.mean == pytest.approx(0.0, abs=1e-9)
        assert law.mass_below(0.0) == pytest.approx(0.5, abs=1e-6)
        # E[X 1_{X<0}] = -0.3 * (2^2-1)/2 normalized by mass 0.6
        assert law.partial_mean_below(0.0) == pytest.approx(-0.45 / 0.6, rel=2e-3)


class TestLambdaOfZeta:
    def _law(self):
        return DiscreteTailLaw(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))

    def test_symmetric_midpoint(self):
        assert lambda_of_zeta(self._law(), 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_out_of_range(self):
        with pytest.raises(ZetaOutOfRange):
            lambda_of_zeta(self._law(), -1.0)
        with pytest.raises(ZetaOutOfRange):
            lambda_of_zeta(self._law(), 1.5)

    @given(st.floats(-0.99, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_in_unit_interval(self, zeta):
        law = self._law()
        lam = lambda_of_zeta(law, zeta)
        assert 0.0 < lam < 1.0
        # exact for two symmetric atoms: lam = (zeta + 1) / 2
        assert lam == pytest.approx((zeta + 1.0) / 2.0, abs=1e-12)

    def test_f_zeta_mean_and_mass(self):
        law = self._law()
        for zeta in (-0.5, 0.0, 0.7):
            dens = f_zeta(law, zeta, law.x)
            assert float(np.sum(dens * law.p)) == pytest.approx(1.0, abs=1e-12)
            assert float(np.sum(law.x * dens * law.p)) == pytest.approx(zeta, abs=1e-12)


class TestH2Kernel:
    def _two_atom(self):
        F = DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)])
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(0.5))
        return t, make_h2_kernel(t, 0.5)

    def test_parameters(self):
        t, k = self._two_atom()
        assert k.lam == pytest.approx(2.0, abs=1e-12)
        assert k.b_h == pytest.approx(0.0, abs=1e-12)

    def test_zeta_map(self):
        _, k = self._two_atom()
        assert k.zeta(-1.0) == pytest.approx(0.5, abs=1e-12)

    def test_alpha_inside_ball_is_one(self):
        _, k = self._two_atom()
        assert k.evaluate(0.3, 0.25) == 1.0

    def test_mass_and_drift_identities(self):
        t, k = self._two_atom()
        res = validate_girsanov_kernel(k, t, np.linspace(-1.9, 1.9, 25))
        assert res["ok"], res
        assert res["max_drift_violation"] < 1e-12
        assert res["max_mass_violation"] < 1e-12

    def test_zeta_out_of_range_collected(self):
        t, k = self._two_atom()
        # zeta(y) = -y/2 must stay in (-1, 1): y = 3 violates
        res = validate_girsanov_kernel(k, t, [0.0, 3.0])
        assert not res["ok"]
        assert len(res["failures"]) == 1
        assert res["failures"][0]["y"] == 3.0

    def test_stable_density_identities(self):
        F = symmetric_alpha_stable(1.5)
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0), integrable=False)
        k = make_h2_kernel(t, 1.0)
        res = validate_girsanov_kernel(k, t, np.linspace(-1.0, 1.0, 9),
                                       abs_tol=1e-4)
        assert res["ok"], res
        assert res["max_drift_violation"] < 1e-4
        assert res["max_mass_violation"] < 1e-4

    def test_stable_closed_form_drift_identity(self):
        F = symmetric_alpha_stable(1.5)
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0), integrable=False)
        k = make_h2_kernel(t, 1.0)
        res = validate_girsanov_kernel(k, t, np.linspace(-1.0, 1.0, 9))
        assert res["max_drift_violation"] < 1e-9
        assert res["max_mass_violation"] < 1e-9

    def test_stable_without_first_moment_refused(self):
        F = symmetric_alpha_stable(0.9)
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0), integrable=False)
        with pytest.raises(UnsupportedModel):
            make_h2_kernel(t, 1.0)

    def test_uniform_band_tail_below_the_band(self):
        # the first doubling [a, 2a] = [0.25, 0.5] holds no mass
        t = _triplet(uniform_band(0.5, 2.0))
        k = make_h2_kernel(t, 0.25)
        assert k.tail.rate == pytest.approx(3.0, rel=1e-12)
        res = validate_girsanov_kernel(k, t, np.linspace(-0.5, 0.5, 9))
        assert res["ok"], res
        assert res["max_drift_violation"] < 1e-12

    def test_uniform_band_grid_mass_exact(self):
        # a breakpoint (b = 2) falls inside a doubling of a = 0.75
        k = make_h2_kernel(_triplet(uniform_band(0.5, 2.0)), 0.75)
        assert k.lam == pytest.approx(2.5, rel=1e-12)
        assert k.tail.rate == pytest.approx(2.5, rel=1e-12)
        assert k.tail.partial_mean_below(0.0) == pytest.approx(
            -(2.0**2 - 0.75**2) / 2.0 / 2.5, rel=1e-12)

    def test_no_tail_mass_rejected(self):
        F = DiscreteMeasure([(0.2, 1.0), (-0.2, 1.0)])
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(1.0))
        with pytest.raises(TruncationViolated):
            make_h2_kernel(t, 1.0)

    def test_asymmetric_zero_target_still_reweights(self):
        # tail mean != 0, so hitting zeta = 0 needs a nontrivial alpha
        F = DiscreteMeasure([(-1.0, 1.0), (2.0, 1.0)])
        t = LevyTriplet(0.0, F, 0.0, indicator_inside(0.5))
        k = make_h2_kernel(t, 0.5)
        vals = k.evaluate(-k.b_h, np.array([-1.0, 2.0]))
        assert not np.allclose(vals, 1.0)
        drift = float(np.sum(np.array([-1.0, 2.0]) * vals))
        assert drift == pytest.approx(0.0, abs=1e-12)
