import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from levyemm import levy_model
from levyemm.errors import InvalidRegion, NonIntegrable, UnsupportedModel
from levyemm.levy_model import (
    DensityMeasure,
    DiscreteMeasure,
    DiscreteTailLaw,
    Interval,
    LevyTriplet,
    ZeroMeasure,
    _MASS_FLOOR,
    ball_complement,
    band_masses,
    first_abs_moment_tail,
    gaussian_only,
    indicator_inside,
    indicator_outside_band,
    levy_integrate,
    retriplet,
    symmetric_alpha_stable,
    tail_law,
    tail_mass,
    tempered_stable,
    uniform_band,
)

EXACT = 1e-12


class TestLevyIntegrate:
    def test_discrete_atom_sum(self):
        F = DiscreteMeasure([(-1.0, 1.0), (2.0, 2.0)])
        assert levy_integrate(F, 1.0, ball_complement(0.5)) == pytest.approx(3.0, abs=EXACT)

    def test_zero_measure(self):
        assert levy_integrate(gaussian_only(), lambda x: x**4) == 0.0

    def test_stable_x_squared_near_zero(self):
        # int_{[-1,1]} x^2 |x|^{-2.5} dx = 2 / (2 - 1.5) = 4
        F = symmetric_alpha_stable(1.5, scale=1.0)
        val = levy_integrate(
            F, lambda x: x * x, [Interval(-1.0, 1.0)], g_quadratic_near_zero=True
        )
        assert val == pytest.approx(4.0, rel=1e-6)

    def test_region_touching_zero_without_flag_raises(self):
        F = symmetric_alpha_stable(1.5)
        with pytest.raises(InvalidRegion):
            levy_integrate(F, lambda x: np.abs(x), [Interval(-1.0, 1.0)])

    def test_nonintegrable_raises(self):
        F = symmetric_alpha_stable(0.8)
        with pytest.raises(NonIntegrable):
            levy_integrate(F, lambda x: np.abs(x), ball_complement(1.0))

    @given(
        a1=st.floats(-5, 5), a2=st.floats(-5, 5),
        w1=st.floats(0.1, 3), w2=st.floats(0.1, 3),
        c1=st.floats(-2, 2), c2=st.floats(-2, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity_on_discrete(self, a1, a2, w1, w2, c1, c2):
        F = DiscreteMeasure([(1.0, w1), (-2.0, w2)])
        g1 = lambda x: a1 * x  # noqa: E731
        g2 = lambda x: a2 * x * x  # noqa: E731
        combined = levy_integrate(F, lambda x: c1 * g1(x) + c2 * g2(x))
        split = c1 * levy_integrate(F, g1) + c2 * levy_integrate(F, g2)
        assert combined == pytest.approx(split, abs=1e-9, rel=1e-9)

    def test_additive_over_disjoint_regions(self):
        F = DiscreteMeasure([(-1.0, 1.0), (1.0, 2.0), (3.0, 0.5)])
        whole = levy_integrate(F, lambda x: x, ball_complement(0.5))
        parts = levy_integrate(F, lambda x: x, [Interval(0.5, 2.0, True, True)]) + \
            levy_integrate(F, lambda x: x, [Interval(2.0, math.inf)]) + \
            levy_integrate(F, lambda x: x, [Interval(-math.inf, -0.5, open_hi=True)])
        assert whole == pytest.approx(parts, abs=EXACT)


class TestMasses:
    def test_tail_mass_atoms(self):
        F = DiscreteMeasure([(-1.0, 1.0), (2.0, 2.0)])
        assert tail_mass(F, 0.5) == pytest.approx(3.0, abs=EXACT)

    def test_tail_mass_zero_measure(self):
        assert tail_mass(gaussian_only(), 1.0) == 0.0

    def test_tail_mass_tempered_stable_quadrature_vs_riemann(self):
        F = tempered_stable(eta=1.0, lam=1.0, alpha=1.2)
        quad_val = tail_mass(F, 1.0)
        # coarse Riemann oracle on |x| in [1, 60]
        xs = np.linspace(1.0, 60.0, 400_001)
        riemann = 2.0 * np.trapezoid(F.density(xs), xs)
        assert quad_val == pytest.approx(riemann, abs=1e-6)

    def test_band_masses_two_sided(self):
        F = DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)])
        assert band_masses(F, 0.5, 2.0) == (1.0, 1.0)

    def test_band_masses_one_sided_predicate_fails(self):
        F = DiscreteMeasure([(1.0, 1.0)])
        neg, pos = band_masses(F, 0.5, 2.0)
        assert (neg, pos) == (0.0, 1.0)
        assert min(neg, pos) == 0.0

    def test_band_masses_symmetric_density(self):
        F = symmetric_alpha_stable(1.5)
        neg, pos = band_masses(F, 1.0, 2.0)
        assert neg == pytest.approx(pos, abs=1e-9)

    def test_band_masses_monotone_in_width(self):
        F = symmetric_alpha_stable(1.5)
        n1, p1 = band_masses(F, 1.0, 2.0)
        n2, p2 = band_masses(F, 1.0, 4.0)
        assert n2 >= n1 and p2 >= p1


class TestFirstAbsMomentTail:
    def test_discrete_atom_sum(self):
        # |x| > 1 is open: the atom at 1 stays out
        F = DiscreteMeasure([(-3.0, 0.5), (-0.5, 2.0), (1.0, 1.5), (2.5, 0.2)])
        assert first_abs_moment_tail(F, 1.0) == 3.0 * 0.5 + 2.5 * 0.2

    def test_stable_closed_form(self):
        alpha, scale, r = 1.5, 2.0, 0.8
        exact = 2.0 * scale * r ** (1.0 - alpha) / (alpha - 1.0)
        got = first_abs_moment_tail(symmetric_alpha_stable(alpha, scale), r)
        assert got == pytest.approx(exact, rel=1e-8)

    def test_declared_non_integrable_is_inf(self):
        assert first_abs_moment_tail(symmetric_alpha_stable(0.9)) == math.inf

    def test_undeclared_tail_raises(self):
        F = DensityMeasure(lambda x: np.exp(-np.abs(x)), tail_integrable=None)
        with pytest.raises(NonIntegrable, match="declared"):
            first_abs_moment_tail(F)


class TestTailLawQuantile:
    def test_discrete_sample_is_choice(self):
        F = DiscreteMeasure([(-2.0, 0.3), (-1.0, 1.1), (1.0, 0.7), (3.0, 0.2)])
        law = tail_law(F, ball_complement(0.5))
        for seed in range(20):
            got = law.sample(500, np.random.default_rng(seed))
            want = np.random.default_rng(seed).choice(law.x, size=500, p=law.p)
            np.testing.assert_array_equal(got, want)

    def test_tempered_stable_sample_is_the_inverse_of_its_mass(self):
        """Each mark x of u leaves twice min(u, 1 - u) of one side's mass
        above |x|, on u's side of 0, by quadrature and a root search."""
        F = tempered_stable(1.0, 1.0, 1.5)
        law = tail_law(F, ball_complement(0.5))

        def upper(m):
            return scipy.integrate.quad(F.density, m, math.inf, epsabs=0.0,
                                        epsrel=1e-13, limit=200)[0]

        side = upper(0.5)
        for seed in range(5):
            got = law.sample(500, np.random.default_rng(seed))
            u = np.random.default_rng(seed).uniform(size=500)
            np.testing.assert_array_equal(got, law.quantile(u))
            for x, v in zip(got[:4], u[:4]):
                share = 2.0 * min(v, 1.0 - v)
                want = scipy.optimize.brentq(
                    lambda m: math.log(upper(m) / side / share), 0.5, 60.0,
                    xtol=1e-14, rtol=1e-14)
                assert abs(x) == pytest.approx(want, rel=1e-12)
                assert (x < 0.0) == (v < 0.5)

    @pytest.mark.parametrize("w", [
        [0.7], [1.0, 1.0], [0.3, 1.1, 0.7, 0.2, 0.05, 2.0, 0.4], [0.1] * 10,
        np.linspace(0.1, 2.0, 100)],
        ids=["1", "2", "7", "ten-of-0.1", "100"])
    def test_discrete_quantile_is_the_search(self, w):
        """The boundary count equals searchsorted at the atom boundaries,
        the doubles just below them, 0 and 1 (mark_quantile's clip can pass
        1.0); a NaN u gives the last atom, as the search does."""
        w = np.asarray(w, dtype=float)
        law = DiscreteTailLaw(np.arange(len(w), dtype=float) - 2.0, w)
        if len(w) == 10:
            # the renormalised cdf is not k / 10 to the bit
            assert not np.array_equal(law._cdf, np.arange(1, 11) / 10)

        def search(u):
            i = np.searchsorted(law._cdf, u, side="right")
            return law.x[np.minimum(i, len(law.x) - 1)]

        u = np.concatenate([[0.0, np.nextafter(1.0, 0.0), 1.0], law._cdf,
                            np.nextafter(law._cdf, -np.inf),
                            np.random.default_rng(4).random(200)])
        got = law.quantile(u)
        assert np.array_equal(got, search(u))
        assert np.array_equal(law.quantile(u[:, None]), got[:, None])
        for v, want in zip(u, got):
            q = law.quantile(v)
            assert np.ndim(q) == 0 and q == want
        assert law.quantile(1.0) == law.x[-1] == law.quantile(math.nan)
        assert search(math.nan) == law.x[-1]
        assert np.array_equal(law.quantile(np.array([math.nan, 0.0])),
                              [law.x[-1], search(0.0)])

    @pytest.mark.parametrize("F", [symmetric_alpha_stable(1.5, 2.0),
                                   uniform_band(0.5, 2.0),
                                   tempered_stable(1.0, 1.0, 1.5)],
                             ids=["stable", "uniform-band", "tempered-stable"])
    def test_quantile_inverts_mass_below(self, F):
        law = tail_law(F, ball_complement(0.75))
        u = np.linspace(0.001, 0.999, 99)
        np.testing.assert_allclose(law.mass_below(law.quantile(u)), u,
                                   atol=1e-12)

    @pytest.mark.parametrize("F", [
        DiscreteMeasure([(-2.0, 0.3), (-1.0, 1.1), (1.0, 0.7), (3.0, 0.2)]),
        symmetric_alpha_stable(1.5), uniform_band(0.5, 2.0),
        tempered_stable(1.0, 1.0, 1.5)],
        ids=["discrete", "stable", "uniform-band", "tempered-stable"])
    def test_array_queries_match_scalar(self, F):
        law = tail_law(F, ball_complement(0.75))
        z = np.array([-3.0, -1.0, -0.8, 0.0, 0.9, 1.0, 2.5])
        for query in (law.mass_below, law.partial_mean_below):
            np.testing.assert_array_equal(query(z), [query(v) for v in z])
        np.testing.assert_array_equal(law.quantile(np.array([0.1, 0.6])),
                                      [law.quantile(0.1), law.quantile(0.6)])

    @pytest.mark.parametrize("F", [
        DiscreteMeasure([(-2.0, 0.3), (-1.0, 1.1), (1.0, 0.7), (3.0, 0.2)]),
        symmetric_alpha_stable(1.5), uniform_band(0.5, 2.0),
        tempered_stable(1.0, 1.0, 1.5)],
        ids=["discrete", "stable", "uniform-band", "tempered-stable"])
    def test_quantile_into_out_is_the_quantile(self, F):
        law = tail_law(F, ball_complement(0.75))
        u = np.random.default_rng(9).random(50)
        out = np.full(50, np.nan)
        assert law.quantile(u, out=out) is out
        assert np.array_equal(out, law.quantile(u))


# Gamma(-3/2, z) and Gamma(-1/2, z) to 21 digits: 2 e^{-z} / sqrt(z) -
# 2 sqrt(pi) erfc(sqrt(z)) for -1/2 and (2/3) (e^{-z} z^{-3/2} - Gamma(-1/2,
# z)) for -3/2, summed at 260 digits with Python's decimal module
_UPPER_GAMMA = {
    20.0: (1.02891356411881301818e-12, 2.15010277130345362347e-11),
    25.0: (4.05271428456715570390e-15, 1.05024479492861431201e-13),
    40.0: (3.95656435093609775688e-22, 1.61996100398469149833e-20),
    100.0: (3.63019023396182811559e-49, 3.66562312251140854123e-47),
}


@pytest.mark.parametrize("z", sorted(_UPPER_GAMMA))
def test_upper_gamma_holds_a_few_ulps_at_large_z(z):
    for s, want in zip((-1.5, -0.5), _UPPER_GAMMA[z]):
        assert levy_model._upper_gamma(s, z) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 0.9999, 1.9, 1.9999])
def test_upper_gamma_branches_agree_at_the_switch(alpha):
    z = np.array([levy_model._FRACTION_FROM])
    for s in (-alpha, 1.0 - alpha):
        fraction = levy_model._gamma_fraction(s, z)[0]
        assert fraction == pytest.approx(levy_model._gamma_recurrence(s, z)[0],
                                         rel=1e-13, abs=0.0)
        assert levy_model._upper_gamma(s, z) == fraction


@pytest.mark.parametrize("s", [-1e-4, -1e-6, -1e-8])
def test_upper_gamma_just_below_0_matches_quadrature(s):
    """s just below 0 puts the recurrence's top near 1, where its step
    divided by s and lost eps / |s|: 3.6e-7 relative at s = -1e-8."""
    for z in (0.5, 2.0):
        want = scipy.integrate.quad(lambda t: t ** (s - 1.0) * math.exp(-t), z,
                                    math.inf, epsabs=0.0, epsrel=1e-13,
                                    limit=200)[0]
        assert levy_model._upper_gamma(s, z) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_upper_gamma_keeps_the_shape_of_z():
    z = np.array([[0.5, 3.0], [10.0, math.inf]])
    got = levy_model._upper_gamma(-1.5, z)
    assert got.shape == z.shape and got[1, 1] == 0.0
    assert got[0, 0] == levy_model._upper_gamma(-1.5, 0.5)
    assert np.ndim(levy_model._upper_gamma(-1.5, 0.5)) == 0


def _quad_beyond(F, g, m):
    """int_m^inf g(x) F(dx) by quadrature at epsrel 1e-13."""
    return scipy.integrate.quad(lambda x: g(x) * F.density(x), m, math.inf,
                                epsabs=0.0, epsrel=1e-13, limit=200)[0]


class TestClosedFormTails:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 0.9999, 1.9999, 1.0001,
                                       1.0 + 1e-8])
    def test_tempered_stable_matches_quadrature(self, alpha):
        """rate, mass_below and partial_mean_below at every z where one
        side keeps a conditional mass of at least _MASS_FLOOR; alpha = 1
        takes exp1, alpha just below 1 or 2 puts gammaincc's order near 0,
        and alpha just above 1 puts the recurrence's top near 1 for both
        the mass and the first moment."""
        self._check_tempered_stable(alpha, 0.5)

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_tempered_stable_far_tail_matches_quadrature(self, alpha):
        """From r = 3 on, every Gamma(s, z) is the continued fraction's:
        the recurrence's two steps down missed quadrature by 1.4e-12."""
        self._check_tempered_stable(alpha, 3.0)

    @staticmethod
    def _check_tempered_stable(alpha, r):
        F = tempered_stable(1.0, 1.0, alpha)
        law = tail_law(F, ball_complement(r))
        rate = 2.0 * _quad_beyond(F, np.ones_like, r)
        assert law.rate == pytest.approx(rate, rel=1e-12, abs=0.0)
        assert law.mass_below(law.zeta_lo) == pytest.approx(_MASS_FLOOR, rel=1e-9)
        for z in [-r, r, *np.linspace(law.zeta_lo, law.zeta_hi, 41)]:
            m = max(abs(z), r)
            share = _quad_beyond(F, np.ones_like, m) / rate
            assert law.mass_below(z) == pytest.approx(
                share if z < 0.0 else 1.0 - share, rel=1e-12, abs=0.0)
            assert law.partial_mean_below(z) == pytest.approx(
                -_quad_beyond(F, lambda x: x, m) / rate, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("r", [0.25, 1.0, 2.0, 2.5],
                             ids=["below", "inside", "at-the-edge", "beyond"])
    def test_uniform_band_matches_its_integrals(self, r):
        F = uniform_band(0.5, 2.0, 0.3)
        law = tail_law(F, ball_complement(r))
        if r >= 2.0:
            assert law is None
            return
        assert law.rate == pytest.approx(tail_mass(F, r), rel=1e-12)
        for z in (-1.9, -1.2, -0.4, 0.0, 0.7, 1.5, 2.5):
            m = max(abs(z), r)
            share = levy_integrate(F, 1.0, [Interval(m, math.inf)]) / law.rate
            first = levy_integrate(F, lambda x: x, [Interval(m, math.inf)])
            assert law.mass_below(z) == pytest.approx(
                share if z < 0.0 else 1.0 - share, rel=1e-12, abs=1e-15)
            assert law.partial_mean_below(z) == pytest.approx(
                -first / law.rate, rel=1e-12, abs=1e-15)

    def test_density_without_closed_forms_is_refused(self):
        F = DensityMeasure(lambda x: np.exp(-np.abs(x)), tail_integrable=True)
        with pytest.raises(UnsupportedModel, match="closed-form"):
            tail_law(F, ball_complement(1.0))


class TestDriftXi:
    def test_atom_inside_truncation(self):
        t = LevyTriplet(0.0, DiscreteMeasure([(1.0, 1.0)]), 0.0, indicator_inside(1.0))
        assert t.xi() == pytest.approx(0.0, abs=EXACT)

    def test_atom_outside_truncation(self):
        t = LevyTriplet(0.0, DiscreteMeasure([(2.0, 1.0)]), 0.0, indicator_inside(1.0))
        assert t.xi() == pytest.approx(2.0, abs=EXACT)

    def test_outside_band_truncation(self):
        t = LevyTriplet(
            0.0, DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)]), 3.0,
            indicator_outside_band(0.5, 2.0),
        )
        assert t.xi() == pytest.approx(3.0, abs=EXACT)

    def test_symmetric_F_gives_xi_equals_bh(self):
        t = LevyTriplet(
            0.0, DiscreteMeasure([(-2.0, 0.7), (2.0, 0.7)]), 1.25,
            indicator_inside(1.0),
        )
        assert t.xi() == pytest.approx(1.25, abs=EXACT)

    def test_nonintegrable_flag_enforced(self):
        with pytest.raises(NonIntegrable):
            LevyTriplet(0.0, symmetric_alpha_stable(0.9), 0.0,
                        indicator_inside(1.0), integrable=True)

    def test_xi_requires_integrable_flag(self):
        t = LevyTriplet(0.0, symmetric_alpha_stable(0.9), 0.0,
                        indicator_inside(1.0), integrable=False)
        with pytest.raises(NonIntegrable):
            t.xi()


class TestRetriplet:
    def test_identity(self):
        h = indicator_inside(1.0)
        t = LevyTriplet(0.5, DiscreteMeasure([(2.0, 1.0)]), 0.25, h)
        t2 = retriplet(t, h)
        assert t2.b_h == pytest.approx(t.b_h, abs=EXACT)

    def test_widening_truncation(self):
        t = LevyTriplet(0.0, DiscreteMeasure([(2.0, 1.0)]), 0.0, indicator_inside(1.0))
        t2 = retriplet(t, indicator_inside(3.0))
        assert t2.b_h == pytest.approx(2.0, abs=EXACT)

    def test_round_trip_exact(self):
        t = LevyTriplet(
            0.0, DiscreteMeasure([(-3.0, 0.3), (0.7, 1.1), (2.0, 1.0)]),
            -0.4, indicator_inside(1.0),
        )
        back = retriplet(retriplet(t, indicator_inside(2.5)), indicator_inside(1.0))
        assert back.b_h == pytest.approx(t.b_h, abs=EXACT)

    @given(st.floats(0.3, 4.0), st.floats(0.3, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_xi_invariant(self, a_old, a_new):
        t = LevyTriplet(
            0.0, DiscreteMeasure([(-3.0, 0.3), (0.7, 1.1), (2.0, 1.0)]),
            -0.4, indicator_inside(a_old),
        )
        t2 = retriplet(t, indicator_inside(a_new))
        assert t2.xi() == pytest.approx(t.xi(), abs=1e-10)


class TestTypesAndProbes:
    def test_truncation_values(self):
        h_in = indicator_inside(1.0)
        assert h_in(0.5) == 0.5 and h_in(1.5) == 0.0
        h_band = indicator_outside_band(0.5, 2.0)
        np.testing.assert_allclose(
            h_band(np.array([0.3, 1.0, -1.0, 3.0])), [0.3, 0.0, 0.0, 3.0]
        )

    def test_outside_band_needs_integrable(self):
        with pytest.raises(ValueError):
            LevyTriplet(0.0, DiscreteMeasure([(1.0, 1.0)]), 0.0,
                        indicator_outside_band(0.5, 2.0), integrable=False)

    def test_support_descriptors(self):
        assert DiscreteMeasure([(1.0, 1.0)]).support_descriptor == "one-sided-positive"
        assert DiscreteMeasure([(-1.0, 1.0)]).support_descriptor == "one-sided-negative"
        assert DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)]).support_descriptor == "compact"
        assert symmetric_alpha_stable(1.5).support_descriptor == "unbounded-both"
        assert uniform_band(1.0, 2.0).support_descriptor == "compact"
        assert ZeroMeasure().support_descriptor == "empty"

    @pytest.mark.parametrize("height", [0.0, -1.0])
    def test_uniform_band_needs_positive_height(self, height):
        with pytest.raises(ValueError, match="height"):
            uniform_band(0.25, 2.0, height)

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([(0.0, 1.0)])
        with pytest.raises(ValueError):
            DiscreteMeasure([(1.0, -1.0)])

    @pytest.mark.parametrize("atom", [(math.nan, 1.0), (1.0, math.nan),
                                      (math.inf, 1.0), (-math.inf, 1.0),
                                      (1.0, math.inf)])
    def test_non_finite_atoms_refused(self, atom):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure([(-1.0, 1.0), atom])
