import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyemm.errors import InvalidRegion, NonIntegrable
from levyemm.levy_model import (
    DensityMeasure,
    DiscreteMeasure,
    Interval,
    LevyTriplet,
    ZeroMeasure,
    ball_complement,
    band_masses,
    drift_xi,
    first_abs_moment_tail,
    gaussian_only,
    indicator_inside,
    indicator_outside_band,
    levy_integrate,
    retriplet,
    support_probe,
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

    def test_grid_sample_is_interpolated_inverse(self):
        law = tail_law(tempered_stable(1.0, 1.0, 1.5), ball_complement(0.5))
        for seed in range(5):
            got = law.sample(500, np.random.default_rng(seed))
            u = np.random.default_rng(seed).uniform(size=500)
            np.testing.assert_array_equal(got, np.interp(u, law.cum_p, law.x))

    @pytest.mark.parametrize("F", [symmetric_alpha_stable(1.5, 2.0),
                                   uniform_band(0.5, 2.0)],
                             ids=["stable", "grid"])
    def test_quantile_inverts_mass_below(self, F):
        law = tail_law(F, ball_complement(0.75))
        u = np.linspace(0.001, 0.999, 99)
        np.testing.assert_allclose(law.mass_below(law.quantile(u)), u,
                                   atol=1e-12)

    @pytest.mark.parametrize("F", [
        DiscreteMeasure([(-2.0, 0.3), (-1.0, 1.1), (1.0, 0.7), (3.0, 0.2)]),
        symmetric_alpha_stable(1.5), uniform_band(0.5, 2.0)],
        ids=["discrete", "stable", "grid"])
    def test_array_queries_match_scalar(self, F):
        law = tail_law(F, ball_complement(0.75))
        z = np.array([-3.0, -1.0, -0.8, 0.0, 0.9, 1.0, 2.5])
        for query in (law.mass_below, law.partial_mean_below):
            np.testing.assert_array_equal(query(z), [query(v) for v in z])
        np.testing.assert_array_equal(law.quantile(np.array([0.1, 0.6])),
                                      [law.quantile(0.1), law.quantile(0.6)])


class TestDriftXi:
    def test_atom_inside_truncation(self):
        t = LevyTriplet(0.0, DiscreteMeasure([(1.0, 1.0)]), 0.0, indicator_inside(1.0))
        assert drift_xi(t) == pytest.approx(0.0, abs=EXACT)

    def test_atom_outside_truncation(self):
        t = LevyTriplet(0.0, DiscreteMeasure([(2.0, 1.0)]), 0.0, indicator_inside(1.0))
        assert drift_xi(t) == pytest.approx(2.0, abs=EXACT)

    def test_outside_band_truncation(self):
        t = LevyTriplet(
            0.0, DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)]), 3.0,
            indicator_outside_band(0.5, 2.0),
        )
        assert drift_xi(t) == pytest.approx(3.0, abs=EXACT)

    def test_symmetric_F_gives_xi_equals_bh(self):
        t = LevyTriplet(
            0.0, DiscreteMeasure([(-2.0, 0.7), (2.0, 0.7)]), 1.25,
            indicator_inside(1.0),
        )
        assert drift_xi(t) == pytest.approx(1.25, abs=EXACT)

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

    def test_support_probe_consistency(self):
        probe = support_probe(uniform_band(1.0, 2.0), K=2.0)
        assert probe["beyond_K"] == pytest.approx(0.0, abs=1e-9)
        probe2 = support_probe(symmetric_alpha_stable(1.5), K=2.0)
        assert probe2["beyond_2K"] > 0.0

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure([(0.0, 1.0)])
        with pytest.raises(ValueError):
            DiscreteMeasure([(1.0, -1.0)])
