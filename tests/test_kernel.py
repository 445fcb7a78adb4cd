import dataclasses
import math

import numpy as np
import pytest

from levyemm.errors import MissingDensity
from levyemm.kernel import (
    Kernel,
    absolute_continuity_witness,
    constant_kernel,
    custom_kernel,
    density_condition,
    emm_classify,
    exponential_kernel,
    integrate_halfline,
    lp_norm,
    power_density_kernel,
    power_kernel,
    zero_start_kernel,
)
from levyemm.levy_model import (
    DiscreteMeasure,
    LevyTriplet,
    gaussian_only,
    indicator_inside,
    symmetric_alpha_stable,
    uniform_band,
)


def _triplet(F, c=0.0, integrable=True):
    return LevyTriplet(c, F, 0.0, indicator_inside(1.0), integrable=integrable)


class TestLpNorm:
    def test_exponential_closed_form(self):
        k = exponential_kernel(1.0)
        assert lp_norm(k, 1.5) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert lp_norm(k, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_constant_is_zero(self):
        assert lp_norm(constant_kernel(2.0), 2.0) == 0.0

    def test_power_density_p_integral(self):
        # phi'(t) = (1+t)^{-0.9}: finite for p = 1.5, infinite for p = 1
        k = power_density_kernel(0.9)
        assert math.isfinite(lp_norm(k, 1.5))
        assert lp_norm(k, 1.5) == pytest.approx(1.0 / 0.35, abs=1e-12)
        assert lp_norm(k, 1.0) == math.inf

    def test_missing_density_raises(self):
        k = custom_kernel(lambda t: np.exp(-t), phi_prime=None)
        with pytest.raises(MissingDensity):
            lp_norm(k, 2.0)

    def test_numeric_matches_closed_form(self):
        kappa, p = 0.7, 1.8
        k = exponential_kernel(kappa)
        numeric = integrate_halfline(
            lambda t: abs(float(k.dphi(np.asarray(t)))) ** p
        )
        assert numeric == pytest.approx(lp_norm(k, p), rel=1e-6)

    # each closed form against integrate_halfline of |phi'|^p, which is
    # what lp_norm takes for a kernel of any other name; the worst agreed
    # to 5e-8 (power 0.5 at p 1.5), and power-density 0.4 diverges
    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("kernel", [
        exponential_kernel(0.7, 2.0), constant_kernel(1.0), power_kernel(1.5),
        power_kernel(0.5), power_density_kernel(2.0), power_density_kernel(0.4)],
        ids=["exponential", "constant", "power-1.5", "power-0.5",
             "power-density-2", "power-density-0.4"])
    def test_closed_form_equals_the_numeric_integral(self, kernel, p):
        numeric = integrate_halfline(
            lambda t: abs(float(kernel.dphi(np.asarray(t)))) ** p)
        assert lp_norm(dataclasses.replace(kernel, name="custom"), p) == numeric
        if math.isinf(numeric):
            assert lp_norm(kernel, p) == math.inf
        else:
            assert lp_norm(kernel, p) == pytest.approx(numeric, rel=1e-7, abs=0.0)


class TestIntegrateHalfline:
    def test_exponential_decay(self):
        assert integrate_halfline(lambda t: math.exp(-t)) == pytest.approx(1.0, rel=1e-8)

    def test_integrable_power_tail(self):
        # (1+t)^{-1.5}: windows decay like 2^{-0.5}; extrapolated total = 2
        val = integrate_halfline(lambda t: (1.0 + t) ** -1.5)
        assert val == pytest.approx(2.0, rel=1e-2)

    def test_divergent_tail_flags_inf(self):
        assert integrate_halfline(lambda t: 1.0 / (1.0 + t)) == math.inf


class TestDensityCondition:
    def test_two_atom_exponential(self):
        # min(e^{-t}, e^{-2t}) = e^{-2t}; two atoms -> 2 * 1/2 = 1
        F = DiscreteMeasure([(-1.0, 1.0), (1.0, 1.0)])
        res = density_condition(exponential_kernel(1.0), _triplet(F))
        assert res.finite is True
        assert res.value == pytest.approx(1.0, rel=1e-6)

    def test_zero_density_trivial(self):
        res = density_condition(constant_kernel(1.0), _triplet(gaussian_only(), c=1.0))
        assert res.as_tuple() == (True, 0.0)

    def test_gaussian_power_density_diverges(self):
        res = density_condition(
            power_density_kernel(0.4), _triplet(gaussian_only(), c=1.0)
        )
        assert res.finite is False
        assert res.value == math.inf

    def test_stable_fast_path_matches_general_quadrature(self):
        alpha = 1.5
        F = symmetric_alpha_stable(alpha)
        k = exponential_kernel(1.0)
        res = density_condition(k, _triplet(F))
        c_alpha = 2.0 * (1.0 / (2.0 - alpha) + 1.0 / (alpha - 1.0))
        assert res.jump_part == pytest.approx(c_alpha * lp_norm(k, alpha), rel=1e-10)
        # independent route: jump integrand psi(t) on a fixed grid; the
        # integrand decays like e^{-alpha t} so [0, 30] covers the tail
        from scipy.integrate import simpson

        from levyemm.kernel import _jump_kernel_integral

        ts = np.linspace(0.0, 30.0, 801)
        vals = [_jump_kernel_integral(F, math.exp(-t)) for t in ts]
        direct = simpson(vals, x=ts)
        assert res.jump_part == pytest.approx(direct, rel=1e-4)

    def test_sign_flip_invariance(self):
        F = DiscreteMeasure([(-1.0, 1.0), (2.0, 0.5)])
        k = exponential_kernel(1.0, amplitude=1.0)
        k_flip = Kernel(
            phi=k.phi, phi_prime=lambda t: -k.dphi(t), phi0=k.phi0,
            name="custom",
        )
        v1 = density_condition(k, _triplet(F)).value
        v2 = density_condition(k_flip, _triplet(F)).value
        assert v1 == pytest.approx(v2, rel=1e-6)

    def test_stable_equivalence_with_lp(self):
        # finiteness of the condition tracks phi' in L^alpha on both verdicts
        alpha = 1.5
        F = symmetric_alpha_stable(alpha)
        good = power_density_kernel(1.0)  # p*q = 1.5 > 1
        bad = power_density_kernel(0.5)  # p*q = 0.75 <= 1
        assert density_condition(good, _triplet(F)).finite is True
        assert density_condition(bad, _triplet(F)).finite is False


class TestClassification:
    def test_stable_exponential_admissible(self):
        for alpha in (1.2, 1.5, 1.9):
            cls = emm_classify(
                exponential_kernel(1.0),
                _triplet(symmetric_alpha_stable(alpha)),
                "regularly-varying",
            )
            assert cls.status == "admissible"

    def test_phi0_zero_not_admissible(self):
        cls = emm_classify(
            zero_start_kernel(), _triplet(symmetric_alpha_stable(1.5)),
            "regularly-varying",
        )
        assert cls.status == "not-admissible"
        assert "phi0" in cls.reason

    def test_compact_support_clause(self):
        cls = emm_classify(
            exponential_kernel(1.0), _triplet(uniform_band(1.0, 2.0, 0.3)),
            "second-moment-finite",
        )
        assert cls.status == "admissible"
        assert "compact" in cls.reason

    def test_one_sided_support_indeterminate(self):
        cls = emm_classify(
            exponential_kernel(1.0), _triplet(DiscreteMeasure([(1.0, 1.0)])),
            "second-moment-finite",
        )
        assert cls.status == "indeterminate"

    def test_other_regime_indeterminate(self):
        cls = emm_classify(
            exponential_kernel(1.0), _triplet(symmetric_alpha_stable(1.5)),
            "other",
        )
        assert cls.status == "indeterminate"

    def test_gaussian_case(self):
        cls = emm_classify(
            exponential_kernel(1.0), _triplet(gaussian_only(), c=1.0),
            "second-moment-finite",
        )
        assert cls.status == "admissible"

    def test_not_admissible_never_with_finite_density_condition(self):
        cls = emm_classify(
            power_density_kernel(0.4), _triplet(gaussian_only(), c=1.0),
            "second-moment-finite",
        )
        assert cls.status == "not-admissible"
        assert cls.density_condition is not None
        assert cls.density_condition.finite is False


class TestACWitness:
    def test_exponential_holds(self):
        ok, dev = absolute_continuity_witness(exponential_kernel(2.0))
        assert ok and dev < 1e-8

    def test_power_holds(self):
        ok, _ = absolute_continuity_witness(power_kernel(0.7))
        assert ok

    def test_mismatched_derivative_fails(self):
        k = custom_kernel(
            lambda t: np.exp(-t), phi_prime=lambda t: -2.0 * np.exp(-2.0 * t),
            phi0=1.0,
        )
        ok, dev = absolute_continuity_witness(k)
        assert not ok and dev > 1e-3


class TestTruncationBias:
    def test_exponential_bound(self):
        k = exponential_kernel(2.0)
        assert k.truncation_bias_bound(5.0) == pytest.approx(
            math.exp(-10.0) / 2.0, rel=1e-12
        )

    def test_power_bound(self):
        k = power_kernel(2.0)
        assert k.truncation_bias_bound(9.0) == pytest.approx(0.1, rel=1e-12)
