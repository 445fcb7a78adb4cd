"""Moving-average kernels phi and the EMM admissibility classification.

A kernel carries phi, optionally its density phi', and (for named shapes)
closed-form L^p tails so that half-line integrals do not rely on blind
truncation. Admissibility follows the if-and-only-if characterization:
phi(0) != 0, absolute continuity, and finiteness of

    c * int phi'^2 + int int |x phi'(t)| ^ (x phi'(t))^2 F(dx) dt.

Absolute continuity is only witnessed numerically (phi(t) = phi(0) +
int_0^t phi' on a probe grid); it is a witness, not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy

from .errors import MissingDensity, NonIntegrable
from .levy_model import (
    DensityMeasure,
    Interval,
    LevyMeasure,
    LevyTriplet,
    ball_complement,
    levy_integrate,
)

# integrate_halfline: the head [0, T_INT_DEFAULT] and T_INT_DOUBLINGS windows
T_INT_DEFAULT = 50.0
T_INT_DOUBLINGS = 6
# absolute_continuity_witness: its probe grid and tolerance
AC_PROBE_POINTS = 256
AC_PROBE_HORIZON = 10.0
AC_TOL = 1e-6


@dataclass
class Kernel:
    """phi with its density phi' and what is known of its shape.

    exponential = (A, kappa) declares phi(s) = A e^{-kappa s}, so that
    phi'(s) = -kappa A e^{-kappa s} (kappa = 0 for a constant phi):
    exponential_form reads that off phi or phi', and a path's sums of
    such a function, on the grid (`PathBlock.moving_average`) or at any
    time (`PathBlock.response`), are states carried along its cells and
    its jumps. Other kernels declare none.
    """

    phi: Callable[[np.ndarray], np.ndarray]
    phi_prime: Callable[[np.ndarray], np.ndarray] | None
    phi0: float
    name: str = "custom"
    params: dict = field(default_factory=dict)
    exponential: tuple[float, float] | None = None

    def __call__(self, t):
        return np.asarray(self.phi(np.asarray(t, dtype=float)), dtype=float)

    def dphi(self, t):
        if self.phi_prime is None:
            raise MissingDensity("kernel has no phi' attached")
        return np.asarray(self.phi_prime(np.asarray(t, dtype=float)), dtype=float)

    def truncation_bias_bound(self, M: float) -> float | None:
        """Analytic bound on the mass of phi beyond lag M (named kernels)."""
        if self.name == "exponential":
            kap = self.params["kappa"]
            amp = abs(self.params.get("amplitude", 1.0))
            return amp * math.exp(-kap * M) / kap
        if self.name == "power":
            g = self.params["gamma"]
            if g > 1:
                return (1.0 + M) ** (1.0 - g) / (g - 1.0)
        return None


def exponential_kernel(kappa: float, amplitude: float = 1.0) -> Kernel:
    """phi(t) = A e^{-kappa t}."""
    if kappa <= 0:
        raise ValueError("kappa must be > 0")
    return Kernel(
        phi=lambda t: amplitude * np.exp(-kappa * t),
        phi_prime=lambda t: -amplitude * kappa * np.exp(-kappa * t),
        phi0=amplitude,
        name="exponential",
        params={"kappa": kappa, "amplitude": amplitude},
        exponential=(amplitude, kappa),
    )


def power_kernel(gamma: float) -> Kernel:
    """phi(t) = (1+t)^{-gamma}."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return Kernel(
        phi=lambda t: (1.0 + t) ** (-gamma),
        phi_prime=lambda t: -gamma * (1.0 + t) ** (-gamma - 1.0),
        phi0=1.0,
        name="power",
        params={"gamma": gamma},
    )


def power_density_kernel(q: float, phi0: float = 1.0) -> Kernel:
    """Kernel defined through its density phi'(t) = (1+t)^{-q}."""
    if q <= 0:
        raise ValueError("q must be > 0")
    if q == 1.0:
        phi = lambda t: phi0 + np.log1p(t)  # noqa: E731
    else:
        phi = lambda t: phi0 + ((1.0 + t) ** (1.0 - q) - 1.0) / (1.0 - q)  # noqa: E731
    return Kernel(
        phi=phi,
        phi_prime=lambda t: (1.0 + t) ** (-q),
        phi0=phi0,
        name="power-density",
        params={"q": q, "phi0": phi0},
    )


def zero_start_kernel(kappa: float = 1.0) -> Kernel:
    """phi(t) = t e^{-kappa t}; has phi(0) = 0 (a not-admissible example)."""
    return Kernel(
        phi=lambda t: t * np.exp(-kappa * t),
        phi_prime=lambda t: (1.0 - kappa * t) * np.exp(-kappa * t),
        phi0=0.0,
        name="zero-start",
        params={"kappa": kappa},
    )


def constant_kernel(value: float = 1.0) -> Kernel:
    """phi identically constant (telescoping pseudo-kernel for tests)."""
    return Kernel(
        phi=lambda t: np.full_like(np.asarray(t, dtype=float), value),
        phi_prime=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        phi0=value,
        name="constant",
        params={"value": value},
        exponential=(value, 0.0),
    )


def exponential_form(fn) -> tuple[float, float] | None:
    """(f0, kappa) with fn(s) = f0 e^{-kappa s} for s >= 0, when fn is a
    kernel that declares its exponential form (fn is then phi) or that
    kernel's dphi; None for any other function."""
    kern = getattr(fn, "__self__", fn)
    if not isinstance(kern, Kernel) or kern.exponential is None:
        return None
    amp, kappa = kern.exponential
    if fn is kern:
        return amp, kappa
    if getattr(fn, "__func__", None) is Kernel.dphi:
        # 0.0 rather than -0.0 for a constant phi, whose phi' is 0
        return -kappa * amp + 0.0, kappa
    return None


def custom_kernel(phi, phi_prime=None, phi0=None) -> Kernel:
    if phi0 is None:
        phi0 = float(phi(np.asarray(0.0)))
    return Kernel(phi=phi, phi_prime=phi_prime, phi0=phi0, name="custom")


# ---------------------------------------------------------------------------
# half-line integration with a doubling-window tail probe
# ---------------------------------------------------------------------------


def integrate_halfline(f) -> float:
    """int_0^inf f(t) dt for f >= 0, with tail convergence decided from
    doubling windows [t0 2^k, t0 2^{k+1}], t0 = T_INT_DEFAULT.

    Returns the value, math.inf when the windows do not decay, and math.nan
    when the probe is inconclusive.
    """
    head, _ = scipy.integrate.quad(f, 0.0, T_INT_DEFAULT, limit=200)
    segs = []
    lo = T_INT_DEFAULT
    for _ in range(T_INT_DOUBLINGS):
        hi = 2.0 * lo
        s, _ = scipy.integrate.quad(f, lo, hi, limit=200)
        segs.append(max(s, 0.0))
        lo = hi
    total = head + sum(segs)
    if segs[-1] <= 1e-14 * max(total, 1.0):
        return total
    ratios = [
        segs[k + 1] / segs[k] for k in range(len(segs) - 1) if segs[k] > 0.0
    ]
    if not ratios:
        return total
    r = ratios[-1]
    if max(ratios) <= 0.95:
        return total + segs[-1] * r / (1.0 - r)
    if min(ratios) >= 0.999:
        return math.inf
    return math.nan


def lp_norm(kernel: Kernel, p: float) -> float:
    """int_0^inf |phi'(t)|^p dt; closed form for named kernels, numeric with
    a tail probe otherwise (nan = inconclusive)."""
    if kernel.phi_prime is None:
        raise MissingDensity("lp_norm requires phi'")
    if p <= 0:
        raise ValueError("p must be > 0")
    if kernel.name == "exponential":
        kap = kernel.params["kappa"]
        amp = abs(kernel.params.get("amplitude", 1.0))
        return (amp * kap) ** p / (p * kap)
    if kernel.name == "power":
        g = kernel.params["gamma"]
        e = p * (g + 1.0)
        return g**p / (e - 1.0) if e > 1.0 else math.inf
    if kernel.name == "power-density":
        q = kernel.params["q"]
        e = p * q
        return 1.0 / (e - 1.0) if e > 1.0 else math.inf
    if kernel.name == "constant":
        return 0.0
    dphi = kernel.phi_prime
    return integrate_halfline(lambda t: abs(float(dphi(np.asarray(t)))) ** p)


# ---------------------------------------------------------------------------
# the density condition
# ---------------------------------------------------------------------------


@dataclass
class DensityConditionResult:
    finite: bool | None  # None = indeterminate
    value: float
    gaussian_part: float
    jump_part: float
    reason: str = ""

    def as_tuple(self):
        return self.finite, self.value


def _jump_kernel_integral(F: LevyMeasure, u: float) -> float:
    """m(u) = int min(|x| u, (x u)^2) F(dx); monotone in u >= 0."""
    if u == 0.0:
        return 0.0
    # split at the kink |x| = 1/u: quadratic inside, linear outside
    r = 1.0 / u
    quad_part = u * u * levy_integrate(
        F, lambda x: x * x, [Interval(-r, r)], g_quadratic_near_zero=True
    )
    lin_part = u * levy_integrate(F, lambda x: np.abs(x), ball_complement(r))
    return quad_part + lin_part


def density_condition(kernel: Kernel, triplet: LevyTriplet) -> DensityConditionResult:
    """Evaluate c int phi'^2 + int int |x phi'| ^ (x phi')^2 dF dt.

    For a symmetric alpha-stable measure the jump part scales exactly like
    the L^alpha norm of phi', which is used as a fast path. Divergence of
    any part yields finite=False; an inconclusive tail probe on a custom
    kernel yields finite=None.
    """
    if kernel.phi_prime is None:
        raise MissingDensity("density_condition requires phi'")

    gaussian = 0.0
    if triplet.c > 0.0:
        l2 = lp_norm(kernel, 2.0)
        if math.isnan(l2):
            return DensityConditionResult(None, math.nan, math.nan, 0.0,
                                          "L2 tail probe inconclusive")
        gaussian = triplet.c * l2
        if math.isinf(gaussian):
            return DensityConditionResult(False, math.inf, math.inf, 0.0,
                                          "phi' not in L2")

    F = triplet.F
    if F.is_zero:
        return DensityConditionResult(True, gaussian, gaussian, 0.0)

    if isinstance(F, DensityMeasure) and F.name == "symmetric-alpha-stable":
        alpha = F.params["alpha"]
        scale = F.params["scale"]
        if alpha <= 1.0:
            # the |x| branch is not F-integrable at infinity for any u > 0
            la = lp_norm(kernel, alpha)
            if la == 0.0:
                return DensityConditionResult(True, gaussian, gaussian, 0.0)
            return DensityConditionResult(False, math.inf, gaussian, math.inf,
                                          "stable tail index <= 1")
        c_alpha = 2.0 * (1.0 / (2.0 - alpha) + 1.0 / (alpha - 1.0))
        la = lp_norm(kernel, alpha)
        if math.isnan(la):
            return DensityConditionResult(None, math.nan, gaussian, math.nan,
                                          "L^alpha tail probe inconclusive")
        jump = scale * c_alpha * la
        finite = not math.isinf(jump)
        value = gaussian + jump
        return DensityConditionResult(
            finite, value, gaussian, jump,
            "" if finite else "phi' not in L^alpha",
        )

    dphi = kernel.phi_prime

    def psi(t):
        return _jump_kernel_integral(F, abs(float(dphi(np.asarray(t)))))

    jump = integrate_halfline(psi)
    if math.isnan(jump):
        return DensityConditionResult(None, math.nan, gaussian, math.nan,
                                      "jump-part tail probe inconclusive")
    finite = not math.isinf(jump)
    return DensityConditionResult(
        finite, gaussian + jump, gaussian, jump,
        "" if finite else "jump part diverges",
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def absolute_continuity_witness(kernel: Kernel) -> tuple[bool, float]:
    """Check phi(t) = phi(0) + int_0^t phi' to AC_TOL on AC_PROBE_POINTS
    cells of [0, AC_PROBE_HORIZON].

    Returns (holds, max deviation). A witness, not a proof.
    """
    if kernel.phi_prime is None:
        raise MissingDensity("witness requires phi'")
    ts = np.linspace(0.0, AC_PROBE_HORIZON, AC_PROBE_POINTS + 1)
    dphi = kernel.phi_prime
    incs = np.empty(AC_PROBE_POINTS)
    for i in range(AC_PROBE_POINTS):
        incs[i], _ = scipy.integrate.quad(
            lambda t: float(dphi(np.asarray(t))), ts[i], ts[i + 1], limit=100
        )
    cum = kernel.phi0 + np.concatenate([[0.0], np.cumsum(incs)])
    dev = float(np.max(np.abs(kernel(ts) - cum)))
    return dev <= AC_TOL, dev


@dataclass
class Classification:
    status: str  # "admissible" | "not-admissible" | "indeterminate"
    reason: str
    phi0: float
    density_condition: DensityConditionResult | None = None
    ac_deviation: float | None = None

    def to_dict(self) -> dict:
        d = {
            "status": self.status,
            "reason": self.reason,
            "phi0": self.phi0,
            "ac_deviation": self.ac_deviation,
        }
        if self.density_condition is not None:
            d["density_condition"] = {
                "finite": self.density_condition.finite,
                "value": self.density_condition.value,
                "gaussian_part": self.density_condition.gaussian_part,
                "jump_part": self.density_condition.jump_part,
                "reason": self.density_condition.reason,
            }
        return d


def _phi_prime_bounded(kernel: Kernel) -> bool:
    if kernel.name in ("exponential", "power", "power-density", "constant",
                       "zero-start"):
        return True
    ts = np.linspace(0.0, 200.0, 4001)
    vals = kernel.dphi(ts)
    return bool(np.all(np.isfinite(vals)))


def emm_classify(
    kernel: Kernel, triplet: LevyTriplet, tail_regime: str
) -> Classification:
    """Classify EMM admissibility of the moving average driven by the triplet.

    tail_regime is scenario-asserted, one of {"second-moment-finite",
    "regularly-varying", "other"}. Cases the characterization does not cover
    (one-sided support, inconclusive tail probes, undeclared regime) come
    back indeterminate with the reason attached.
    """
    if tail_regime not in ("second-moment-finite", "regularly-varying", "other"):
        raise ValueError(f"unknown tail regime {tail_regime!r}")

    if kernel.phi0 == 0.0:
        return Classification("not-admissible", "phi0=0", 0.0)

    if kernel.phi_prime is None:
        return Classification(
            "indeterminate", "no phi' declared; absolute continuity unknown",
            kernel.phi0,
        )

    ac_ok, dev = absolute_continuity_witness(kernel)
    if not ac_ok:
        return Classification(
            "not-admissible",
            f"absolute-continuity witness failed (deviation {dev:.2e})",
            kernel.phi0, ac_deviation=dev,
        )

    F = triplet.F
    gaussian_case = F.is_zero

    if not gaussian_case and tail_regime == "other":
        return Classification(
            "indeterminate", "tail regime not covered by the characterization",
            kernel.phi0, ac_deviation=dev,
        )

    dc = density_condition(kernel, triplet)
    if dc.finite is None:
        return Classification(
            "indeterminate", f"density condition: {dc.reason}",
            kernel.phi0, dc, dev,
        )
    if not dc.finite:
        return Classification(
            "not-admissible", f"density condition infinite ({dc.reason})",
            kernel.phi0, dc, dev,
        )

    if gaussian_case:
        return Classification("admissible", "Gaussian case: phi' in L2",
                              kernel.phi0, dc, dev)

    support = F.support_descriptor
    if support == "unbounded-both":
        return Classification("admissible", "two-sided unbounded support",
                              kernel.phi0, dc, dev)
    if support == "compact":
        if _phi_prime_bounded(kernel):
            return Classification(
                "admissible", "compact two-sided support with bounded phi'",
                kernel.phi0, dc, dev,
            )
        return Classification(
            "indeterminate", "compact support but phi' unbounded",
            kernel.phi0, dc, dev,
        )
    return Classification(
        "indeterminate", f"support descriptor {support!r} not classified",
        kernel.phi0, dc, dev,
    )
