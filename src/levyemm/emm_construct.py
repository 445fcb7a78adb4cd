"""Predictable jump-reweighting kernels alpha(t, x).

Two constructions are provided. The band kernel (h1) raises intensity on
one side of a band a < |x| < b, with the side picked by the sign of the
drift to absorb; it is affine in x and never below 1. The tail kernel (h2)
reweights the whole tail |x| > a by a two-level step density f_zeta chosen
so the reweighted tail keeps its mass and gets a prescribed first moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationViolated, UnsupportedModel, ZetaOutOfRange
from .levy_model import (
    DensityMeasure,
    DiscreteMeasure,
    Interval,
    LevyMeasure,
    LevyTriplet,
    TailLaw,
    ball_complement,
    band_region,
    band_masses,
    indicator_inside,
    indicator_outside_band,
    levy_integrate,
    retriplet,
    tail_law,
    tail_mass,
)


def sigma_pm(F: LevyMeasure, a: float, b: float) -> tuple[float, float]:
    """(sigma_plus^2, sigma_minus^2) = second moments of F on +-(a, b)."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    neg_mass, pos_mass = band_masses(F, a, b)
    if min(neg_mass, pos_mass) <= 0.0:
        raise TruncationViolated(
            f"band ({a}, {b}) has one-sided mass (neg={neg_mass}, pos={pos_mass})"
        )
    sq = lambda x: x * x  # noqa: E731
    s_plus = levy_integrate(F, sq, [Interval(a, b, True, True)])
    s_minus = levy_integrate(F, sq, [Interval(-b, -a, True, True)])
    return s_plus, s_minus


# ---------------------------------------------------------------------------
# h1: the band kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GirsanovKernelH1:
    """alpha(y, x) = 1 + (y+xi)^- x/s+^2 on (a,b) - (y+xi)^+ x/s-^2 on -(a,b)."""

    a: float
    b: float
    sigma_plus_sq: float
    sigma_minus_sq: float
    xi: float
    m_plus: float  # first moments of F on (a, b) and -(a, b)
    m_minus: float

    kind = "h1"

    def excess_rate(self, y) -> np.ndarray:
        """int (alpha(y, x) - 1) F(dx), elementwise in y; alpha does not
        preserve the band mass, so the density carries a compensator."""
        d = np.asarray(y, dtype=float) + self.xi
        return (np.maximum(-d, 0.0) * self.m_plus / self.sigma_plus_sq
                - np.maximum(d, 0.0) * self.m_minus / self.sigma_minus_sq)

    def evaluate(self, y: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = y + self.xi
        pos = max(d, 0.0)
        neg = max(-d, 0.0)
        in_pos = (x > self.a) & (x < self.b)
        in_neg = (-x > self.a) & (-x < self.b)
        return (
            1.0
            + np.where(in_pos, neg * x / self.sigma_plus_sq, 0.0)
            - np.where(in_neg, pos * x / self.sigma_minus_sq, 0.0)
        )


def make_h1_kernel(triplet: LevyTriplet, a: float, b: float) -> GirsanovKernelH1:
    s_plus, s_minus = sigma_pm(triplet.F, a, b)
    ident = lambda x: x  # noqa: E731
    m_plus = levy_integrate(triplet.F, ident, [Interval(a, b, True, True)])
    m_minus = levy_integrate(triplet.F, ident, [Interval(-b, -a, True, True)])
    return GirsanovKernelH1(a, b, s_plus, s_minus, triplet.xi(), m_plus, m_minus)


# ---------------------------------------------------------------------------
# h2: the two-level tail kernel
# ---------------------------------------------------------------------------


def _split(tail: TailLaw, zeta):
    """(P(X < zeta), lambda(zeta)), elementwise in zeta."""
    p_lo = tail.mass_below(zeta)
    p_hi = 1.0 - p_lo
    # .all() rather than np.all: the weighted battery calls this once per
    # tail jump with a scalar zeta
    if not ((p_lo > 0.0) & (p_hi > 0.0)).all():
        raise ZetaOutOfRange(f"zeta={zeta} leaves an empty conditional block")
    below = tail.partial_mean_below(zeta)
    m_lo = below / p_lo
    m_hi = (tail.mean - below) / p_hi
    if not ((m_lo < zeta) & (zeta < m_hi)).all():
        raise ZetaOutOfRange(
            f"conditional means do not bracket zeta: {m_lo} / {zeta} / {m_hi}"
        )
    return p_lo, (zeta - m_lo) / (m_hi - m_lo)


def lambda_of_zeta(tail: TailLaw, zeta):
    """(zeta - E[X|X<zeta]) / (E[X|X>=zeta] - E[X|X<zeta]), in (0, 1)."""
    return _split(tail, zeta)[1]


def f_zeta(tail: TailLaw, zeta, x) -> np.ndarray:
    """Two-level step density w.r.t. the tail law with mean zeta."""
    p_lo, lam_z = _split(tail, zeta)
    x = np.asarray(x, dtype=float)
    return np.where(x < zeta, (1.0 - lam_z) / p_lo, lam_z / (1.0 - p_lo))


@dataclass(frozen=True)
class GirsanovKernelH2:
    """alpha(y, x) = f_{zeta(y)}(x) for |x| > a, 1 otherwise, with
    zeta(y) = -(y + b_h)/lam.

    Under Q the tail marks follow alpha(y, .) F^a / lam: the tail law
    conditioned below zeta(y) with weight 1 - lambda(zeta), and at or above
    it with weight lambda. That law is the tail law's cumulative mass G
    sent through the piecewise-linear map with knot (P(X < zeta),
    1 - lambda); mark_mass_below and mark_quantile apply the map and its
    inverse.
    """

    a: float
    lam: float  # F([-a, a]^c)
    tail: TailLaw
    b_h: float  # drift w.r.t. the inside-a truncation

    kind = "h2"
    # alpha keeps the tail mass, so int (alpha - 1) dF is identically zero
    # and the density has no compensator
    excess_rate = None

    def zeta(self, y):
        return -(y + self.b_h) / self.lam

    def evaluate(self, y: float, x) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.ones_like(arr)
        tail_mask = np.abs(arr) > self.a
        if tail_mask.any():
            out[tail_mask] = f_zeta(self.tail, self.zeta(y), arr[tail_mask])
        return out if np.ndim(x) else float(out[0])

    def mark_mass_below(self, y, z):
        """Q(Z < z | Y_- = y), elementwise in (y, z)."""
        p_lo, lam_z = _split(self.tail, self.zeta(y))
        g = self.tail.mass_below(z)
        return np.where(g <= p_lo, g * ((1.0 - lam_z) / p_lo),
                        1.0 - lam_z + (g - p_lo) * (lam_z / (1.0 - p_lo)))

    def mark_quantile(self, y, u):
        """The Q mark law at Y_- = y inverted at u in [0, 1)."""
        p_lo, lam_z = _split(self.tail, self.zeta(y))
        u = np.asarray(u, dtype=float)
        g = np.where(u < 1.0 - lam_z, u * (p_lo / (1.0 - lam_z)),
                     p_lo + (u - (1.0 - lam_z)) * ((1.0 - p_lo) / lam_z))
        return self.tail.quantile(np.clip(g, 0.0, 1.0))


def make_h2_kernel(triplet: LevyTriplet, a: float) -> GirsanovKernelH2:
    lam = tail_mass(triplet.F, a)
    if lam <= 0.0:
        raise TruncationViolated("no tail mass beyond a")
    tail = tail_law(triplet.F, ball_complement(a))
    if tail is None or not tail.zeta_lo < 0.0 < tail.zeta_hi:
        raise TruncationViolated("tail beyond a must be two-sided")
    if math.isnan(tail.mean):
        raise UnsupportedModel("tail law needs a finite first moment beyond a")
    b_h = retriplet(triplet, indicator_inside(a)).b_h
    return GirsanovKernelH2(a, lam, tail, b_h)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _reweight_region(gk):
    if gk.kind == "h1":
        return band_region(gk.a, gk.b)
    return ball_complement(gk.a)


def validate_girsanov_kernel(gk, triplet: LevyTriplet, y_values,
                             abs_tol: float = 1e-9) -> dict:
    """Check positivity, the mass identity (h2) and the drift identity for
    every sampled y. Report-only; exact sums on discrete measures."""
    F = triplet.F
    region = _reweight_region(gk)
    if gk.kind == "h1":
        drift_ref = retriplet(triplet, indicator_outside_band(gk.a, gk.b)).b_h
    else:
        drift_ref = gk.b_h
    is_quad = isinstance(F, DensityMeasure)
    tol = max(abs_tol, 1e-6) if is_quad else abs_tol

    max_drift = 0.0
    max_mass = 0.0
    min_alpha = math.inf
    failures = []
    for y in np.asarray(y_values, dtype=float):
        try:
            alpha = lambda x, y=y: gk.evaluate(y, x)  # noqa: E731
            if isinstance(F, DiscreteMeasure):
                vals = alpha(F.x)
            else:
                probe = np.concatenate([iv_probe(iv) for iv in region])
                vals = alpha(probe)
            min_alpha = min(min_alpha, float(np.min(vals)))
            drift_int = levy_integrate(F, lambda x: x * alpha(x), region)
            max_drift = max(max_drift, abs(drift_int + y + drift_ref))
            if gk.kind == "h2":
                mass_int = levy_integrate(F, alpha, region)
                max_mass = max(max_mass, abs(mass_int - gk.lam))
        except ZetaOutOfRange as exc:
            failures.append({"y": float(y), "error": str(exc)})
    ok = (
        not failures
        and min_alpha > 0.0
        and max_drift <= tol
        and (gk.kind == "h1" or max_mass <= tol)
    )
    return {
        "kind": gk.kind,
        "ok": bool(ok),
        "min_alpha": min_alpha,
        "max_drift_violation": max_drift,
        "max_mass_violation": max_mass if gk.kind == "h2" else None,
        "drift_reference": drift_ref,
        "tolerance": tol,
        "n_y": int(len(np.asarray(y_values))),
        "failures": failures,
    }


def iv_probe(iv: Interval, n: int = 33) -> np.ndarray:
    lo = iv.lo if math.isfinite(iv.lo) else (iv.hi - 100.0 if math.isfinite(iv.hi) else -100.0)
    hi = iv.hi if math.isfinite(iv.hi) else (iv.lo + 100.0 if math.isfinite(iv.lo) else 100.0)
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    return np.linspace(lo + pad, hi - pad, n)
