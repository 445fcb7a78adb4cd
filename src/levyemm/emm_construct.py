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
    ball_complement,
    band_region,
    band_masses,
    indicator_inside,
    indicator_outside_band,
    levy_integrate,
    retriplet,
    tail_mass,
)

_MASS_FLOOR = 1e-12


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


def alpha_h1(k: GirsanovKernelH1, y_t: float, x) -> np.ndarray:
    return k.evaluate(y_t, x)


def make_h1_kernel(triplet: LevyTriplet, a: float, b: float) -> GirsanovKernelH1:
    s_plus, s_minus = sigma_pm(triplet.F, a, b)
    ident = lambda x: x  # noqa: E731
    m_plus = levy_integrate(triplet.F, ident, [Interval(a, b, True, True)])
    m_minus = levy_integrate(triplet.F, ident, [Interval(-b, -a, True, True)])
    return GirsanovKernelH1(a, b, s_plus, s_minus, triplet.xi(), m_plus, m_minus)


# ---------------------------------------------------------------------------
# tail laws (normalized restriction of F to |x| > a)
# ---------------------------------------------------------------------------


class TailLaw:
    """Probability law of a tail mark, with the partial-moment queries that
    lambda_of_zeta needs: P(X < z) and E[X 1_{X < z}]."""

    mean: float
    zeta_lo: float
    zeta_hi: float

    def mass_below(self, z: float) -> float:
        raise NotImplementedError

    def partial_mean_below(self, z: float) -> float:
        raise NotImplementedError


class DiscreteTailLaw(TailLaw):
    def __init__(self, x: np.ndarray, w: np.ndarray):
        order = np.argsort(x)
        self.x = np.asarray(x, dtype=float)[order]
        self.p = np.asarray(w, dtype=float)[order]
        self.p = self.p / self.p.sum()
        self.cum_p = np.cumsum(self.p)
        self.cum_xp = np.cumsum(self.x * self.p)
        self.mean = float(self.cum_xp[-1])
        self.zeta_lo = float(self.x[0])
        self.zeta_hi = float(self.x[-1])

    def mass_below(self, z: float) -> float:
        i = np.searchsorted(self.x, z, side="left")
        return float(self.cum_p[i - 1]) if i > 0 else 0.0

    def partial_mean_below(self, z: float) -> float:
        i = np.searchsorted(self.x, z, side="left")
        return float(self.cum_xp[i - 1]) if i > 0 else 0.0


class GridTailLaw(TailLaw):
    """Cached cumulative mass and first moment on a log-spaced grid, for
    density measures with two-sided tail mass beyond a."""

    def __init__(self, F: DensityMeasure, a: float,
                 pts_per_decade: int = 400, rel_tol: float = 1e-10):
        from scipy.integrate import quad

        if F.tail_integrable is False:
            raise UnsupportedModel(
                "tail law needs a finite first moment beyond a"
            )
        xs, dens = [], []
        for sgn in (-1.0, 1.0):
            lo, hi, total = a, 2.0 * a, 0.0
            top = hi
            for _ in range(200):
                seg, _ = quad(lambda r: abs(r) * float(F.density(np.asarray(sgn * r))),
                              lo, hi, limit=100)
                total += seg
                top = hi
                if seg <= rel_tol * max(total, 1e-300):
                    break
                lo, hi = hi, 2.0 * hi
            else:
                raise UnsupportedModel("tail first moment did not localize")
            n = max(64, int(pts_per_decade * math.log10(top / a)))
            mags = np.geomspace(a, top, n)
            xs.append(sgn * mags)
            dens.append(np.asarray(F.density(sgn * mags), dtype=float))
        # ascending x over both sides
        x = np.concatenate([xs[0][::-1], xs[1]])
        d = np.concatenate([dens[0][::-1], dens[1]])
        dx = np.diff(x)
        mid_mass = 0.5 * (d[1:] + d[:-1]) * dx
        # no mass across the gap (-a, a)
        gap = np.searchsorted(x, 0.0)
        mid_mass[gap - 1] = 0.0
        mid_moment = 0.5 * (x[1:] * d[1:] + x[:-1] * d[:-1]) * dx
        mid_moment[gap - 1] = 0.0
        self.x = x
        self.cum_p = np.concatenate([[0.0], np.cumsum(mid_mass)])
        self.lam_grid = float(self.cum_p[-1])
        self.cum_p /= self.lam_grid
        self.cum_xp = np.concatenate([[0.0], np.cumsum(mid_moment)]) / self.lam_grid
        self.mean = float(self.cum_xp[-1])
        # admissible zeta keeps both conditional masses bounded away from 0
        lo_q = np.searchsorted(self.cum_p, _MASS_FLOOR)
        hi_q = np.searchsorted(self.cum_p, 1.0 - _MASS_FLOOR)
        self.zeta_lo = float(self.x[min(lo_q, len(x) - 1)])
        self.zeta_hi = float(self.x[min(hi_q, len(x) - 1)])

    def mass_below(self, z: float) -> float:
        return float(np.interp(z, self.x, self.cum_p, left=0.0, right=1.0))

    def partial_mean_below(self, z: float) -> float:
        return float(np.interp(z, self.x, self.cum_xp,
                               left=0.0, right=self.mean))


def make_tail_law(F: LevyMeasure, a: float) -> TailLaw:
    if F.is_zero:
        raise TruncationViolated("zero measure has no tail beyond a")
    if isinstance(F, DiscreteMeasure):
        mask = np.abs(F.x) > a
        x, w = F.x[mask], F.w[mask]
        if not (np.any(x > 0) and np.any(x < 0)):
            raise TruncationViolated("tail beyond a must be two-sided")
        return DiscreteTailLaw(x, w)
    assert isinstance(F, DensityMeasure)
    law = GridTailLaw(F, a)
    if not law.zeta_lo < 0.0 < law.zeta_hi:
        raise TruncationViolated("tail beyond a must be two-sided")
    return law


# ---------------------------------------------------------------------------
# h2: the two-level tail kernel
# ---------------------------------------------------------------------------


def lambda_of_zeta(tail: TailLaw, zeta: float) -> float:
    """(zeta - E[X|X<zeta]) / (E[X|X>=zeta] - E[X|X<zeta]), in (0, 1)."""
    p_lo = tail.mass_below(zeta)
    p_hi = 1.0 - p_lo
    if p_lo <= 0.0 or p_hi <= 0.0:
        raise ZetaOutOfRange(f"zeta={zeta} leaves an empty conditional block")
    m_lo = tail.partial_mean_below(zeta) / p_lo
    m_hi = (tail.mean - tail.partial_mean_below(zeta)) / p_hi
    if not m_lo < zeta < m_hi:
        raise ZetaOutOfRange(
            f"conditional means do not bracket zeta: {m_lo} / {zeta} / {m_hi}"
        )
    return (zeta - m_lo) / (m_hi - m_lo)


def f_zeta(tail: TailLaw, zeta: float, x) -> np.ndarray:
    """Two-level step density w.r.t. the tail law with mean zeta."""
    lam_z = lambda_of_zeta(tail, zeta)
    p_lo = tail.mass_below(zeta)
    lo_level = (1.0 - lam_z) / p_lo
    hi_level = lam_z / (1.0 - p_lo)
    x = np.asarray(x, dtype=float)
    return np.where(x < zeta, lo_level, hi_level)


@dataclass(frozen=True)
class GirsanovKernelH2:
    """alpha(y, x) = f_{-(y + b_h)/lam}(x) for |x| > a, 1 otherwise."""

    a: float
    lam: float  # F([-a, a]^c)
    tail: TailLaw
    b_h: float  # drift w.r.t. the inside-a truncation

    kind = "h2"
    # alpha keeps the tail mass, so int (alpha - 1) dF is identically zero
    # and the density has no compensator
    excess_rate = None

    def zeta(self, y: float) -> float:
        return -(y + self.b_h) / self.lam

    def evaluate(self, y: float, x) -> np.ndarray:
        return alpha_h2(self, y, self.b_h, x)


def alpha_h2(k: GirsanovKernelH2, y_t: float, b_h: float, x):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    zeta = -(y_t + b_h) / k.lam
    out = np.ones_like(arr)
    tail_mask = np.abs(arr) > k.a
    if np.any(tail_mask):
        out[tail_mask] = f_zeta(k.tail, zeta, arr[tail_mask])
    return out if np.ndim(x) else float(out[0])


def make_h2_kernel(triplet: LevyTriplet, a: float) -> GirsanovKernelH2:
    lam = tail_mass(triplet.F, a)
    if lam <= 0.0:
        raise TruncationViolated("no tail mass beyond a")
    tail = make_tail_law(triplet.F, a)
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
