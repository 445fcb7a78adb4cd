"""Density processes, Q-characteristics and the compensator criterion.

The measure change only touches the jump part, so every density process
here is a purely discontinuous stochastic exponential: a product of
per-jump factors alpha(T_n-, Z_n) times exp of the compensator drift
-int int (alpha - 1) dF ds (identically zero for the mass-preserving
tail kernel).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .emm_construct import (
    GirsanovKernelH2,
    _reweight_region,
)
from .errors import (
    DomainError,
    DominanceViolated,
    NonIntegrable,
    NonPositiveAlpha,
    UnsupportedModel,
)
from .kernel import Kernel
from .levy_model import (
    DiscreteMeasure,
    LevyTriplet,
    levy_integrate,
)
from .path_sim import (
    KernelResponse,
    LatticePath,
    MovingAveragePath,
    PathSimulator,
    SimConfig,
)
from .verify import doubling_estimates, doubling_verdict, finite_expect


# ---------------------------------------------------------------------------
# stochastic exponential
# ---------------------------------------------------------------------------


def stoch_exp(times, M, jump_times, jump_sizes, qv_cont=None) -> np.ndarray:
    """E(M)_t = exp(M_t - M_0 - qv/2) prod_{s<=t} (1 + dM_s) e^{-dM_s}.

    M is the semimartingale on the grid (jumps already included in its
    values); qv_cont is <M^c> on the grid, zero if omitted. After a jump
    with dM = -1 the exponential is absorbed at 0; dM < -1 flips sign.
    """
    times = np.asarray(times, dtype=float)
    M = np.asarray(M, dtype=float)
    qv = np.zeros_like(M) if qv_cont is None else np.asarray(qv_cont, dtype=float)
    out = np.exp(M - M[0] - 0.5 * qv)
    if len(jump_times):
        jt = np.asarray(jump_times, dtype=float)
        jz = np.asarray(jump_sizes, dtype=float)
        safe = np.where(jz != -1.0, np.abs(1.0 + jz), 1.0)
        log_abs = np.where(jz != -1.0, np.log(safe) - jz, 0.0)
        sign = np.sign(1.0 + jz)
        # factors apply from the first grid time >= jump time onwards
        for t_n, la, sg, z in sorted(zip(jt, log_abs, sign, jz)):
            mask = times >= t_n
            if z == -1.0:
                out[mask] = 0.0
            else:
                out[mask] *= sg * math.exp(la)
    return out


# ---------------------------------------------------------------------------
# density processes
# ---------------------------------------------------------------------------


@dataclass
class DensityProcess:
    times: np.ndarray
    Z: np.ndarray
    jump_times: np.ndarray
    jump_factors: np.ndarray
    compensator_drift: np.ndarray  # accumulated -int int (alpha-1) dF ds

    @property
    def Z_T(self) -> float:
        return float(self.Z[-1])

    def log_identity_residual(self) -> float:
        """max_t |log Z_t - (sum log factors + compensator drift)|."""
        log_prod = np.zeros_like(self.times)
        for t_n, f in zip(self.jump_times, self.jump_factors):
            log_prod[self.times >= t_n] += math.log(f)
        return float(np.max(np.abs(np.log(self.Z) - log_prod - self.compensator_drift)))


def density_terms(gk, y_pre, marks, y_left, dt):
    """Jump factors alpha(Y_{T_n-}, Z_n) and the compensator drift.

    y_left holds Y at the left nodes of the grid cells of width dt; the
    drift -int_0^t int (alpha - 1) dF ds is a left-point sum over them,
    returned at every node (starting at 0). A mass-preserving kernel
    (excess_rate None) has a zero drift, so y_left may then be empty.
    """
    factors = np.array(
        [float(np.asarray(gk.evaluate(y, z)).reshape(())) for y, z in zip(y_pre, marks)]
    )
    if (factors <= 0.0).any():
        raise NonPositiveAlpha("alpha factor <= 0 at a jump")
    comp = np.zeros(len(y_left) + 1)
    if gk.excess_rate is not None:
        comp[1:] = -np.cumsum(gk.excess_rate(y_left) * dt)
    return factors, comp


def density_process(
    gk,
    ma_path: MovingAveragePath,
    jumps: tuple[np.ndarray, np.ndarray],
    y_at_jumps: np.ndarray | None = None,
) -> DensityProcess:
    """Z on the grid of ma_path from the per-jump factors alpha(Y_{T_n-}, Z_n)
    and the left-point compensator along the grid values of Y.

    jumps are the explicit (T_n, Z_n) in (0, T]. y_at_jumps supplies the
    predictable pre-jump drift values; defaults to grid interpolation of Y.
    """
    times = ma_path.times
    jt, jz = jumps
    if y_at_jumps is None:
        idx = np.clip(np.searchsorted(times, jt, side="left") - 1, 0, len(times) - 1)
        y_at_jumps = ma_path.Y[idx]
    factors, comp = density_terms(gk, y_at_jumps, jz, ma_path.Y[:-1],
                                  np.diff(times))
    log_z = comp.copy()
    for t_n, f in zip(jt, factors):
        log_z[times >= t_n] += math.log(f)
    return DensityProcess(times, np.exp(log_z), np.asarray(jt, dtype=float),
                          factors, comp)


# ---------------------------------------------------------------------------
# Q-characteristics
# ---------------------------------------------------------------------------


@dataclass
class QCharacteristics:
    c: float
    alpha: Callable  # Q Levy measure is alpha(x) F(dx)
    drift_t: float
    total_q_drift: float  # drift_t + int (x - h(x)) alpha(x) F(dx)


def q_characteristics(gk, triplet: LevyTriplet, y_t: float) -> QCharacteristics:
    alpha = lambda x: gk.evaluate(y_t, x)  # noqa: E731
    F, h = triplet.F, triplet.h
    region = _reweight_region(gk)
    corr = levy_integrate(F, lambda x: (alpha(x) - 1.0) * h(x), region)
    drift_t = triplet.b_h + y_t + corr
    big = levy_integrate(F, lambda x: (x - h(x)) * alpha(x), h.nonidentity_region())
    return QCharacteristics(triplet.c, alpha, drift_t, drift_t + big)


# ---------------------------------------------------------------------------
# the compensator criterion
# ---------------------------------------------------------------------------


def f_lm(x):
    """f(x) = (1+x) log(1+x) - x; nonnegative, convex, f(0) = 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= -1.0):
        raise DomainError("f_lm requires x > -1")
    out = (1.0 + arr) * np.log1p(arr) - arr
    return out if np.ndim(x) else float(out)


def lm_compensator(W, triplet: LevyTriplet, times, y_values,
                   window: tuple[float, float]) -> float:
    """A_t - A_s = int_s^t int f(W(u, x)) F(dx) du, left-point in u.

    W(u, x) must exceed -1 on the support of F; the inner integral is
    evaluated per grid cell with the cell's left y-value bound into W.
    """
    times = np.asarray(times, dtype=float)
    s, t = window
    total = 0.0
    for i in range(len(times) - 1):
        lo, hi = times[i], times[i + 1]
        if hi <= s or lo >= t:
            continue
        frac = (min(hi, t) - max(lo, s))
        u, y = times[i], y_values[i]
        inner = levy_integrate(
            triplet.F, lambda x: f_lm(W(u, y, x)),
            g_quadratic_near_zero=True,
        )
        if not math.isfinite(inner):
            raise NonIntegrable("inner f(W) integral diverges")
        total += inner * frac
    return total


def fit_envelope(h_vals: np.ndarray, y_grid: np.ndarray) -> tuple[float, float]:
    """gamma1, gamma2 with h(y) <= gamma1 y log(1+y) + gamma2 on the grid."""
    ylog = y_grid * np.log1p(y_grid)
    big = ylog >= 1.0
    if np.any(big):
        gamma1 = float(np.max(h_vals[big] / ylog[big]))
    else:
        gamma1 = 1.0
    gamma2 = float(max(0.0, np.max(h_vals - gamma1 * ylog)))
    return gamma1, gamma2


@dataclass
class LMReport:
    certified: bool
    condition_b: float
    gamma1: float
    gamma2: float
    mesh: float
    finite_expect: "object"
    cell_reports: list
    dominance_checked: bool

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "condition_b": self.condition_b,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "mesh": self.mesh,
            "finite_expect": self.finite_expect.to_dict(),
            "cells": self.cell_reports,
            "dominance_checked": self.dominance_checked,
        }


def lm_criterion_check(
    times: np.ndarray,
    p_paths: np.ndarray,
    g,
    triplet: LevyTriplet,
    *,
    eps: float = 0.05,
    w_fn=None,
    x_probes=None,
    dominance_tol: float = 1e-9,
) -> LMReport:
    """Exercise the compensator-domination criterion on a sampled ensemble.

    p_paths holds |P_t|-dominating path samples, shape (n_paths, n_times).
    g is the jump-size factor of the dominating product W <= |P_t| g(x).
    When w_fn(p, x) is supplied the dominance itself is spot-checked.
    """
    F = triplet.F
    cond_b = levy_integrate(
        F, lambda x: g(x) * (1.0 + np.log1p(g(x))), g_quadratic_near_zero=True
    )

    p_abs = np.abs(np.asarray(p_paths, dtype=float))
    if w_fn is not None:
        probes = np.asarray(
            x_probes if x_probes is not None else _default_x_probes(F), dtype=float
        )
        p_sample = p_abs[: min(200, p_abs.shape[0])].ravel()
        for x in probes:
            w_vals = np.asarray(w_fn(p_sample, x), dtype=float)
            bound = p_sample * float(g(np.asarray(x)))
            if np.any(w_vals > bound + dominance_tol):
                raise DominanceViolated(
                    f"W exceeds |P| g(x) at x={x}"
                )

    # envelope for h(y) = int f(y g(x)) F(dx)
    y_grid = np.geomspace(1e-3, max(1e3, 4.0 * float(np.max(p_abs)) + 1.0), 200)
    h_vals = np.array([
        levy_integrate(F, lambda x: f_lm(y * g(x)), g_quadratic_near_zero=True)
        for y in y_grid
    ])
    gamma1, gamma2 = fit_envelope(h_vals, y_grid)

    fe = finite_expect(p_abs, eps)

    T = float(times[-1] - times[0])
    mesh = min(T, eps / gamma1) if gamma1 > 0 else T
    n_cells = max(1, int(math.ceil(T / mesh - 1e-9)))
    edges = np.linspace(times[0], times[-1], n_cells + 1)
    dt = np.diff(np.asarray(times, dtype=float))
    h_of_p = np.interp(p_abs, y_grid, h_vals)  # h monotone on the grid
    cell_reports = []
    all_cells_ok = True
    for k in range(n_cells):
        in_cell = (times[:-1] >= edges[k] - 1e-12) & (times[:-1] < edges[k + 1] - 1e-12)
        a_inc = np.sum(h_of_p[:, :-1][:, in_cell] * dt[in_cell], axis=1)
        _, estimates = doubling_estimates(np.exp(a_inc))
        verdict = doubling_verdict(estimates)
        all_cells_ok = all_cells_ok and verdict == "pass"
        cell_reports.append({
            "cell": [float(edges[k]), float(edges[k + 1])],
            "estimate": estimates[-1],
            "verdict": verdict,
        })

    certified = (
        math.isfinite(cond_b)
        and fe.verdict == "pass"
        and all_cells_ok
    )
    return LMReport(certified, cond_b, gamma1, gamma2, mesh, fe,
                    cell_reports, w_fn is not None)


def _default_x_probes(F):
    if isinstance(F, DiscreteMeasure):
        return F.x
    return np.array([-5.0, -1.0, -0.1, 0.1, 1.0, 5.0])


# ---------------------------------------------------------------------------
# direct simulation under Q
# ---------------------------------------------------------------------------


@dataclass
class QPathRecord:
    jump_times: np.ndarray  # tail jumps in (0, T]
    jump_sizes: np.ndarray
    y_pre: np.ndarray  # Y_{T_n-} at those jumps
    n_tail_jumps: int


def simulate_under_q(
    gk: GirsanovKernelH2,
    triplet: LevyTriplet,
    kernel: Kernel,
    config: SimConfig,
    path_index: int,
    sim: PathSimulator | None = None,
) -> QPathRecord:
    """One path with the tail jumps on (0, T] resampled under Q.

    Arrivals stay Poisson with the P-intensity lam = F([-a,a]^c); each mark
    on (0, T] is drawn sequentially from alpha(Y_{T_n-}, .) F^a / lam, as
    gk.mark_quantile at one uniform. The Gaussian part, the sub-threshold
    approximation and all pre-0 jumps keep their P-law. Requires
    eps_jump <= a so no tail jump hides in the Gaussian approximation.
    """
    if gk.kind != "h2":
        raise UnsupportedModel("direct Q simulation needs the tail kernel")
    if config.eps_jump > gk.a:
        raise UnsupportedModel("eps_jump must not exceed the tail threshold a")

    if sim is None:
        sim = PathSimulator(triplet, config)
    rng = sim.rng_for(path_index)
    base = sim.simulate(rng)

    # keep pre-0 jumps and sub-a jumps; drop P tail jumps on (0, T]
    keep = (base.jump_times <= 0.0) | (np.abs(base.jump_sizes) <= gk.a)
    kept_t = base.jump_times[keep]
    kept_z = base.jump_sizes[keep]
    inc = base.diffuse_increments()

    n_arr = rng.poisson(gk.lam * config.T)
    arr = np.sort(rng.uniform(0.0, config.T, n_arr))

    # sequential marks: Y_{T_n-} sees everything strictly before T_n
    resp = KernelResponse(kernel, LatticePath(base.times, inc, kept_t, kept_z),
                          diffuse=inc)
    q_t, q_z, y_pre = [], [], []
    for t_n in arr:
        y = resp.y_pre(float(t_n))
        z = float(gk.mark_quantile(y, rng.random()))
        q_t.append(float(t_n))
        q_z.append(z)
        y_pre.append(y)
        resp.add_jump(t_n, z)

    return QPathRecord(
        np.asarray(q_t), np.asarray(q_z), np.asarray(y_pre), len(q_t),
    )
