"""Two-sided Levy path simulation and moving-average evaluation.

Paths live on a uniform lattice over [-M, T]. Jumps with |x| >= eps_jump
are explicit marked-Poisson atoms embedded into their cell increment; the
sub-threshold activity is either a matched-variance Gaussian or dropped
(drift-only mode). The moving average uses left-point sums for the diffuse
part and exact kernel responses phi(t - T_n) for the explicit jumps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import _backend
from .errors import InvalidConfig, KernelDomain
from .kernel import Kernel
from .levy_model import (
    Interval,
    LevyTriplet,
    ball_complement,
    levy_integrate,
    tail_law,
)


def _is_multiple(x: float, dt: float) -> bool:
    k = round(x / dt)
    return abs(x - k * dt) <= 1e-9 * max(1.0, abs(x))


@dataclass(frozen=True)
class SimConfig:
    T: float
    M: float
    dt: float
    eps_jump: float
    n_paths: int
    seed: int
    small_jump_mode: str = "gaussian-approx"

    def __post_init__(self):
        if not (self.T > 0 and self.M >= 0 and self.dt > 0 and self.eps_jump > 0):
            raise InvalidConfig("need T > 0, M >= 0, dt > 0, eps_jump > 0")
        if self.n_paths < 1:
            raise InvalidConfig("n_paths must be >= 1")
        if self.small_jump_mode not in ("gaussian-approx", "drift-only"):
            raise InvalidConfig(f"unknown small_jump_mode {self.small_jump_mode!r}")
        if not (_is_multiple(self.T, self.dt) and _is_multiple(self.M, self.dt)):
            raise InvalidConfig("dt must divide both T and M")

    @property
    def n_out(self) -> int:
        """Grid points on [0, T], inclusive."""
        return round(self.T / self.dt) + 1

    @property
    def m_cells(self) -> int:
        return round(self.M / self.dt)

    @property
    def n_cells(self) -> int:
        return self.m_cells + self.n_out - 1


@dataclass
class LatticePath:
    """One simulated path: node times, per-cell increments (jumps embedded),
    and the explicit jump list."""

    times: np.ndarray  # nodes -M = t_0 < ... < t_N = T
    increments: np.ndarray  # increment of L over (t_i, t_{i+1}]
    jump_times: np.ndarray  # strictly increasing, in (-M, T]
    jump_sizes: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def diffuse_increments(self) -> np.ndarray:
        """Increments with the explicit jumps removed from their cells."""
        out = self.increments.copy()
        if len(self.jump_times):
            idx = _cell_index(self.jump_times, float(self.times[0]), self.dt,
                              len(self.increments))
            np.subtract.at(out, idx, self.jump_sizes)
        return out

    def levy_values_from_zero(self, m_cells: int) -> np.ndarray:
        """L_t - L_0 on the output grid [0, T] (node m_cells onwards)."""
        out = np.concatenate([[0.0], np.cumsum(self.increments[m_cells:])])
        return out


def _cell_index(times, t_lo, dt, n_cells):
    # time in (t_i, t_{i+1}] maps to cell i
    idx = np.ceil((np.asarray(times) - t_lo) / dt - 1e-12).astype(int) - 1
    return np.clip(idx, 0, n_cells - 1)


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------


class PathSimulator:
    """Precomputes model quantities and generates reproducible paths.

    Path i uses the substream seeded by (seed, i), so results do not depend
    on scheduling or chunking.
    """

    def __init__(self, triplet: LevyTriplet, config: SimConfig):
        self.triplet = triplet
        self.config = config
        eps = config.eps_jump
        if eps > triplet.h.identity_radius + 1e-12:
            raise InvalidConfig(
                "eps_jump must not exceed the truncation identity radius"
            )
        self.tail = tail_law(triplet.F, ball_complement(eps, open_ends=False))
        self.jump_rate = self.tail.rate if self.tail else 0.0

        F = triplet.F
        if F.is_zero:
            self.small_var_rate = 0.0
        else:
            self.small_var_rate = levy_integrate(
                F, lambda x: x * x,
                [Interval(-eps, eps, open_lo=True, open_hi=True)],
                g_quadratic_near_zero=True,
            )
        h = triplet.h
        if F.is_zero:
            comp = 0.0
        else:
            comp = levy_integrate(F, h, ball_complement(eps, open_ends=False))
        self.drift_rate = triplet.b_h - comp

        self.times = np.linspace(-config.M, config.T, config.n_cells + 1)

    def rng_for(self, path_index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.config.seed, path_index))
        )

    def simulate(self, rng: np.random.Generator) -> LatticePath:
        cfg = self.config
        n = cfg.n_cells
        dt = cfg.dt
        inc = np.full(n, self.drift_rate * dt)
        if self.triplet.c > 0.0:
            inc += rng.normal(0.0, math.sqrt(self.triplet.c * dt), n)
        if self.small_var_rate > 0.0 and cfg.small_jump_mode == "gaussian-approx":
            inc += rng.normal(0.0, math.sqrt(self.small_var_rate * dt), n)
        if self.tail is not None:
            count = rng.poisson(self.jump_rate * (cfg.T + cfg.M))
            jt = np.sort(rng.uniform(-cfg.M, cfg.T, count))
            jz = self.tail.sample(count, rng)
            idx = _cell_index(jt, -cfg.M, dt, n)
            np.add.at(inc, idx, jz)
        else:
            jt = np.empty(0)
            jz = np.empty(0)
        return LatticePath(self.times, inc, jt, jz)

    def simulate_index(self, path_index: int) -> LatticePath:
        return self.simulate(self.rng_for(path_index))


def simulate_levy(
    triplet: LevyTriplet, config: SimConfig, rng: np.random.Generator
) -> LatticePath:
    """One path; see PathSimulator for ensemble use."""
    return PathSimulator(triplet, config).simulate(rng)


# ---------------------------------------------------------------------------
# moving averages
# ---------------------------------------------------------------------------


@dataclass
class MovingAveragePath:
    times: np.ndarray  # grid on [0, T]
    X: np.ndarray
    Y: np.ndarray
    X0: float
    truncation_bias_bound: float | None = None


def _weight_table(fn, n_lags: int, dt: float) -> np.ndarray:
    lags = np.arange(n_lags + 1) * dt
    w = np.asarray(fn(lags), dtype=float)
    if not np.all(np.isfinite(w)):
        raise KernelDomain("kernel not finite at required lags")
    return w


def _jump_response(fn, out_times, jt, jz, out):
    for t_n, z_n in zip(jt, jz):
        mask = out_times >= t_n
        out[mask] += z_n * np.asarray(fn(out_times[mask] - t_n), dtype=float)


def moving_average(kernel: Kernel, path: LatticePath, m_cells: int | None = None
                   ) -> MovingAveragePath:
    """X and Y = phi'-average on the output grid [0, T]."""
    dt = path.dt
    n = len(path.increments)
    if m_cells is None:
        m_cells = int(round(-path.times[0] / dt))
    n_out = n - m_cells + 1
    out_times = path.times[m_cells:]

    diffuse = path.diffuse_increments()
    w_phi = _weight_table(kernel, n, dt)
    w_dphi = _weight_table(kernel.dphi, n, dt)
    if np.any(diffuse):
        row = np.ascontiguousarray(diffuse[None, :])
        r_phi, r_dphi = kernel.recursion(dt)
        X = _backend.ma_correlate(row, w_phi, n_out, m_cells, r_phi)[0]
        Y = _backend.ma_correlate(row, w_dphi, n_out, m_cells, r_dphi)[0]
    else:
        X = np.zeros(n_out)
        Y = np.zeros(n_out)
    _jump_response(kernel, out_times, path.jump_times, path.jump_sizes, X)
    _jump_response(kernel.dphi, out_times, path.jump_times, path.jump_sizes, Y)
    return MovingAveragePath(
        out_times, X, Y, float(X[0]),
        truncation_bias_bound=kernel.truncation_bias_bound(-float(path.times[0])),
    )


class KernelResponse:
    """Exact kernel responses of one path at arbitrary times.

    The diffuse part is a left-point sum over the cells whose left node
    lies before t; each explicit jump adds its exact response. Whether the
    path has any diffuse activity is decided once, at construction.
    """

    def __init__(self, kernel: Kernel, path: LatticePath,
                 diffuse: np.ndarray | None = None):
        self.kernel = kernel
        self.left = path.times[:-1]
        self.diffuse = path.diffuse_increments() if diffuse is None else diffuse
        self.have_diffuse = bool(self.diffuse.any())
        self.jump_times = path.jump_times
        self.jump_sizes = path.jump_sizes

    def x_at(self, t) -> float:
        """X_t: kernel responses of the jumps at or before t."""
        return self._at(self.kernel, t, self.jump_times <= t)

    def y_pre(self, t) -> float:
        """Y_{t-}: phi' responses of the jumps strictly before t."""
        return self._at(self.kernel.dphi, t, self.jump_times < t)

    def add_jump(self, t: float, z: float) -> None:
        """Insert one explicit jump, keeping the jump list sorted."""
        jt = np.concatenate([self.jump_times, [t]])
        jz = np.concatenate([self.jump_sizes, [z]])
        order = np.argsort(jt)
        self.jump_times, self.jump_sizes = jt[order], jz[order]

    def _at(self, fn, t, jumps) -> float:
        total = 0.0
        if self.have_diffuse:
            m = self.left < t
            if m.any():
                total += float(np.dot(np.asarray(fn(t - self.left[m]), dtype=float),
                                      self.diffuse[m]))
        if jumps.any():
            total += float(np.dot(
                np.asarray(fn(t - self.jump_times[jumps]), dtype=float),
                self.jump_sizes[jumps]))
        return total


def y_at(kernel: Kernel, path: LatticePath, t: float,
         diffuse: np.ndarray | None = None) -> float:
    """Predictable drift value Y_{t-}: diffuse cells with left node < t plus
    exact responses of jumps strictly before t."""
    return KernelResponse(kernel, path, diffuse).y_pre(t)


def extract_jump_measure(path: LatticePath, window: tuple[float, float]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Explicit jumps (T_n, Z_n) with T_n in (window[0], window[1]]."""
    lo, hi = window
    mask = (path.jump_times > lo) & (path.jump_times <= hi)
    return path.jump_times[mask], path.jump_sizes[mask]


def decomposition_residual(kernel: Kernel, path: LatticePath,
                           ma: MovingAveragePath, m_cells: int) -> np.ndarray:
    """Per grid point: X_t - X_0 - phi(0) L_t - sum_{s<t} Y_s dt."""
    dt = path.dt
    L = path.levy_values_from_zero(m_cells)
    drift = np.concatenate([[0.0], np.cumsum(ma.Y[:-1]) * dt])
    return ma.X - ma.X0 - kernel.phi0 * L - drift


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_path_csv(fobj, path: LatticePath, ma: MovingAveragePath,
                   m_cells: int) -> None:
    writer = csv.writer(fobj)
    writer.writerow(["time", "L", "X", "Y"])
    L = path.levy_values_from_zero(m_cells)
    for t, l, x, y in zip(ma.times, L, ma.X, ma.Y):
        writer.writerow([f"{t:.10g}", f"{l:.10g}", f"{x:.10g}", f"{y:.10g}"])


def write_jumps_csv(fobj, jump_records) -> None:
    """jump_records: iterable of (path_id, T_n, Z_n)."""
    writer = csv.writer(fobj)
    writer.writerow(["path_id", "jump_time", "jump_size"])
    for pid, t, z in jump_records:
        writer.writerow([pid, f"{t:.10g}", f"{z:.10g}"])
