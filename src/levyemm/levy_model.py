"""Levy triplets, Levy measures and truncation conventions.

Measures come in three representations: a finite atom list (the canonical
exact-arithmetic test representation), an evaluable density on R \\ {0},
and the zero measure (pure Gaussian models). All integrals against a
measure go through :func:`levy_integrate`, which is an exact sum for atoms
and adaptive quadrature for densities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate as _sciint

from .errors import InvalidRegion, NonIntegrable, UnsupportedModel

# quadrature defaults (see module design notes in README)
ABS_TOL = 1e-10
REL_TOL = 1e-8
_EPS_IN = 1e-6  # split point for the analytic near-zero correction


@dataclass(frozen=True)
class Interval:
    """One interval of an integration region; endpoints may be +-inf."""

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        left = x > self.lo if self.open_lo else x >= self.lo
        right = x < self.hi if self.open_hi else x <= self.hi
        return left & right


def ball_complement(a: float, *, open_ends: bool = True) -> list[Interval]:
    """Region [-a, a]^c, i.e. |x| > a."""
    return [
        Interval(-math.inf, -a, open_hi=open_ends),
        Interval(a, math.inf, open_lo=open_ends),
    ]


def band_region(a: float, b: float) -> list[Interval]:
    """Region {x : a < |x| < b} as two open intervals."""
    return [Interval(-b, -a, True, True), Interval(a, b, True, True)]


FULL_LINE = [Interval(-math.inf, math.inf)]


# ---------------------------------------------------------------------------
# truncation functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationFunction:
    """Bounded h with h(x) = x near 0, fixing the small/large jump split.

    kind is one of:
      * ``inside``: h(x) = x 1_{[-a,a]}(x)
      * ``outside-band``: h(x) = x 1_{(a,b)^c}(|x|); not a genuine truncation
        (unbounded), admitted only for measures with integrable large jumps
      * ``custom``: user-supplied map, with a declared identity radius
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    func: Callable[[np.ndarray], np.ndarray] | None = None
    identity_radius_custom: float = 0.0

    def __post_init__(self):
        if self.kind not in ("inside", "outside-band", "custom"):
            raise ValueError(f"unknown truncation kind {self.kind!r}")
        if self.kind == "inside" and not self.a > 0:
            raise ValueError("inside truncation needs a > 0")
        if self.kind == "outside-band" and not 0 < self.a < self.b:
            raise ValueError("outside-band truncation needs 0 < a < b")
        if self.kind == "custom" and (
            self.func is None or not self.identity_radius_custom > 0
        ):
            raise ValueError("custom truncation needs func and identity radius")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "inside":
            return np.where(np.abs(x) <= self.a, x, 0.0)
        if self.kind == "outside-band":
            in_band = (np.abs(x) > self.a) & (np.abs(x) < self.b)
            return np.where(in_band, 0.0, x)
        return np.asarray(self.func(x), dtype=float)

    @property
    def identity_radius(self) -> float:
        if self.kind == "custom":
            return self.identity_radius_custom
        return self.a

    @property
    def bounded(self) -> bool:
        return self.kind != "outside-band"

    def nonidentity_region(self) -> list[Interval]:
        """Intervals where h(x) != x (up to measure-zero endpoints)."""
        if self.kind == "inside":
            return ball_complement(self.a)
        if self.kind == "outside-band":
            return band_region(self.a, self.b)
        return ball_complement(self.identity_radius_custom)


def indicator_inside(a: float) -> TruncationFunction:
    return TruncationFunction("inside", a=a)


def indicator_outside_band(a: float, b: float) -> TruncationFunction:
    return TruncationFunction("outside-band", a=a, b=b)


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------


class LevyMeasure:
    """Base class; see :class:`DiscreteMeasure`, :class:`DensityMeasure`,
    :class:`ZeroMeasure`."""

    support_descriptor: str = "unbounded-both"
    name: str | None = None
    params: dict = {}

    @property
    def is_zero(self) -> bool:
        return False


class ZeroMeasure(LevyMeasure):
    """F = 0; the driving process is Gaussian plus drift."""

    support_descriptor = "empty"
    name = "gaussian-only"

    @property
    def is_zero(self) -> bool:
        return True

    def __repr__(self):
        return "ZeroMeasure()"


class DiscreteMeasure(LevyMeasure):
    """Finite atom list: F = sum_i w_i delta_{x_i}, x_i != 0, w_i > 0."""

    def __init__(self, atoms: Sequence[tuple[float, float]]):
        arr = np.asarray(atoms, dtype=float).reshape(-1, 2)
        if arr.size == 0:
            raise ValueError("use ZeroMeasure for an empty measure")
        if np.any(arr[:, 0] == 0.0):
            raise ValueError("atoms at 0 are not allowed")
        if np.any(arr[:, 1] <= 0.0):
            raise ValueError("atom weights must be positive")
        order = np.argsort(arr[:, 0])
        self.x = arr[order, 0].copy()
        self.w = arr[order, 1].copy()
        self.name = "discrete"
        self.params = {"atoms": [(float(a), float(b)) for a, b in zip(self.x, self.w)]}
        has_pos = bool(np.any(self.x > 0))
        has_neg = bool(np.any(self.x < 0))
        if has_pos and has_neg:
            self.support_descriptor = "compact"
        elif has_pos:
            self.support_descriptor = "one-sided-positive"
        else:
            self.support_descriptor = "one-sided-negative"

    def __repr__(self):
        return f"DiscreteMeasure({list(zip(self.x, self.w))})"


class DensityMeasure(LevyMeasure):
    """Measure with an evaluable density on R \\ {0}.

    origin_exponent declares the small-x singularity: density ~ C |x|^{-p-1}
    with p = origin_exponent as x -> 0 (None means bounded near 0). The
    tail flags declare what the user asserts about large-jump integrability;
    they are not inferred.
    """

    def __init__(
        self,
        density: Callable[[np.ndarray], np.ndarray],
        *,
        origin_exponent: float | None = None,
        tail_integrable: bool | None = None,
        support: tuple[float, float] = (-math.inf, math.inf),
        support_descriptor: str | None = None,
        name: str | None = None,
        params: dict | None = None,
        breakpoints: Sequence[float] = (),
    ):
        if origin_exponent is not None and origin_exponent >= 2.0:
            raise ValueError("origin exponent must be < 2 for a Levy measure")
        self.density = density
        self.origin_exponent = origin_exponent
        self.tail_integrable = tail_integrable
        self.support = (float(support[0]), float(support[1]))
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self.name = name or "density"
        self.params = params or {}
        if support_descriptor is not None:
            self.support_descriptor = support_descriptor
        elif math.isinf(self.support[0]) and math.isinf(self.support[1]):
            self.support_descriptor = "unbounded-both"
        else:
            self.support_descriptor = "compact"

    def __repr__(self):
        return f"DensityMeasure(name={self.name!r}, params={self.params})"


def symmetric_alpha_stable(alpha: float, scale: float = 1.0) -> DensityMeasure:
    """F(dx) = scale * |x|^{-alpha-1} dx, alpha in (0, 2)."""
    if not 0 < alpha < 2:
        raise ValueError("alpha must be in (0, 2)")

    def dens(x):
        return scale * np.abs(x) ** (-alpha - 1.0)

    return DensityMeasure(
        dens,
        origin_exponent=alpha,
        tail_integrable=alpha > 1.0,
        name="symmetric-alpha-stable",
        params={"alpha": alpha, "scale": scale},
    )


def tempered_stable(eta: float, lam: float, alpha: float) -> DensityMeasure:
    """F(dx) = eta |x|^{-alpha-1} e^{-lam |x|} dx."""
    if not (eta > 0 and lam > 0 and 0 < alpha < 2):
        raise ValueError("need eta, lam > 0 and alpha in (0, 2)")

    def dens(x):
        ax = np.abs(x)
        return eta * ax ** (-alpha - 1.0) * np.exp(-lam * ax)

    return DensityMeasure(
        dens,
        origin_exponent=alpha,
        tail_integrable=True,
        name="tempered-stable",
        params={"eta": eta, "lam": lam, "alpha": alpha},
    )


def uniform_band(a: float, b: float, height: float = 1.0) -> DensityMeasure:
    """Constant density on {a < |x| < b}; compact two-sided support."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")

    def dens(x):
        ax = np.abs(x)
        return np.where((ax > a) & (ax < b), height, 0.0)

    return DensityMeasure(
        dens,
        origin_exponent=None,
        tail_integrable=True,
        support=(-b, b),
        support_descriptor="compact",
        name="uniform-band",
        params={"a": a, "b": b, "height": height},
        breakpoints=(-b, -a, a, b),
    )


def gaussian_only() -> ZeroMeasure:
    return ZeroMeasure()


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def _as_intervals(region) -> list[Interval]:
    if region is None:
        return list(FULL_LINE)
    if isinstance(region, Interval):
        return [region]
    return list(region)


def _quad_raw(fn, lo, hi, abs_tol, rel_tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error", _sciint.IntegrationWarning)
        try:
            val, err = _sciint.quad(fn, lo, hi, epsabs=abs_tol, epsrel=rel_tol, limit=400)
        except _sciint.IntegrationWarning as exc:
            raise NonIntegrable(f"quadrature on ({lo}, {hi}) did not converge: {exc}")
    if not math.isfinite(val):
        raise NonIntegrable(f"quadrature on ({lo}, {hi}) returned {val}")
    if abs(err) > 100 * max(abs_tol, rel_tol * abs(val)):
        raise NonIntegrable(
            f"quadrature on ({lo}, {hi}) error estimate {err:.2e} exceeds tolerance"
        )
    return val


def _quad(fn, lo, hi, abs_tol, rel_tol):
    try:
        return _quad_raw(fn, lo, hi, abs_tol, rel_tol)
    except NonIntegrable:
        # retry a far semi-infinite tail under x = edge/s; the map pulls a
        # slowly convergent tail into an endpoint singularity quad resolves,
        # while genuinely divergent tails still diverge at s = 0
        if hi == math.inf and lo > 0.0:
            return _quad_raw(
                lambda s: fn(lo / s) * lo / (s * s), 0.0, 1.0, abs_tol, rel_tol
            )
        if lo == -math.inf and hi < 0.0:
            return _quad_raw(
                lambda s: fn(hi / s) * (-hi) / (s * s), 0.0, 1.0, abs_tol, rel_tol
            )
        raise


def levy_integrate(
    F: LevyMeasure,
    g,
    region=None,
    *,
    g_quadratic_near_zero: bool = False,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> float:
    """Integral of g against F over the region (default: all of R \\ {0}).

    g may be a callable or a constant. Exact atom sum for discrete F;
    adaptive quadrature for density F, with an analytic power-law correction
    on (0, eps) when the region touches 0 and g is declared quadratic there.
    """
    if F.is_zero:
        return 0.0
    if not callable(g):
        g_const = float(g)
        g = lambda x: np.full_like(np.asarray(x, dtype=float), g_const)  # noqa: E731

    intervals = _as_intervals(region)

    if isinstance(F, DiscreteMeasure):
        total = 0.0
        for iv in intervals:
            mask = iv.contains(F.x)
            if np.any(mask):
                total += float(np.sum(np.asarray(g(F.x[mask]), dtype=float) * F.w[mask]))
        return total

    assert isinstance(F, DensityMeasure)
    lo_s, hi_s = F.support

    def integrand(x):
        xv = np.asarray(x, dtype=float)
        return float(np.asarray(g(xv), dtype=float) * np.asarray(F.density(xv), dtype=float))

    total = 0.0
    for iv in intervals:
        lo = max(iv.lo, lo_s)
        hi = min(iv.hi, hi_s)
        if lo >= hi:
            continue
        cuts = [b for b in F.breakpoints if lo < b < hi]
        if lo < 0.0 < hi:
            cuts = sorted(set(cuts) | {0.0})
        edges = [lo, *cuts, hi]
        pieces = list(zip(edges[:-1], edges[1:]))
        for plo, phi in pieces:
            if plo == 0.0 or phi == 0.0:
                if F.origin_exponent is not None and not g_quadratic_near_zero:
                    raise InvalidRegion(
                        "region touches 0 with a non-quadratic integrand on a "
                        "singular density"
                    )
                if F.origin_exponent is not None:
                    # analytic tail-in: integrand ~ K |x|^{1-p} near 0
                    p = F.origin_exponent
                    eps = _EPS_IN
                    if plo == 0.0:
                        edge = integrand(eps)
                        total += edge * eps / (2.0 - p)
                        total += _quad(integrand, eps, phi, abs_tol, rel_tol)
                    else:
                        edge = integrand(-eps)
                        total += edge * eps / (2.0 - p)
                        total += _quad(integrand, plo, -eps, abs_tol, rel_tol)
                    continue
            total += _quad(integrand, plo, phi, abs_tol, rel_tol)
    return total


def tail_mass(F: LevyMeasure, a: float) -> float:
    """F([-a, a]^c); finite for every a > 0 by Levy integrability."""
    if a <= 0:
        raise ValueError("a must be > 0")
    return levy_integrate(F, 1.0, ball_complement(a))


def band_masses(F: LevyMeasure, a: float, b: float) -> tuple[float, float]:
    """(F((-b,-a)), F((a,b))); min > 0 is the two-sided band predicate."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    neg = levy_integrate(F, 1.0, [Interval(-b, -a, True, True)])
    pos = levy_integrate(F, 1.0, [Interval(a, b, True, True)])
    return neg, pos


def first_abs_moment_tail(F: LevyMeasure, r: float = 1.0) -> float:
    """Integral of |x| over {|x| > r}; inf when the user-declared tail flag
    says the measure has non-integrable large jumps."""
    if F.is_zero:
        return 0.0
    if isinstance(F, DensityMeasure):
        if F.tail_integrable is False:
            return math.inf
        if F.tail_integrable is None:
            raise NonIntegrable(
                "density measure has no declared tail integrability flag"
            )
    return levy_integrate(F, lambda x: np.abs(x), ball_complement(r))


# ---------------------------------------------------------------------------
# tail laws: F restricted beyond a threshold, normalized
# ---------------------------------------------------------------------------

_MASS_FLOOR = 1e-12  # least conditional mass an admissible zeta leaves
_GRID_PTS_PER_DECADE = 512
_GRID_REL_TOL = 1e-10  # share of the tail a side may leave beyond its grid


class TailLaw:
    """Normalized restriction of F to |x| > r (open region) or |x| >= r
    (closed), with its total mass as `rate`.

    quantile(u) inverts the law at u in [0, 1) and sample draws marks
    through it; mass_below(z) = P(X < z) and partial_mean_below(z)
    = E[X 1_{X < z}] are the queries lambda_of_zeta needs. All three take
    arrays. mean is NaN when the tail has no first moment. zeta_lo <
    zeta_hi bound the levels that leave both conditional masses above
    _MASS_FLOOR.
    """

    rate: float
    mean: float
    zeta_lo: float
    zeta_hi: float

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.quantile(rng.random(n))

    def quantile(self, u):
        raise NotImplementedError

    def mass_below(self, z):
        raise NotImplementedError

    def partial_mean_below(self, z):
        raise NotImplementedError


class DiscreteTailLaw(TailLaw):
    """The atoms x (ascending) in the region with their raw weights w."""

    def __init__(self, x: np.ndarray, w: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.rate = float(np.sum(self.w))
        self.p = self.w / np.sum(self.w)
        cum_p = np.cumsum(self.p)
        # P(X < x_i), and the cumulative mass renormalised the way
        # Generator.choice does, so quantile reproduces its draws
        self._below = np.concatenate([[0.0], cum_p])
        self._cdf = cum_p / cum_p[-1]
        self._xp_below = np.concatenate([[0.0], np.cumsum(self.x * self.p)])
        self.mean = float(self._xp_below[-1])
        self.zeta_lo = float(self.x[0])
        self.zeta_hi = float(self.x[-1])

    def quantile(self, u):
        i = np.searchsorted(self._cdf, u, side="right")
        return self.x[np.minimum(i, len(self.x) - 1)]

    def mass_below(self, z):
        return self._below[np.searchsorted(self.x, z, side="left")]

    def partial_mean_below(self, z):
        return self._xp_below[np.searchsorted(self.x, z, side="left")]


class StableTailLaw(TailLaw):
    """F(dx) = scale |x|^{-alpha-1} dx beyond r in closed form: each side
    holds half the mass, |X| = r U^{-1/alpha} is Pareto, and the partial
    first moments exist for alpha > 1."""

    def __init__(self, alpha: float, scale: float, r: float):
        self.alpha = alpha
        self.r = r
        self.rate = 2.0 * scale * r ** (-alpha) / alpha
        # E[X 1_{X < -r}] = -c; NaN when the tail has no first moment
        self._c = alpha * r / (2.0 * (alpha - 1.0)) if alpha > 1.0 else math.nan
        self.mean = 0.0 if alpha > 1.0 else math.nan
        self.zeta_hi = r * (2.0 * _MASS_FLOOR) ** (-1.0 / alpha)
        self.zeta_lo = -self.zeta_hi

    def sample(self, n, rng):
        # a Pareto magnitude and a sign: two draws, kept for the stream
        u = rng.uniform(size=n)
        mag = self.r * u ** (-1.0 / self.alpha)
        sign = rng.choice([-1.0, 1.0], size=n)
        return sign * mag

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        side = np.minimum(u, 1.0 - u)  # P(|X| >= |x|) / 2 on x's side
        return np.where(u < 0.5, -1.0, 1.0) * self.r * (2.0 * side) ** (-1.0 / self.alpha)

    def mass_below(self, z):
        # half of P(|X| >= max(|z|, r)) on the side of z
        share = 0.5 * (np.maximum(np.abs(z), self.r) / self.r) ** (-self.alpha)
        return np.where(np.asarray(z) < 0.0, share, 1.0 - share)

    def partial_mean_below(self, z):
        return -self._c * (np.maximum(np.abs(z), self.r) / self.r) ** (1.0 - self.alpha)


class GridTailLaw(TailLaw):
    """Simpson cumulative mass and first moment on one two-sided,
    log-spaced grid; marks by inverse-CDF interpolation.

    Every breakpoint of F beyond r is a node, and the density is taken as
    its one-sided limit at each node, so a piecewise-constant density is
    integrated exactly.
    """

    def __init__(self, F: DensityMeasure, r: float):
        moment = F.tail_integrable is not False
        sides = []
        for sgn in (-1.0, 1.0):
            top = _tail_extent(F, r, sgn, moment)
            n = 1 if top <= r else max(
                64, int(_GRID_PTS_PER_DECADE * math.log10(top / r)))
            bps = [sgn * b for b in F.breakpoints if r < sgn * b < top]
            sides.append(np.union1d(np.geomspace(r, top, n), bps))
        x = np.concatenate([-sides[0][::-1], sides[1]])
        gap = len(sides[0]) - 1  # the segment (-r, r) holds no mass
        mid = 0.5 * (x[:-1] + x[1:])
        mid[gap] = r  # keeps the density away from 0
        d_lo, d_mid, d_hi = (np.asarray(F.density(v), dtype=float) for v in (
            np.nextafter(x[:-1], math.inf), mid, np.nextafter(x[1:], -math.inf)))
        dx = np.diff(x) / 6.0
        mass = (d_lo + 4.0 * d_mid + d_hi) * dx
        first = (x[:-1] * d_lo + 4.0 * mid * d_mid + x[1:] * d_hi) * dx
        mass[gap] = first[gap] = 0.0
        cum = np.concatenate([[0.0], np.cumsum(mass)])
        self.x = x
        self.rate = float(cum[-1])
        if self.rate <= 0.0:
            return
        self.cum_p = cum / self.rate
        self.cum_xp = np.concatenate([[0.0], np.cumsum(first)]) / self.rate
        self.mean = float(self.cum_xp[-1]) if moment else math.nan
        lo_q = np.searchsorted(self.cum_p, _MASS_FLOOR)
        hi_q = np.searchsorted(self.cum_p, 1.0 - _MASS_FLOOR)
        self.zeta_lo = float(x[min(lo_q, len(x) - 1)])
        self.zeta_hi = float(x[min(hi_q, len(x) - 1)])

    def quantile(self, u):
        return np.interp(u, self.cum_p, self.x)

    def mass_below(self, z):
        return np.interp(z, self.x, self.cum_p, left=0.0, right=1.0)

    def partial_mean_below(self, z):
        return np.interp(z, self.x, self.cum_xp, left=0.0, right=self.mean)


def _tail_extent(F: DensityMeasure, r: float, sgn: float, moment: bool) -> float:
    """Magnitude past which one side of the tail beyond r is negligible.

    Doubles [lo, 2 lo] from lo = r. Stops at the edge of the support, or
    once the side has mass, its last breakpoint is passed and a step adds
    less than _GRID_REL_TOL of the first moment (of the mass when the tail
    is not integrable).
    """
    edge = F.support[1] if sgn > 0 else -F.support[0]
    last = max([sgn * b for b in F.breakpoints], default=r)
    weight = (lambda x: np.abs(x)) if moment else 1.0
    lo, total = r, 0.0
    for _ in range(200):
        if lo >= edge:
            return max(r, edge)
        hi = 2.0 * lo
        seg = Interval(lo, hi) if sgn > 0 else Interval(-hi, -lo)
        step = levy_integrate(F, weight, [seg])
        total += step
        lo = hi
        if total > 0.0 and lo >= last and step < _GRID_REL_TOL * total:
            return lo
    raise UnsupportedModel("the tail beyond the threshold did not localize")


def tail_law(F: LevyMeasure, region: list[Interval]) -> TailLaw | None:
    """Law of the jumps of F in region = ball_complement(r, open_ends=...);
    None when the region holds no mass. Interval.contains decides whether
    atoms at +-r belong to it."""
    if F.is_zero:
        return None
    if isinstance(F, DiscreteMeasure):
        mask = np.any([iv.contains(F.x) for iv in region], axis=0)
        return DiscreteTailLaw(F.x[mask], F.w[mask]) if mask.any() else None
    r = region[-1].lo
    if F.name == "symmetric-alpha-stable":
        return StableTailLaw(F.params["alpha"], F.params["scale"], r)
    law = GridTailLaw(F, r)
    return law if law.rate > 0.0 else None


# ---------------------------------------------------------------------------
# triplets
# ---------------------------------------------------------------------------


@dataclass
class LevyTriplet:
    """Characteristic triplet (c, F, b^h) relative to a truncation h."""

    c: float
    F: LevyMeasure
    b_h: float
    h: TruncationFunction
    integrable: bool = True  # user flag: integral of |x| over |x|>1 is finite

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("Gaussian variance rate c must be >= 0")
        if not self.h.bounded and not self.integrable:
            raise ValueError(
                "the outside-band pseudo-truncation requires integrable large jumps"
            )
        if self.integrable and not self.F.is_zero:
            if math.isinf(first_abs_moment_tail(self.F)):
                raise NonIntegrable(
                    "integrable flag set but large-jump first moment diverges"
                )

    def xi(self) -> float:
        """Mean rate: E[L_t] = xi * t."""
        if not self.integrable:
            raise NonIntegrable("xi requires the integrable-L flag")
        if self.F.is_zero:
            return self.b_h
        if isinstance(self.F, DiscreteMeasure):
            corr = float(np.sum((self.F.x - self.h(self.F.x)) * self.F.w))
        else:
            h = self.h
            corr = levy_integrate(
                self.F, lambda x: x - h(x), h.nonidentity_region()
            )
        return corr + self.b_h


def drift_xi(triplet: LevyTriplet) -> float:
    """xi = integral of (x - h(x)) dF + b^h."""
    return triplet.xi()


def retriplet(triplet: LevyTriplet, h_new: TruncationFunction) -> LevyTriplet:
    """Same law of L, different truncation: b^{h'} = b^h + int (h' - h) dF."""
    F = triplet.F
    if F.is_zero:
        corr = 0.0
    elif isinstance(F, DiscreteMeasure):
        corr = float(np.sum((h_new(F.x) - triplet.h(F.x)) * F.w))
    else:
        r = min(triplet.h.identity_radius, h_new.identity_radius)
        h_old = triplet.h
        corr = levy_integrate(
            F, lambda x: h_new(x) - h_old(x), ball_complement(r)
        )
    return LevyTriplet(
        c=triplet.c, F=F, b_h=triplet.b_h + corr, h=h_new, integrable=triplet.integrable
    )


def support_probe(F: LevyMeasure, K: float) -> dict:
    """Mass probes at +-K, +-2K used to cross-check the asserted descriptor."""
    probes = {
        "beyond_K": tail_mass(F, K) if not F.is_zero else 0.0,
        "beyond_2K": tail_mass(F, 2 * K) if not F.is_zero else 0.0,
        "descriptor": F.support_descriptor,
    }
    return probes
