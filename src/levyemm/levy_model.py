"""Levy triplets, Levy measures and truncation conventions.

Measures come in three representations: a finite atom list (the canonical
exact-arithmetic test representation), an evaluable density on R \\ {0},
and the zero measure (pure Gaussian models). All integrals against a
measure go through :func:`levy_integrate`, which is an exact sum for atoms
and adaptive quadrature for densities, except in :func:`tail_law`: F
beyond a threshold is read from the atoms, or from the closed forms of a
density's upper tail that its constructor supplies (none, no tail law).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy

from .errors import InvalidRegion, NonIntegrable, UnsupportedModel

# quadrature tolerances (see module design notes in README)
ABS_TOL = 1e-10
REL_TOL = 1e-8
_EPS_IN = 1e-6  # split point for the analytic near-zero correction
_NEWTON_TOL = 1e-12  # Newton stops once every step is below this share of its mark
_NEWTON_STEPS = 60


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
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("inside", "outside-band"):
            raise ValueError(f"unknown truncation kind {self.kind!r}")
        if self.kind == "inside" and not self.a > 0:
            raise ValueError("inside truncation needs a > 0")
        if self.kind == "outside-band" and not 0 < self.a < self.b:
            raise ValueError("outside-band truncation needs 0 < a < b")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "inside":
            return np.where(np.abs(x) <= self.a, x, 0.0)
        in_band = (np.abs(x) > self.a) & (np.abs(x) < self.b)
        return np.where(in_band, 0.0, x)

    @property
    def identity_radius(self) -> float:
        return self.a

    @property
    def bounded(self) -> bool:
        return self.kind != "outside-band"

    def nonidentity_region(self) -> list[Interval]:
        """Intervals where h(x) != x (up to measure-zero endpoints)."""
        if self.kind == "inside":
            return ball_complement(self.a)
        return band_region(self.a, self.b)


def indicator_inside(a: float) -> TruncationFunction:
    return TruncationFunction("inside", a=a)


def indicator_outside_band(a: float, b: float) -> TruncationFunction:
    return TruncationFunction("outside-band", a=a, b=b)


# ---------------------------------------------------------------------------
# Levy measures
# ---------------------------------------------------------------------------


class LevyMeasure:
    """Base class; see :class:`DiscreteMeasure`, :class:`DensityMeasure`,
    :class:`ZeroMeasure`. name is a label for reports; power_law is
    declared by a density measure (see there)."""

    support_descriptor: str = "unbounded-both"
    name: str | None = None
    power_law: tuple[float, float] | None = None

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
        if not np.isfinite(arr).all():
            raise ValueError("atom positions and weights must be finite")
        if np.any(arr[:, 0] == 0.0):
            raise ValueError("atoms at 0 are not allowed")
        if np.any(arr[:, 1] <= 0.0):
            raise ValueError("atom weights must be positive")
        order = np.argsort(arr[:, 0])
        self.x = arr[order, 0].copy()
        self.w = arr[order, 1].copy()
        self.name = "discrete"
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

    upper_tail = (mass, moment, inverse), for a density symmetric about 0,
    gives its tail law (`tail_law` refuses a density without it): S(m) =
    F([m, inf)), int_{x >= m} x F(dx) (inf if it diverges) and the m >= r
    with S(m) = q S(r) (inf at q = 0), each on an array m or q.
    power_law = (alpha, scale) declares the symmetric alpha-stable density
    scale |x|^{-alpha-1}, whose density condition is a closed form in
    ||phi'||_alpha^alpha (`kernel.density_condition`).
    """

    def __init__(
        self,
        density: Callable[[np.ndarray], np.ndarray],
        *,
        origin_exponent: float | None = None,
        tail_integrable: bool | None = None,
        support: tuple[float, float] = (-math.inf, math.inf),
        name: str | None = None,
        power_law: tuple[float, float] | None = None,
        breakpoints: Sequence[float] = (),
        upper_tail: tuple[Callable, Callable, Callable] | None = None,
    ):
        if origin_exponent is not None and origin_exponent >= 2.0:
            raise ValueError("origin exponent must be < 2 for a Levy measure")
        self.density = density
        self.origin_exponent = origin_exponent
        self.tail_integrable = tail_integrable
        self.support = (float(support[0]), float(support[1]))
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self.name = name or "density"
        self.power_law = power_law
        self.upper_tail = upper_tail
        if math.isinf(self.support[0]) and math.isinf(self.support[1]):
            self.support_descriptor = "unbounded-both"
        else:
            self.support_descriptor = "compact"

    def __repr__(self):
        return f"DensityMeasure(name={self.name!r}, power_law={self.power_law})"


def symmetric_alpha_stable(alpha: float, scale: float = 1.0) -> DensityMeasure:
    """F(dx) = scale * |x|^{-alpha-1} dx, alpha in (0, 2)."""
    if not 0 < alpha < 2:
        raise ValueError("alpha must be in (0, 2)")

    def dens(x):
        return scale * np.abs(x) ** (-alpha - 1.0)

    def mass(m):
        return scale * m ** -alpha / alpha

    def moment(m):  # infinite for alpha <= 1
        return (scale / (alpha - 1.0) if alpha > 1.0 else math.inf) * m ** (1.0 - alpha)

    def inverse(q, r):
        return r * q ** (-1.0 / alpha)

    return DensityMeasure(
        dens,
        origin_exponent=alpha,
        tail_integrable=alpha > 1.0,
        name="symmetric-alpha-stable",
        power_law=(alpha, scale),
        upper_tail=(mass, moment, inverse),
    )


# Gamma(s, z) is taken from Legendre's continued fraction from this z on,
# where it needs at most about 45 terms, and from the recurrence below it
_FRACTION_FROM = 3.0


def _upper_gamma(s: float, z):
    """Gamma(s, z) = int_z^inf t^{s-1} e^{-t} dt for s in (-2, 1), z > 0:
    `_gamma_fraction` from z = _FRACTION_FROM on, `_gamma_recurrence`
    below it."""
    z = np.asarray(z, dtype=float)
    far = z >= _FRACTION_FROM
    out = np.empty(z.shape)
    out[far] = _gamma_fraction(s, z[far])
    out[~far] = _gamma_recurrence(s, z[~far])
    return out


# a recurrence top within this of 1 starts one step lower (`_gamma_recurrence`)
_NEAR_ONE = 1.0 / 16


def _gamma_recurrence(s: float, z: np.ndarray) -> np.ndarray:
    """Gamma(s, z): gammaincc (exp1 at 0) at top = s + n in [0, 1), then
    n steps down by Gamma(s, z) = (Gamma(s + 1, z) - z^s e^{-z}) / s, each
    of which loses about a factor z of relative precision. From a top
    within _NEAR_ONE of 1 the first step would divide by top - 1, near 0,
    and lose about eps / |top - 1| to cancellation; the steps then start
    one lower, from `_gamma_near_zero` at top - 1."""
    n = math.ceil(-s)
    top = s + n
    if n and 1.0 - top <= _NEAR_ONE:
        n -= 1
        top = s + n  # exact: s, or s + 1 for s in [-1 - _NEAR_ONE, -1)
        out = _gamma_near_zero(top, z)
    elif top == 0.0:
        out = scipy.special.exp1(z)
    else:
        out = scipy.special.gammaincc(top, z) * math.gamma(top)
    decay = np.exp(-z)
    for k in range(1, n + 1):
        out = (out - z ** (top - k) * decay) / (top - k)
    return out


def _gamma_near_zero(s: float, z: np.ndarray) -> np.ndarray:
    """Gamma(s, z) for s in [-_NEAR_ONE, 0) and z below _FRACTION_FROM:
    E1(z) = Gamma(0, z) plus the difference of the lower series of the two,
    (Gamma(1 + s) - 1) / s + euler - ((z^s - 1) / s - log z)
    - sum_{k>=1} (-z)^k / k! (k (z^s - 1) - s) / (k (s + k)),
    whose terms are each O(s) and formed without cancelling: z^s - 1 by
    expm1, and Gamma(1 + s) from log Gamma(1 + s) = s (c - euler) with
    c = sum_{k>=2} zeta(k) (-s)^k / (k s)."""
    j = np.arange(2, 32)
    c = math.fsum(scipy.special.zeta(j) * (-s) ** j / (j * s))
    ell = s * (c - np.euler_gamma)
    log_z = np.log(z)
    em = np.expm1(s * log_z)
    d = (math.expm1(ell) - ell) / s + c - (em - s * log_z) / s
    p = np.ones(z.shape)
    for k in range(1, 200):
        p *= -z / k
        d -= p * (k * em - s) / (k * (s + k))
        if not np.any(np.abs(p) > 2.0 ** -60):
            break
    return scipy.special.exp1(z) + d


def _gamma_fraction(s: float, z: np.ndarray) -> np.ndarray:
    """Gamma(s, z) by Legendre's continued fraction, e^{-z} z^s / (z + 1 - s
    - 1 (1 - s) / (z + 3 - s - 2 (2 - s) / (z + 5 - s - ...))), evaluated
    by the modified Lentz method (Numerical Recipes, gcf) until every
    factor is 1 to an ulp; for z >= _FRACTION_FROM, where every partial
    denominator stays positive. 0 at z = inf."""
    out = np.zeros(z.shape)
    live = z < math.inf
    z = z[live]
    b = z + (1.0 - s)
    d = 1.0 / b
    c, h = np.full(z.shape, math.inf), d.copy()
    for i in range(1, 200):
        a = -i * (i - s)
        b += 2.0
        d *= a
        d += b
        np.reciprocal(d, out=d)
        c = b + a / c
        step = c * d
        h *= step
        if np.all(np.abs(step - 1.0) <= 2.0 ** -52):
            break
    else:
        raise FloatingPointError(f"Gamma({s}, z) did not converge")
    out[live] = np.exp(-z) * z ** s * h
    return out


def tempered_stable(eta: float, lam: float, alpha: float) -> DensityMeasure:
    """F(dx) = eta |x|^{-alpha-1} e^{-lam |x|} dx. Beyond m its mass is
    eta lam^alpha Gamma(-alpha, lam m) and its first moment
    eta lam^{alpha-1} Gamma(1 - alpha, lam m)."""
    if not (eta > 0 and lam > 0 and 0 < alpha < 2):
        raise ValueError("need eta, lam > 0 and alpha in (0, 2)")

    def dens(x):
        ax = np.abs(x)
        return eta * ax ** (-alpha - 1.0) * np.exp(-lam * ax)

    def mass(m):
        return eta * lam ** alpha * _upper_gamma(-alpha, lam * m)

    def moment(m):
        return eta * lam ** (alpha - 1.0) * _upper_gamma(1.0 - alpha, lam * m)

    def inverse(q, r):
        # Newton on log S from m = r (S and the density read once there):
        # S is log-convex, as the density is, so the iterates rise to the
        # root, below r - log(q) / lam since S(m) <= S(r) e^{-lam (m - r)}
        with np.errstate(divide="ignore"):  # q = 0 gives m = inf
            log_q = np.log(q).reshape(-1)
        s_r = float(mass(r))
        target, top = log_q + math.log(s_r), r - log_q / lam
        m = r - log_q * (s_r / dens(r))
        todo = np.flatnonzero(m < math.inf)  # the marks still moving
        for _ in range(_NEWTON_STEPS):
            at = m[todo]
            s = mass(at)
            step = (np.log(s) - target[todo]) * s / dens(at)
            m[todo] = np.minimum(at + step, top[todo])
            todo = todo[np.abs(step) > _NEWTON_TOL * at]
            if not todo.size:
                break
        return m.reshape(np.shape(q))

    return DensityMeasure(
        dens,
        origin_exponent=alpha,
        tail_integrable=True,
        name="tempered-stable",
        upper_tail=(mass, moment, inverse),
    )


def uniform_band(a: float, b: float, height: float = 1.0) -> DensityMeasure:
    """Constant density on {a < |x| < b}; compact two-sided support."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    if not height > 0:
        raise ValueError(f"height must be > 0, not {height}")

    def dens(x):
        ax = np.abs(x)
        return np.where((ax > a) & (ax < b), height, 0.0)

    def mass(m):
        return height * (b - np.clip(m, a, b))

    def moment(m):
        return 0.5 * height * (b * b - np.clip(m, a, b) ** 2)

    def inverse(q, r):
        return b - q * (b - min(max(r, a), b))

    return DensityMeasure(
        dens,
        origin_exponent=None,
        tail_integrable=True,
        support=(-b, b),
        name="uniform-band",
        breakpoints=(-b, -a, a, b),
        upper_tail=(mass, moment, inverse),
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


def _quad_raw(fn, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            val, err = scipy.integrate.quad(fn, lo, hi, epsabs=ABS_TOL,
                                            epsrel=REL_TOL, limit=400)
        except scipy.integrate.IntegrationWarning as exc:
            raise NonIntegrable(f"quadrature on ({lo}, {hi}) did not converge: {exc}")
    if not math.isfinite(val):
        raise NonIntegrable(f"quadrature on ({lo}, {hi}) returned {val}")
    if abs(err) > 100 * max(ABS_TOL, REL_TOL * abs(val)):
        raise NonIntegrable(
            f"quadrature on ({lo}, {hi}) error estimate {err:.2e} exceeds tolerance"
        )
    return val


def _quad(fn, lo, hi):
    try:
        return _quad_raw(fn, lo, hi)
    except NonIntegrable:
        # retry a far semi-infinite tail under x = edge/s; the map pulls a
        # slowly convergent tail into an endpoint singularity quad resolves,
        # while genuinely divergent tails still diverge at s = 0
        if hi == math.inf and lo > 0.0:
            return _quad_raw(lambda s: fn(lo / s) * lo / (s * s), 0.0, 1.0)
        if lo == -math.inf and hi < 0.0:
            return _quad_raw(lambda s: fn(hi / s) * (-hi) / (s * s), 0.0, 1.0)
        raise


def levy_integrate(
    F: LevyMeasure,
    g,
    region=None,
    *,
    g_quadratic_near_zero: bool = False,
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
                        total += _quad(integrand, eps, phi)
                    else:
                        edge = integrand(-eps)
                        total += edge * eps / (2.0 - p)
                        total += _quad(integrand, plo, -eps)
                    continue
            total += _quad(integrand, plo, phi)
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
_TAKE_ELEMS = 1 << 12  # uniforms a discrete quantile reads off at a time


class TailLaw:
    """Normalized restriction of F to |x| > r (open region) or |x| >= r
    (closed), with its total mass as `rate`.

    quantile(u) inverts the law at u in [0, 1), into out when given (which
    may be u itself), and sample draws marks through it; mass_below(z) = P(X < z) and
    partial_mean_below(z) = E[X 1_{X < z}] are the queries lambda_of_zeta
    needs. All three take arrays. mean is NaN when the tail has no first
    moment. zeta_lo < zeta_hi bound the levels that leave both conditional
    masses above _MASS_FLOOR.

    Atoms give a DiscreteTailLaw, a density a SymmetricTailLaw in closed
    form; `tail_law` refuses a density without them (UnsupportedModel).
    """

    rate: float
    mean: float
    zeta_lo: float
    zeta_hi: float

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.quantile(rng.random(n))

    def quantile(self, u, out=None):
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
        # P(X < x_i), and the cumulative mass renormalised to end at 1.0,
        # as Generator.choice renormalises it; marks are quantile's of
        # uniforms, and the renormalised CDF only keeps their stream as it is
        self._below = np.concatenate([[0.0], cum_p])
        self._cdf = cum_p / cum_p[-1]
        self._x_down = self.x[::-1].copy()
        self._xp_below = np.concatenate([[0.0], np.cumsum(self.x * self.p)])
        self.mean = float(self._xp_below[-1])
        self.zeta_lo = float(self.x[0])
        self.zeta_hi = float(self.x[-1])

    def quantile(self, u, out=None):
        """searchsorted(_cdf, u, side="right")'s atom, the last for u = 1.0
        or NaN: the atom boundaries above each uniform are counted, one
        comparison pass per boundary, which beats the search at a few
        atoms, and the atoms are read off by that count _TAKE_ELEMS at a
        time, so that np.take's indices stay small. out, which must be
        contiguous, may be u itself."""
        u = np.asarray(u, dtype=float)
        above = np.zeros(u.shape, dtype=np.min_scalar_type(len(self.x)))
        for c in self._cdf[:-1].tolist():
            above += u < c
        out = np.empty(u.shape) if out is None else out
        at, flat = above.reshape(-1), out.reshape(-1)
        for lo in range(0, len(flat), _TAKE_ELEMS):
            hi = lo + _TAKE_ELEMS
            np.take(self._x_down, at[lo:hi], out=flat[lo:hi])
        return out if out.ndim else out[()]

    def mass_below(self, z):
        return self._below[np.searchsorted(self.x, z, side="left")]

    def partial_mean_below(self, z):
        return self._xp_below[np.searchsorted(self.x, z, side="left")]


class SymmetricTailLaw(TailLaw):
    """F beyond r from the closed forms (S, M, S^-1) of a symmetric
    density's upper side (DensityMeasure.upper_tail): P(X < -m) =
    P(X >= m) = S(m) / (2 S(r)) for m >= r, and E[X 1_{X < z}] =
    -M(max(|z|, r)) / (2 S(r)) on either side of 0."""

    def __init__(self, upper, r: float):
        self._mass, self._moment, self._inverse = upper
        self.r = r
        self.rate = 2.0 * float(self._mass(r))
        self.mean = 0.0 if math.isfinite(self._moment(r)) else math.nan
        self.zeta_hi = float(self._inverse(2.0 * _MASS_FLOOR, r))
        self.zeta_lo = -self.zeta_hi

    def quantile(self, u, out=None):
        u = np.asarray(u, dtype=float)
        size = self._inverse(2.0 * np.minimum(u, 1.0 - u), self.r)
        return np.multiply(np.where(u < 0.5, -1.0, 1.0), size, out=out)

    def mass_below(self, z):
        share = self._mass(np.maximum(np.abs(z), self.r)) / self.rate
        return np.where(np.asarray(z) < 0.0, share, 1.0 - share)

    def partial_mean_below(self, z):
        return -self._moment(np.maximum(np.abs(z), self.r)) / self.rate


def tail_law(F: LevyMeasure, region: list[Interval]) -> TailLaw | None:
    """Law of the jumps of F in region = ball_complement(r, open_ends=...);
    None when the region holds no mass. Interval.contains decides whether
    atoms at +-r belong to it. A density measure without upper_tail is
    refused with UnsupportedModel."""
    if F.is_zero:
        return None
    if isinstance(F, DiscreteMeasure):
        mask = np.any([iv.contains(F.x) for iv in region], axis=0)
        return DiscreteTailLaw(F.x[mask], F.w[mask]) if mask.any() else None
    if F.upper_tail is None:
        raise UnsupportedModel(f"density {F.name!r} has no closed-form tail law")
    r = region[-1].lo
    return SymmetricTailLaw(F.upper_tail, r) if F.upper_tail[0](r) > 0.0 else None


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
        if self.integrable and math.isinf(first_abs_moment_tail(self.F)):
            raise NonIntegrable(
                "integrable flag set but large-jump first moment diverges"
            )

    def xi(self) -> float:
        """Mean rate: E[L_t] = xi * t."""
        if not self.integrable:
            raise NonIntegrable("xi requires the integrable-L flag")
        h = self.h
        corr = levy_integrate(
            self.F, lambda x: x - h(x), h.nonidentity_region()
        )
        return corr + self.b_h


def retriplet(triplet: LevyTriplet, h_new: TruncationFunction) -> LevyTriplet:
    """Same law of L, different truncation: b^{h'} = b^h + int (h' - h) dF."""
    F = triplet.F
    r = min(triplet.h.identity_radius, h_new.identity_radius)
    h_old = triplet.h
    corr = levy_integrate(
        F, lambda x: h_new(x) - h_old(x), ball_complement(r)
    )
    return LevyTriplet(
        c=triplet.c, F=F, b_h=triplet.b_h + corr, h=h_new, integrable=triplet.integrable
    )

