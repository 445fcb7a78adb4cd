"""Scenario plumbing and verification pipelines.

A scenario is a plain dict-shaped config (YAML on disk) naming a triplet,
a kernel, simulation settings and the measure-change hypothesis. Loading
it builds its model (`model_from_dict`), which keeps the sections as they
were given beside what is built of them: the kernel, the triplet and the
path simulator, and on first use the Girsanov kernel. The pipelines here
take the loaded model, for the classification, the kernel construction
and the Monte Carlo verification batteries, and assemble the JSON report.

Scientifically meaningful parameters (a, b, eps_jump, tolerance) have no
defaults: a scenario that omits them fails to load, as does one holding a
key that no section declares or a value that a constructor refuses.
"""

from __future__ import annotations

import collections
import copy
import csv
import functools
import inspect
import json
import math
import numbers
import os
import concurrent.futures
from dataclasses import dataclass

import numpy as np
import yaml

from . import emm_construct, girsanov, kernel as kernel_mod, path_sim, verify
from .errors import ConfigError, LevyEmmError, NonIntegrable, ZetaOutOfRange
from .kernel import Kernel, emm_classify
from .levy_model import (
    DiscreteMeasure,
    LevyTriplet,
    gaussian_only,
    indicator_inside,
    indicator_outside_band,
    levy_integrate,
    symmetric_alpha_stable,
    tempered_stable,
    uniform_band,
)
from .path_sim import (
    PathSimulator,
    Prehistory,
    SimConfig,
    _is_multiple,
    blocks,
    moving_average,
    write_jumps_csv,
    write_path_csv,
)

REPORT_SCHEMA_VERSION = "1"

# simulate writes the path CSVs of the first _MAX_PATH_CSV paths; construct
# checks the kernel at _CONSTRUCT_N_Y values of y over [-y_span, y_span]
_MAX_PATH_CSV = 5
_CONSTRUCT_N_Y = 100


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------

# the constructor each measure type, truncation kind and kernel type names;
# the other keys of the section are its keyword arguments
_MEASURES = {
    "discrete": DiscreteMeasure,
    "symmetric-alpha-stable": symmetric_alpha_stable,
    "tempered-stable": tempered_stable,
    "uniform-band": uniform_band,
    "zero": gaussian_only,
}
_TRUNCATIONS = {"inside": indicator_inside, "outside-band": indicator_outside_band}
_KERNELS = {
    "exponential": kernel_mod.exponential_kernel,
    "power": kernel_mod.power_kernel,
    "power-density": kernel_mod.power_density_kernel,
    "zero-start": kernel_mod.zero_start_kernel,
    "constant": kernel_mod.constant_kernel,
}

# the required and the optional keys of each plain section, with the kind
# of value each takes: a type (float any finite number, int a whole one) or
# a tuple of the values allowed
_SECTIONS = {
    "scenario": ({"name": str, "triplet": dict, "kernel": dict, "sim": dict,
                  "emm": dict}, {"verify": dict}),
    "triplet": ({"c": float, "b_h": float, "measure": dict, "truncation": dict},
                {"integrable": bool}),
    "sim": ({"T": float, "M": float, "dt": float, "eps_jump": float,
             "n_paths": int, "seed": int}, {}),
    "verify": ({}, {"tests": list, "mode": ("weighted", "direct-q"),
                    "probe_times": list,
                    "tail_regime": ("second-moment-finite", "regularly-varying",
                                    "other")}),
}

_KIND_WORDS = {float: "a finite number", int: "an integer", bool: "true or false",
               str: "a string", list: "a list", dict: "a mapping"}


@dataclass
class Model:
    """A loaded scenario: its sections as given (to_dict), the kernel, the
    path simulator, which holds the triplet (levy) and the SimConfig (cfg),
    the battery's tests in order and its key in _BATTERIES (battery).

    A run takes its n_paths and seed as arguments and leaves the model as
    it is, so what a run reads besides them is built when first read, at
    most once per loaded model, for all its runs: the Girsanov kernel
    (gk), the h2 reach (reach_sd) and the Gaussian battery's pre-history
    law (prehistory). The jump batteries draw their blocks into the
    simulator's buffer pool (`PathSimulator.pool`). Nothing is kept across
    models: each pool worker process builds its own from to_dict()."""

    name: str
    triplet: dict
    kernel: dict
    sim: dict
    emm: dict
    verify: dict
    kern: Kernel
    simulator: PathSimulator
    tests: list
    battery: tuple
    levy = property(lambda self: self.simulator.triplet)
    cfg = property(lambda self: self.simulator.config)

    @functools.cached_property
    def gk(self):
        return make_girsanov_kernel(self, self.levy)

    @functools.cached_property
    def reach_sd(self) -> float | None:
        return h2_reach_sd(self)

    @functools.cached_property
    def prehistory(self) -> Prehistory:
        return self.simulator.prehistory(self.kern)

    def to_dict(self) -> dict:
        keys = ("name", "triplet", "kernel", "sim", "emm", "verify")
        return copy.deepcopy({k: getattr(self, k) for k in keys})


def _finite(v) -> bool:
    """v is finite as a float: an integer too large for one is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_kind(where: str, v, kind) -> None:
    """ConfigError unless v is of kind: a type of _KIND_WORDS (a bool is not
    a number) or a tuple of the values allowed."""
    if isinstance(kind, tuple):
        ok, want = v in kind, f"one of {list(kind)}"
    elif kind in (float, int):
        ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and (
            kind is int and isinstance(v, numbers.Integral)
            or _finite(v) and (kind is float or float(v).is_integer()))
        want = _KIND_WORDS[kind]
    else:
        ok, want = isinstance(v, kind), _KIND_WORDS[kind]
    if not ok:
        raise ConfigError(f"{where} must be {want}, not {v!r}")


def _check_keys(d: dict, where: str, required: dict, optional: dict,
                what: str = "") -> None:
    """ConfigError unless d holds every key of required, no key that is in
    neither table, and values of the kinds the tables give."""
    what = what or where
    for k in required:
        if k not in d:
            raise ConfigError(f"missing required key {k!r} in {what}")
    kinds = {**required, **optional}
    for k, v in d.items():
        if k not in kinds:
            raise ConfigError(f"{where}.{k} is not a key of {what}; it takes "
                              f"{sorted(kinds)}")
        _check_kind(f"{where}.{k}", v, kinds[k])


@functools.cache
def _arguments(make) -> tuple:
    """The keyword arguments of a constructor with the kind of each, a
    number but DiscreteMeasure's atoms, and the required ones among them."""
    params = inspect.signature(make).parameters.values()
    kinds = {p.name: list if p.name == "atoms" else float for p in params}
    return {p.name: kinds[p.name] for p in params if p.default is p.empty}, kinds


def _build(table: dict, spec: dict, tag: str, where: str):
    """What the constructor spec[tag] names in table gives for the other
    keys of spec as its keyword arguments; ConfigError naming the section
    and key when spec does not fit the constructor or the constructor
    refuses a value."""
    _check_kind(f"{where}.{tag}", spec.get(tag), tuple(table))
    make = table[spec[tag]]
    required, kinds = _arguments(make)
    what = f"{where} of {tag} {spec[tag]}"
    _check_keys(spec, where, {tag: str, **required}, kinds, what)
    try:
        return make(**{k: v for k, v in spec.items() if k != tag})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _made(where: str, make):
    """make(), with a constructor's refusal as ConfigError naming where."""
    try:
        return make()
    except ConfigError:
        raise
    except (ValueError, LevyEmmError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def model_from_dict(d: dict) -> Model:
    """The model of d, refused with ConfigError unless every section holds
    the keys its table or constructor lists, and no other, and each
    constructor takes its values. This is the one builder of a model: the
    loaders return it, and pool workers rebuild theirs from to_dict()."""
    _check_keys(d, "scenario", *_SECTIONS["scenario"])
    # the name is the stem of the files a command writes under --out
    if any(sep and sep in d["name"] for sep in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"scenario.name must be a single path component, "
                          f"not {d['name']!r}")
    for section in ("triplet", "sim", "verify"):
        _check_keys(d.get(section, {}), section, *_SECTIONS[section])
    t, sim, emm, ver = d["triplet"], d["sim"], d["emm"], d.get("verify", {})
    if t["c"] < 0:
        raise ConfigError(f"triplet.c must be >= 0, not {t['c']}")
    triplet = _made("triplet", lambda: build_triplet(t))
    kern = build_kernel(d["kernel"])
    simulator = _made("sim", lambda: PathSimulator(triplet, build_sim_config(sim)))

    hyp = emm.get("hypothesis")
    _check_kind("emm.hypothesis", hyp, tuple(dict.fromkeys(k[0] for k in _BATTERIES)))
    key, tags = (hyp, ver.get("mode", "weighted")), {"hypothesis": str}
    if hyp == "lm":
        _check_kind("emm.style", emm.get("style"),
                    tuple(k[2] for k in _BATTERIES if k[0] == "lm"))
        key, tags = (*key, emm["style"]), {**tags, "style": str}
    if key not in _BATTERIES:
        raise ConfigError(f"there is no {' '.join(key)!r} battery")
    battery, what = _BATTERIES[key], f"emm of the {' '.join(key)} battery"
    _check_keys(emm, "emm", {**tags, **dict.fromkeys(battery.required, float)},
                dict.fromkeys(battery.optional, float), what)
    if hyp in ("h1", "h2") and not 0 < emm["a"] < emm.get("b", math.inf):
        raise ConfigError(f"{what} needs 0 < a, and a < b for h1; not "
                          f"a = {emm['a']}, b = {emm.get('b')}")
    # construct checks atoms at the tolerance as given: 0 fails on rounding
    if hyp in ("h1", "h2") and not emm["tolerance"] > 0:
        raise ConfigError(f"emm.tolerance must be > 0, not {emm['tolerance']}")
    # the density reweights only the jumps the simulator draws, |x| >= eps_jump
    if hyp in ("h1", "h2") and sim["eps_jump"] > emm["a"]:
        raise ConfigError(f"sim.eps_jump = {sim['eps_jump']} exceeds emm.a = "
                          f"{emm['a']}, so the {hyp} density would miss the jumps "
                          f"in a < |x| < eps_jump, which are simulated as Gaussian")
    # the bremaud battery counts the jumps of F at its total mass
    if emm.get("style") == "bremaud":
        _made("triplet: the bremaud battery needs a measure of finite mass",
              lambda: levy_integrate(triplet.F, 1.0))
    if hyp == "h2" and triplet.F.is_zero:
        raise ConfigError("h2 requires two-sided tail mass; measure is zero")
    # Z_T of the gaussian battery reads every increment as Brownian, dB/sqrt(c)
    if hyp == "gaussian" and not (triplet.F.is_zero and t["c"] > 0):
        raise ConfigError("the gaussian battery needs a pure Brownian driver "
                          f"(measure zero and c > 0), not measure "
                          f"{t['measure']['type']!r} with c = {t['c']}")
    # and its theta = -(Y + phi0 xi) / (phi0 sqrt(c)) divides by phi(0); with
    # phi(0) = 0, dX = Y dt is continuous and of finite variation, so no EMM
    # exists, and an h1 or h2 verdict would only reflect the sample size
    if hyp in ("gaussian", "h1", "h2") and kern.phi0 == 0.0:
        raise ConfigError(f"the {hyp} battery needs phi(0) != 0, and "
                          f"kernel {d['kernel']['type']!r} has phi(0) = 0")
    # check-kernel reads tail_regime for every hypothesis; a battery with
    # tests reads them and the mode, one that draws paths the probe times
    read = {"tail_regime", *(("tests", "mode") if battery.accepted else ()),
            *(("probe_times",) if battery.block else ())}
    unread = sorted(set(ver) - read)
    if unread:
        raise ConfigError(f"verify.{unread[0]} is not read for hypothesis {hyp}")
    if "probe_times" in ver:
        _check_probe_times(ver["probe_times"], sim)
    sections = copy.deepcopy((t, d["kernel"], sim, emm, ver))
    return Model(d["name"], *sections, kern, simulator, _battery_tests(key, ver), key)


def _battery_tests(key: tuple, ver: dict) -> list:
    """The scenario's tests in the battery's accepted order, none for a
    battery without tests; ConfigError when the list is empty or names a
    test its battery has no correct implementation of."""
    battery, label = _BATTERIES[key], " ".join(key)
    tests = list(ver.get("tests", battery.default))
    if battery.accepted and not tests:
        raise ConfigError(f"the {label} battery needs at least one test")
    for name in tests:
        if name not in battery.accepted:
            raise ConfigError(f"the {label} battery has no test {name!r}; "
                              f"it runs {list(battery.accepted)}")
    return [name for name in battery.accepted if name in tests]


def _check_probe_times(probes, sim: dict) -> None:
    """ConfigError unless probes is a non-empty, strictly increasing list of
    multiples of dt in (0, T]; 0 is always the first probe, so it is not one."""
    T, dt = float(sim["T"]), float(sim["dt"])
    for t in probes:
        _check_kind("verify.probe_times", t, float)
    ts = [float(t) for t in probes]
    if (not ts or any(b <= a for a, b in zip(ts, ts[1:]))
            or not all(0.0 < t <= T and _is_multiple(t, dt) for t in ts)):
        raise ConfigError(f"verify.probe_times {probes} must be a non-empty, "
                          f"strictly increasing list of multiples of dt = {dt} "
                          f"in (0, T = {T}]")


def _probe_times(model: Model) -> list:
    """The times X is read at: 0, then verify.probe_times (default [T])."""
    return [0.0] + [float(t) for t in model.verify.get("probe_times", [model.sim["T"]])]


def load_scenario(path: str) -> Model:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except (OSError, UnicodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: cannot read a scenario: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario file must hold a mapping")
    return model_from_dict(data)


def save_scenario(model: Model, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(model.to_dict(), fh, sort_keys=False)


def build_triplet(spec: dict) -> LevyTriplet:
    return LevyTriplet(
        c=float(spec["c"]),
        F=_build(_MEASURES, spec["measure"], "type", "triplet.measure"),
        b_h=float(spec["b_h"]),
        h=_build(_TRUNCATIONS, spec["truncation"], "kind", "triplet.truncation"),
        integrable=bool(spec.get("integrable", True)),
    )


def build_kernel(spec: dict) -> Kernel:
    return _build(_KERNELS, spec, "type", "kernel")


def build_sim_config(spec: dict) -> SimConfig:
    return SimConfig(**{k: kind(spec[k]) for k, kind in _SECTIONS["sim"][0].items()})


def _paths_and_seed(model: Model, n_paths=None, seed=None) -> tuple:
    """A run's (n_paths, seed): the scenario's where not given, and checked
    as at load."""
    over = {k: v for k, v in (("n_paths", n_paths), ("seed", seed)) if v is not None}
    sim = {**model.sim, **over}
    _check_keys(sim, "sim", *_SECTIONS["sim"])
    cfg = _made("sim", lambda: build_sim_config(sim))
    return cfg.n_paths, cfg.seed


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------


# every file in the catalogue directory is a builtin, named by its stem
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


def builtin_names() -> list:
    return sorted(f[:-5] for f in os.listdir(SCENARIO_DIR) if f.endswith(".yaml"))


def builtin_scenario(name: str) -> Model:
    """The model of the catalogue file of `name`, parsed afresh; `name` must
    be one of `builtin_names()`, so it never reaches the file system unchecked."""
    known = builtin_names()
    if name not in known:
        raise ConfigError(f"unknown builtin scenario {name!r}; known: {known}")
    return load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))


# ---------------------------------------------------------------------------
# check-kernel and construct
# ---------------------------------------------------------------------------


def run_check_kernel(model: Model) -> dict:
    cls = emm_classify(model.kern, model.levy, model.verify.get("tail_regime", "other"))
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": model.name,
        "classification": cls.to_dict(),
    }


class _BrokenAlpha:
    """Negative control: inflates positive-tail factors and delegates
    every other attribute to the wrapped Girsanov kernel."""

    def __init__(self, gk, factor):
        self._gk = gk
        self._factor = factor

    def __getattr__(self, name):
        return getattr(self._gk, name)

    def evaluate(self, y, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.atleast_1d(np.asarray(self._gk.evaluate(y, arr), dtype=float))
        out = np.where(arr > self.a, out * self._factor, out)
        return out if np.ndim(x) else float(out[0])


@dataclass(frozen=True)
class _FrozenZeta(emm_construct.GirsanovKernelH2):
    """h2 kernel with a fixed zeta (state-independent alpha and Q law)."""

    frozen_zeta: float

    def zeta(self, y):
        return self.frozen_zeta


def make_girsanov_kernel(model: Model, triplet: LevyTriplet):
    hyp, phi0 = model.emm["hypothesis"], model.kern.phi0
    if hyp == "h1":
        gk = emm_construct.make_h1_kernel(triplet, model.emm["a"], model.emm["b"], phi0)
    elif hyp == "h2":
        gk = emm_construct.make_h2_kernel(triplet, model.emm["a"], phi0)
    else:
        raise ConfigError(f"no Girsanov kernel for hypothesis {hyp!r}")
    if "frozen_zeta" in model.emm:
        gk = _FrozenZeta(gk.a, gk.lam, gk.tail, gk.b_h, gk.phi0,
                         float(model.emm["frozen_zeta"]))
    if "break_positive_factor" in model.emm:
        gk = _BrokenAlpha(gk, float(model.emm["break_positive_factor"]))
    return gk


# the least reach_sd at which an h2 battery whose zeta follows Y runs
MIN_REACH_SD = 6.0


def h2_reach_sd(model: Model) -> float | None:
    """How far E[Y] lies, in s.d. of Y, from the nearest y at which
    zeta(y) = -(y/phi0 + b_h)/lam leaves (tail.zeta_lo, tail.zeta_hi);
    negative when E[Y] lies outside. Y is the lattice sum at T, sum_k
    phi'(k dt) dL_k over k = 1..n_cells, so its mean is sum_k phi'(k dt) dt
    (b_h + lam E[tail]) and its variance sum_k phi'(k dt)^2 dt (c + int x^2
    F). None when int x^2 F diverges: Y then has no s.d., and only a tail
    of unbounded support gives that.

    The distance is taken in u = y/phi0, where zeta's range is the interval
    (-lam zeta_hi - b_h, -lam zeta_lo - b_h) for either sign of phi0, and
    scaled back to y by |phi0|."""
    cfg, triplet, gk = model.cfg, model.levy, model.gk
    w = model.kern.dphi(np.arange(1, cfg.n_cells + 1) * cfg.dt)
    try:
        second = levy_integrate(triplet.F, lambda x: x * x,
                                g_quadratic_near_zero=True)
    except NonIntegrable:
        return None
    mean = float(np.sum(w)) * cfg.dt * (gk.b_h + gk.lam * gk.tail.mean)
    sd = math.sqrt(float(np.sum(w * w)) * cfg.dt * (triplet.c + second))
    u = mean / gk.phi0
    dist = abs(gk.phi0) * min(u + gk.lam * gk.tail.zeta_hi + gk.b_h,
                              -gk.lam * gk.tail.zeta_lo - gk.b_h - u)
    return dist / sd if sd > 0.0 else math.copysign(math.inf, dist)


def run_construct(model: Model) -> dict:
    """The validation document of the model's h1 or h2 Girsanov kernel."""
    gk = model.gk
    y_span = float(model.emm.get("y_span", 1.0))
    ys = np.linspace(-y_span, y_span, _CONSTRUCT_N_Y)
    report = emm_construct.validate_girsanov_kernel(
        gk, model.levy, ys, abs_tol=float(model.emm["tolerance"]))
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": model.name,
        "validation": report,
    }
    if gk.kind == "h2":
        doc["reach_sd"] = model.reach_sd
    return doc


def _check_runnable(model: Model) -> None:
    """ConfigError, before any path is drawn, for a run that could not give
    its report: hypothesis none, which has no battery; h1 and h2 without a
    Girsanov kernel; and an h2 battery that would stop with ZetaOutOfRange:
    a frozen zeta outside the tail law's range, at its first block, or a
    zeta that follows Y when Y reaches the edge of zeta's range within
    MIN_REACH_SD s.d., once enough paths are drawn."""
    emm, hyp = model.emm, model.emm["hypothesis"]
    if hyp == "none":
        raise ConfigError("hypothesis none has no battery to verify; "
                          "check-kernel classifies its kernel")
    if hyp in ("h1", "h2"):
        _made(f"the {hyp} Girsanov kernel", lambda: model.gk)
    if hyp != "h2":
        return
    if "frozen_zeta" in emm:
        tail = model.gk.tail
        try:
            emm_construct.lambda_of_zeta(tail, float(emm["frozen_zeta"]))
        except ZetaOutOfRange as exc:
            raise ConfigError(
                f"emm.frozen_zeta = {emm['frozen_zeta']} lies outside the tail "
                f"law's range ({tail.zeta_lo}, {tail.zeta_hi}): {exc}") from None
        return
    reach = model.reach_sd
    if reach is not None and reach < MIN_REACH_SD:
        raise ConfigError(
            f"Y reaches the edge of zeta's range at {reach:.2f} s.d. of its "
            f"mean, below {MIN_REACH_SD}: zeta(y) = -(y/phi0 + b_h)/lam leaves "
            f"the tail law's range on a share of paths, so the run could "
            f"stop with ZetaOutOfRange at a larger n_paths")


# ---------------------------------------------------------------------------
# path batteries: statistics of a block of paths (exact jump responses, no
# full-grid pass), joined span by span
# ---------------------------------------------------------------------------


def _weighted_block(model: Model, rngs) -> dict:
    """Weighted-P statistics (h1 or h2) of a block drawn into the
    simulator's buffer pool: each path's Z_T, X at the probe times and
    number of tail jumps on (0, T]."""
    kern, cfg, sim, gk = model.kern, model.cfg, model.simulator, model.gk
    probes = np.array(_probe_times(model))
    # left nodes of the compensator sum on [0, T); none for a mass-preserving alpha
    grid = sim.times[cfg.m_cells:-1] if gk.excess_rate is not None else np.empty(0)
    block = sim.draw(rngs, pool=sim.pool)
    n, paths = len(rngs), np.arange(len(rngs))
    # the flat tail jumps on (0, T], and the path of each
    win = block.jumps_beyond(gk.a)
    w_rows = np.searchsorted(block.offsets, win, side="right") - 1
    y_pre, y_left, x = block.responses(
        (kern.dphi, w_rows, block.jump_times[win], True),
        (kern.dphi, np.repeat(paths, len(grid)), np.tile(grid, n), True),
        (kern, np.repeat(paths, len(probes)), np.tile(probes, n), False))
    factors, comp = girsanov.density_terms(
        gk, y_pre, block.jump_sizes[win], y_left.reshape(n, len(grid)), cfg.dt)
    # the factors of each path multiplied in jump order, as math.prod does
    z = np.ones(n)
    np.multiply.at(z, w_rows, factors)
    z *= np.exp(comp[:, -1])
    return {"z_T": z, "x_probe": x.reshape(n, len(probes)),
            "counts": np.bincount(w_rows, minlength=n)}


def _q_block(model: Model, rngs) -> dict:
    """girsanov.q_arrivals of a block drawn into the simulator's buffer pool."""
    sim = model.simulator
    return dict(zip(("counts", "q_t", "q_u", "y_pre"), girsanov.q_arrivals(
        model.gk, model.kern, sim, rngs, sim.pool)))


def _q_marks(model: Model, data: dict) -> dict:
    """A span's joined arrivals with their marks, by one girsanov.q_marks (one
    rank loop per span); the values equal draw_under_q's block by block."""
    q_t, q_u = data.pop("q_t"), data.pop("q_u")
    data["marks"] = girsanov.q_marks(model.gk, model.kern, data["counts"],
                                     q_t, q_u, data["y_pre"])
    return data


def _gaussian_block(model: Model, rngs) -> dict:
    """Classical-Girsanov statistics, each path's Z_T and X at the probe
    times, of a block of the pure-Gaussian baseline, whose increments are
    all diffuse (jumps, c = 0 and phi(0) = 0 are refused at load).

    The battery reads X and Y on [0, T] only, where the cells of [-M, 0]
    enter through one Gaussian vector of low rank r, drawn exactly in law
    (`Model.prehistory`, built once per loaded model): each path draws its
    cells on [0, T] and then r normals in one standard_normal call, 256 + r
    at the builtin lattice instead of its 5376. X is formed at the probe
    nodes only; Y, theta = -(Y + phi0 xi) / (phi0 sqrt(c)), theta dB and
    theta^2 at every left node of [0, T), each in place, and dB in the
    block's own buffer of increments."""
    triplet, kern, cfg, sim = model.levy, model.kern, model.cfg, model.simulator
    law, sqc, phi0 = model.prehistory, math.sqrt(triplet.c), kern.phi0
    # probe times are lattice multiples (checked at load)
    p_idx = [round(t / cfg.dt) for t in _probe_times(model)]
    block = sim.draw(rngs, law)
    X, Y = block.moving_average(kern, law, p_idx)
    theta = np.add(Y[:, :-1], phi0 * triplet.xi())
    # IEEE division is sign-symmetric, so these are the bits of negating first
    theta /= -(phi0 * sqc)
    # nothing reads the block's increments after this
    dB = np.subtract(block.diffuse, sim.drift_rate * cfg.dt, out=block.diffuse)
    dB /= sqc
    dB *= theta
    np.square(theta, out=theta)
    log_z = np.sum(dB, axis=1) - 0.5 * np.sum(theta, axis=1) * cfg.dt
    return {"z_T": np.exp(log_z), "x_probe": X}


# a battery: its required and optional emm keys, all numbers, which it and
# construct read; the tests it computes correctly and those it runs when the
# scenario names none; and, if it draws paths, its statistic of a block,
# (model, rngs) -> dict of arrays of its own, and any walk over a span's
# joined arrays, (model, data) -> data
_Battery = collections.namedtuple(
    "_Battery", "required optional accepted default block walk",
    defaults=((), (), None, None))

# each battery by hypothesis and verify mode (and emm.style for lm)
_BATTERIES = {
    ("h1", "weighted"): _Battery(
        ("a", "b", "tolerance"), ("y_span", "break_positive_factor"),
        ("mean_density", "q_martingale"), ("mean_density",), _weighted_block),
    ("h2", "weighted"): _Battery(
        ("a", "tolerance"), ("y_span", "frozen_zeta", "break_positive_factor",
                             "declared_intensity_factor"),
        ("mean_density", "q_martingale", "jump_intensity"), ("mean_density",),
        _weighted_block),
    # direct-Q marks are not drawn from alpha, which break_positive_factor changes
    ("h2", "direct-q"): _Battery(
        ("a", "tolerance"), ("y_span", "frozen_zeta", "declared_intensity_factor"),
        ("jump_intensity", "conditional_jump_law"), (), _q_block, _q_marks),
    ("gaussian", "weighted"): _Battery(
        (), ("declared_phi0",), ("mean_density", "brownian_invariance"),
        ("brownian_invariance",), _gaussian_block),
    ("none", "weighted"): _Battery((), ()),
    ("lm", "weighted", "bremaud"): _Battery(
        ("K1", "K2", "gamma", "eps"), (), ("lm_criterion", "finite_expect"),
        ("lm_criterion",)),
    ("lm", "weighted", "lmrelax"): _Battery(
        ("eps",), ("cp_rate",), ("finite_expect",), ("finite_expect",)),
}


def _joined(parts: list) -> dict:
    """Each key of the parts' dicts with its arrays joined in order, each
    part's arrays dropped as soon as they are joined."""
    return {k: np.concatenate([p.pop(k) for p in parts]) for k in list(parts[0])}


def _span(key: tuple, model: Model, seed: int, start: int, stop: int) -> dict:
    """Battery key's statistic of each of the `blocks` of the model's paths
    [start, stop) at seed, joined in index order, then its walk if any."""
    battery = _BATTERIES[key]
    data = _joined([battery.block(model, rngs) for _, rngs in blocks(seed, start, stop)])
    return battery.walk(model, data) if battery.walk else data


# the model of a pool worker process, built once by _init_worker
_worker_model: Model | None = None


def _init_worker(scn_dict: dict) -> None:
    """Build the model of this pool worker process from scn_dict (kernels
    hold lambdas that do not pickle), once for all its tasks."""
    global _worker_model
    _worker_model = model_from_dict(scn_dict)


def _pool_task(key: tuple, seed: int, start: int, stop: int) -> dict:
    """_span of key over [start, stop) at seed on this pool worker's model."""
    return _span(key, _worker_model, seed, start, stop)


def _run_chunked(key, model: Model, n_paths: int, seed: int, workers: int) -> dict:
    """_span of key over [0, n_paths) at seed, in spans of whole blocks
    (`path_sim._BLOCK`) joined in index order, so that neither the blocks
    nor the ensemble depend on workers or scheduling. At most min(workers,
    CPUs) pool worker processes run at most four spans each, never more
    spans than blocks; each builds its model once (`_init_worker`) for all
    its spans. Workers in this process share the model."""
    size = path_sim._BLOCK
    n_blocks = -(-n_paths // size)
    procs = min(workers, os.cpu_count() or 1, n_blocks)
    if procs <= 1:
        return _span(key, model, seed, 0, n_paths)
    n_spans = min(4 * procs, n_blocks)
    edges = [min(n_paths, k * n_blocks // n_spans * size) for k in range(n_spans + 1)]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=procs, initializer=_init_worker,
            initargs=(model.to_dict(),)) as pool:
        futs = [pool.submit(_pool_task, key, seed, a, b)
                for a, b in zip(edges[:-1], edges[1:])]
        return _joined([f.result() for f in futs])


# ---------------------------------------------------------------------------
# verification batteries
# ---------------------------------------------------------------------------


def _brownian_invariance(model: Model, data: dict, seed: int):
    probes = _probe_times(model)
    pairs = [(j, j + 1) for j in range(len(probes) - 1)]
    phi0 = float(model.emm.get("declared_phi0", model.kern.phi0))
    return verify.brownian_invariance_test(
        data["x_probe"], probes, data["z_T"], pairs, phi0, model.levy.c,
        seed=seed)


def _jump_intensity(model: Model, data: dict, seed: int):
    lam = model.gk.lam * float(
        model.emm.get("declared_intensity_factor", 1.0))
    return verify.jump_intensity_test(
        data["counts"], lam, model.cfg.T, weights=data.get("z_T"), seed=seed)


# each path test as a function of the model, the merged chunk arrays and
# the seed
_PATH_TESTS = {
    "mean_density": lambda model, data, seed: verify.mean_density_test(
        data["z_T"], seed=seed),
    "q_martingale": lambda model, data, seed: verify.q_martingale_test(
        data["x_probe"][:, 1:], data["x_probe"][:, 0], data["z_T"],
        _probe_times(model)[1:], seed=seed),
    "jump_intensity": _jump_intensity,
    "conditional_jump_law": lambda model, data, seed:
        verify.conditional_jump_law_test(data["y_pre"], data["marks"],
                                         model.gk, seed=seed),
    "brownian_invariance": _brownian_invariance,
}


def _battery_paths(model: Model, n_paths: int, seed: int, workers: int) -> dict:
    """Weighted-P (h1, h2, Gaussian) or direct-Q (h2) battery over n_paths
    simulated paths at seed; under direct Q the paths carry no weights and
    give no plot."""
    data = _run_chunked(model.battery, model, n_paths, seed, workers)
    out = {"reports": [_PATH_TESTS[name](model, data, seed) for name in model.tests]}
    if "z_T" in data:
        out["plot"] = _plot_rows(_probe_times(model), data["x_probe"], data["z_T"])
    return out


def _battery_lm(model: Model, n_paths: int, seed: int) -> dict:
    emm, triplet, cfg, tests = model.emm, model.levy, model.cfg, model.tests
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    reports = []
    if emm["style"] == "bremaud":
        K1, K2, gamma, eps = (float(emm[k]) for k in ("K1", "K2", "gamma", "eps"))
        lam = levy_integrate(triplet.F, 1.0)
        times = np.arange(cfg.n_out) * cfg.dt
        # Poisson counting paths on the grid
        incs = rng.poisson(lam * cfg.dt, size=(n_paths, cfg.n_out - 1))
        L = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(incs, axis=1)], axis=1)
        P = 2.0 + K1 + K2 * (L + lam * times[None, :])

        def w_fn(p, x):
            return np.maximum(p - 2.0, 0.0) ** (1.0 / gamma) - 1.0

        lm = girsanov.lm_criterion_check(
            times, P, lambda x: np.ones_like(np.asarray(x, dtype=float)),
            triplet, eps=eps, w_fn=w_fn)
        if "lm_criterion" in tests:
            reports.append(verify.StatReport(
                "lm_criterion", lm.condition_b, 0.0, n_paths,
                "pass" if lm.certified else "fail",
                "dominance + condition (b) + cell exponential moments", seed,
                lm.to_dict()))
        if "finite_expect" in tests:
            reports.append(lm.finite_expect)
    else:  # lmrelax, the only other style _battery_tests accepts
        counts = rng.poisson(float(emm.get("cp_rate", 1.0)), size=n_paths)
        y = np.array([float(np.sum(rng.exponential(1.0, k))) if k else 0.0
                      for k in counts])
        reports.append(verify.finite_expect(y, float(emm["eps"]), seed=seed))
    return {"reports": reports}


def _plot_rows(times, x_probe, z):
    """Plot-ready rows: t, weighted mean of X_t, 3-s.e. CI band."""
    rows = []
    zbar = float(np.mean(z))
    for j, t in enumerate(np.asarray(times, dtype=float)):
        mean, se = verify.mean_se(z * x_probe[:, j])
        mean /= zbar
        half = 3.0 * se / zbar
        rows.append((t, mean, mean - half, mean + half))
    return rows


def run_verify(model: Model, n_paths=None, seed=None, workers: int = 1) -> dict:
    """The report document of the model's battery over n_paths paths at
    seed, the scenario's where not given; the model is left as it is."""
    n_paths, seed = _paths_and_seed(model, n_paths, seed)
    _check_runnable(model)
    out = (_battery_paths(model, n_paths, seed, workers)
           if _BATTERIES[model.battery].block else _battery_lm(model, n_paths, seed))
    reports = out["reports"]
    overall = all(r.verdict == "pass" for r in reports)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": model.name,
        "seed": seed,
        "n_paths": n_paths,
        "overall": "pass" if overall else "fail",
        "reports": [r.to_dict() for r in reports],
    }
    if "plot" in out:
        doc["plot"] = [list(map(float, row)) for row in out["plot"]]
    return doc


# ---------------------------------------------------------------------------
# simulate command and exports
# ---------------------------------------------------------------------------


def run_simulate(model: Model, out_dir: str, n_paths=None, seed=None) -> dict:
    """The model's paths (n_paths from seed where given) as CSVs under out_dir."""
    n_paths, seed = _paths_and_seed(model, n_paths, seed)
    kern, sim = model.kern, model.simulator
    os.makedirs(out_dir, exist_ok=True)
    jump_records = []
    for lo, rngs in blocks(seed, 0, n_paths):
        block = sim.draw(rngs)
        for b in range(min(len(rngs), _MAX_PATH_CSV - lo)):
            path = block.path(b)
            with open(os.path.join(out_dir, f"path_{lo + b}.csv"), "w",
                      newline="") as fh:
                write_path_csv(fh, path, moving_average(kern, path))
        w = block.jump_times > 0.0
        jump_records.extend(zip((lo + block.jump_rows()[w]).tolist(),
                                block.jump_times[w].tolist(),
                                block.jump_sizes[w].tolist()))
    with open(os.path.join(out_dir, "jumps.csv"), "w", newline="") as fh:
        write_jumps_csv(fh, jump_records)
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": model.name,
        "n_paths": n_paths,
        "seed": seed,
        "n_jumps_in_window": len(jump_records),
        "correlation": "fft" if kern.exponential is None else "recursion",
    }
    with open(os.path.join(out_dir, "simulate.json"), "w") as fh:
        dump_json(summary, fh)
    return summary


def _finite_or_null(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def dump_json(doc: dict, fh) -> None:
    """Write doc as strict JSON: NaN and infinities become null."""
    json.dump(_finite_or_null(doc), fh, indent=2, allow_nan=False)


def write_report_files(doc: dict, out_dir: str, stem: str) -> None:
    """doc, and its plot rows as CSV, under out_dir, which must exist."""
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        dump_json(doc, fh)
    if "plot" in doc:
        with open(os.path.join(out_dir, f"{stem}_plot.csv"), "w",
                  newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "weighted_mean_X", "ci_lo", "ci_hi"])
            for row in doc["plot"]:
                w.writerow([f"{v:.10g}" for v in row])
