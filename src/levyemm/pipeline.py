"""Scenario plumbing and verification pipelines.

A scenario is a plain dict-shaped config (YAML on disk) naming a triplet,
a kernel, simulation settings and the measure-change hypothesis. The
pipelines here run the classification, the kernel construction and the
Monte Carlo verification batteries, and assemble the JSON report.

Scientifically meaningful parameters (a, b, eps_jump, tolerance) have no
defaults: a scenario that omits them fails to load.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import _backend, emm_construct, girsanov, kernel as kernel_mod, verify
from .errors import ConfigError
from .kernel import Kernel, emm_classify
from .levy_model import (
    DiscreteMeasure,
    LevyTriplet,
    TruncationFunction,
    gaussian_only,
    indicator_inside,
    indicator_outside_band,
    symmetric_alpha_stable,
    tempered_stable,
    uniform_band,
)
from .path_sim import (
    KernelResponse,
    PathSimulator,
    SimConfig,
    _weight_table,
    moving_average,
    write_jumps_csv,
    write_path_csv,
)

REPORT_SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# scenario schema
# ---------------------------------------------------------------------------

_MEASURE_BUILDERS = {
    "discrete": lambda s: DiscreteMeasure([tuple(a) for a in s["atoms"]]),
    "symmetric-alpha-stable": lambda s: symmetric_alpha_stable(
        s["alpha"], s.get("scale", 1.0)
    ),
    "tempered-stable": lambda s: tempered_stable(s["eta"], s["lam"], s["alpha"]),
    "uniform-band": lambda s: uniform_band(s["a"], s["b"], s.get("height", 1.0)),
    "zero": lambda s: gaussian_only(),
}

_KERNEL_BUILDERS = {
    "exponential": lambda s: kernel_mod.exponential_kernel(
        s["kappa"], s.get("amplitude", 1.0)
    ),
    "power": lambda s: kernel_mod.power_kernel(s["gamma"]),
    "power-density": lambda s: kernel_mod.power_density_kernel(
        s["q"], s.get("phi0", 1.0)
    ),
    "zero-start": lambda s: kernel_mod.zero_start_kernel(s.get("kappa", 1.0)),
    "constant": lambda s: kernel_mod.constant_kernel(s.get("value", 1.0)),
}


@dataclass
class Scenario:
    name: str
    triplet: dict
    kernel: dict
    sim: dict
    emm: dict
    verify: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "triplet": self.triplet,
            "kernel": self.kernel,
            "sim": self.sim,
            "emm": self.emm,
            "verify": self.verify,
        }


def _require(d: dict, keys, where: str):
    for k in keys:
        if k not in d:
            raise ConfigError(f"missing required key {k!r} in {where}")


def scenario_from_dict(d: dict) -> Scenario:
    _require(d, ["name", "triplet", "kernel", "sim", "emm"], "scenario")
    t = d["triplet"]
    _require(t, ["c", "b_h", "measure", "truncation"], "triplet")
    _require(t["measure"], ["type"], "triplet.measure")
    if t["measure"]["type"] not in _MEASURE_BUILDERS:
        raise ConfigError(f"unknown measure type {t['measure']['type']!r}")
    trunc = t["truncation"]
    _require(trunc, ["kind"], "triplet.truncation")
    if trunc["kind"] == "inside":
        _require(trunc, ["a"], "triplet.truncation")
    elif trunc["kind"] == "outside-band":
        _require(trunc, ["a", "b"], "triplet.truncation")
    else:
        raise ConfigError(f"unknown truncation kind {trunc['kind']!r}")
    k = d["kernel"]
    _require(k, ["type"], "kernel")
    if k["type"] not in _KERNEL_BUILDERS:
        raise ConfigError(f"unknown kernel type {k['type']!r}")
    _require(d["sim"], ["T", "M", "dt", "eps_jump", "n_paths", "seed"], "sim")
    emm = d["emm"]
    _require(emm, ["hypothesis"], "emm")
    hyp = emm["hypothesis"]
    if hyp == "h1":
        _require(emm, ["a", "b", "tolerance"], "emm (h1)")
    elif hyp == "h2":
        _require(emm, ["a", "tolerance"], "emm (h2)")
    elif hyp == "lm":
        style = emm.get("style")
        _require(emm, _LM_STYLE_KEYS.get(style, ()), f"emm (lm {style})")
    elif hyp not in ("gaussian", "none"):
        raise ConfigError(f"unknown hypothesis {hyp!r}")
    if hyp == "h2" and t["measure"]["type"] == "zero":
        raise ConfigError("h2 requires two-sided tail mass; measure is zero")
    for knob, hyps in _KNOBS.items():
        if knob in emm and hyp not in hyps:
            raise ConfigError(f"emm.{knob} does not apply to hypothesis {hyp!r}")
    ver = dict(d.get("verify", {}))
    if "state_bins" in ver:
        raise ConfigError("verify.state_bins is not a setting: conditional_"
                          "jump_law tests each mark at its own pre-jump state")
    if ver.get("mode") == "direct-q" and "break_positive_factor" in emm:
        raise ConfigError("emm.break_positive_factor changes alpha, which "
                          "direct-q marks are not drawn from")
    if hyp != "none":
        _battery_tests(emm, ver)
    return Scenario(
        name=d["name"], triplet=t, kernel=k, sim=dict(d["sim"]),
        emm=dict(emm), verify=ver,
    )


# the tests each battery computes correctly, by hypothesis and verify mode
# (and emm.style for lm), and the ones it runs when the scenario names none
_BATTERIES = {
    ("h1", "weighted"): (("mean_density", "q_martingale"), ["mean_density"]),
    ("h2", "weighted"): (("mean_density", "q_martingale", "jump_intensity"),
                         ["mean_density"]),
    ("h2", "direct-q"): (("jump_intensity", "conditional_jump_law"), []),
    ("gaussian", "weighted"): (("mean_density", "brownian_invariance"),
                               ["brownian_invariance"]),
    ("lm", "weighted", "bremaud"): (("lm_criterion", "finite_expect"),
                                    ["lm_criterion"]),
    ("lm", "weighted", "lmrelax"): (("finite_expect",), ["finite_expect"]),
}

# the emm keys each lm style reads
_LM_STYLE_KEYS = {"bremaud": ("K1", "K2", "gamma", "eps"), "lmrelax": ("eps",)}

# negative-control knobs and the hypotheses whose battery reads them
_KNOBS = {"frozen_zeta": ("h2",), "break_positive_factor": ("h1", "h2"),
          "declared_intensity_factor": ("h2",), "declared_phi0": ("gaussian",)}


def _battery_tests(emm: dict, ver: dict) -> list:
    """The scenario's test list; ConfigError when it is empty or names a
    test its battery has no correct implementation of."""
    hyp = emm["hypothesis"]
    mode = ver.get("mode", "weighted")
    key = (hyp, mode, emm.get("style")) if hyp == "lm" else (hyp, mode)
    battery = " ".join(map(str, key))
    if key not in _BATTERIES:
        raise ConfigError(f"there is no {battery!r} battery")
    accepted, default = _BATTERIES[key]
    tests = list(ver.get("tests", default))
    if not tests:
        raise ConfigError(f"the {battery} battery needs at least one test")
    for name in tests:
        if name not in accepted:
            raise ConfigError(f"the {battery} battery has no test {name!r}; "
                              f"it runs {list(accepted)}")
    return tests


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: scenario file must hold a mapping")
    return scenario_from_dict(data)


def save_scenario(scn: Scenario, path: str) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scn.to_dict(), fh, sort_keys=False)


def build_truncation(spec: dict) -> TruncationFunction:
    if spec["kind"] == "inside":
        return indicator_inside(spec["a"])
    return indicator_outside_band(spec["a"], spec["b"])


def build_triplet(spec: dict) -> LevyTriplet:
    F = _MEASURE_BUILDERS[spec["measure"]["type"]](spec["measure"])
    return LevyTriplet(
        c=float(spec["c"]), F=F, b_h=float(spec["b_h"]),
        h=build_truncation(spec["truncation"]),
        integrable=bool(spec.get("integrable", True)),
    )


def build_kernel(spec: dict) -> Kernel:
    return _KERNEL_BUILDERS[spec["type"]](spec)


def build_sim_config(spec: dict, n_paths=None, seed=None) -> SimConfig:
    return SimConfig(
        T=float(spec["T"]), M=float(spec["M"]), dt=float(spec["dt"]),
        eps_jump=float(spec["eps_jump"]),
        n_paths=int(n_paths if n_paths is not None else spec["n_paths"]),
        seed=int(seed if seed is not None else spec["seed"]),
        small_jump_mode=spec.get("small_jump_mode", "gaussian-approx"),
    )


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------


# every file in the catalogue directory is a builtin, named by its stem
SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")


def builtin_names() -> list:
    return sorted(f[:-5] for f in os.listdir(SCENARIO_DIR) if f.endswith(".yaml"))


def builtin_scenario(name: str) -> Scenario:
    """Parse the catalogue file of `name` afresh; `name` must be one of
    `builtin_names()`, so it never reaches the file system unchecked."""
    known = builtin_names()
    if name not in known:
        raise ConfigError(f"unknown builtin scenario {name!r}; known: {known}")
    return load_scenario(os.path.join(SCENARIO_DIR, f"{name}.yaml"))


# ---------------------------------------------------------------------------
# check-kernel and construct
# ---------------------------------------------------------------------------


def run_check_kernel(scn: Scenario) -> dict:
    triplet = build_triplet(scn.triplet)
    kern = build_kernel(scn.kernel)
    regime = scn.verify.get("tail_regime", "other")
    cls = emm_classify(kern, triplet, regime)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scn.name,
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


def make_girsanov_kernel(scn: Scenario, triplet: LevyTriplet):
    hyp = scn.emm["hypothesis"]
    if hyp == "h1":
        gk = emm_construct.make_h1_kernel(triplet, scn.emm["a"], scn.emm["b"])
    elif hyp == "h2":
        gk = emm_construct.make_h2_kernel(triplet, scn.emm["a"])
    else:
        raise ConfigError(f"no Girsanov kernel for hypothesis {hyp!r}")
    if "frozen_zeta" in scn.emm:
        gk = _FrozenZeta(gk.a, gk.lam, gk.tail, gk.b_h,
                         float(scn.emm["frozen_zeta"]))
    if "break_positive_factor" in scn.emm:
        gk = _BrokenAlpha(gk, float(scn.emm["break_positive_factor"]))
    return gk


def run_construct(scn: Scenario, n_y: int = 100) -> dict:
    triplet = build_triplet(scn.triplet)
    gk = make_girsanov_kernel(scn, triplet)
    y_span = float(scn.emm.get("y_span", 1.0))
    ys = np.linspace(-y_span, y_span, n_y)
    report = emm_construct.validate_girsanov_kernel(
        gk, triplet, ys, abs_tol=float(scn.emm["tolerance"])
    )
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scn.name,
        "validation": report,
    }


# ---------------------------------------------------------------------------
# per-block workers (exact jump responses, no full-grid pass)
# ---------------------------------------------------------------------------


def _weighted_chunk(scn_dict: dict, start: int, stop: int) -> dict:
    """Weighted-P statistics (h1 or h2) for a contiguous block of path
    indices."""
    scn = scenario_from_dict(scn_dict)
    triplet = build_triplet(scn.triplet)
    kern = build_kernel(scn.kernel)
    cfg = build_sim_config(scn.sim)
    gk = make_girsanov_kernel(scn, triplet)
    sim = PathSimulator(triplet, cfg)
    probes = [0.0] + [float(t) for t in scn.verify.get("probe_times", [cfg.T])]
    # left nodes of the compensator sum on [0, T); none for a mass-preserving alpha
    grid = sim.times[cfg.m_cells:-1] if gk.excess_rate is not None else ()

    n = stop - start
    z_T = np.empty(n)
    x_probe = np.empty((n, len(probes)))
    counts = np.zeros(n, dtype=np.int64)
    for i, idx in enumerate(range(start, stop)):
        path = sim.simulate(sim.rng_for(idx))
        resp = KernelResponse(kern, path)
        win = (path.jump_times > 0.0) & (np.abs(path.jump_sizes) > gk.a)
        marks = path.jump_sizes[win]
        y_pre = [resp.y_pre(t_n) for t_n in path.jump_times[win]]
        factors, comp = girsanov.density_terms(
            gk, y_pre, marks, [resp.y_pre(t) for t in grid], cfg.dt)
        z_T[i] = math.prod(factors) * math.exp(comp[-1])
        counts[i] = len(marks)
        for j, t_p in enumerate(probes):
            x_probe[i, j] = resp.x_at(t_p)
    return {"z_T": z_T, "x_probe": x_probe, "counts": counts,
            "probes": np.asarray(probes)}


def _q_chunk(scn_dict: dict, start: int, stop: int) -> dict:
    """Direct-Q mark and count statistics for a block of path indices."""
    scn = scenario_from_dict(scn_dict)
    triplet = build_triplet(scn.triplet)
    kern = build_kernel(scn.kernel)
    cfg = build_sim_config(scn.sim)
    gk = make_girsanov_kernel(scn, triplet)
    sim = PathSimulator(triplet, cfg)
    counts = np.zeros(stop - start, dtype=np.int64)
    y_pre, marks = [], []
    for i, idx in enumerate(range(start, stop)):
        rec = girsanov.simulate_under_q(gk, triplet, kern, cfg, idx, sim=sim)
        counts[i] = rec.n_tail_jumps
        y_pre.extend(rec.y_pre.tolist())
        marks.extend(rec.jump_sizes.tolist())
    return {
        "counts": counts, "y_pre": np.asarray(y_pre),
        "marks": np.asarray(marks),
    }


def _gaussian_chunk(scn_dict: dict, start: int, stop: int) -> dict:
    """Classical-Girsanov statistics for the pure-Gaussian baseline."""
    scn = scenario_from_dict(scn_dict)
    triplet = build_triplet(scn.triplet)
    kern = build_kernel(scn.kernel)
    cfg = build_sim_config(scn.sim)
    sim = PathSimulator(triplet, cfg)
    m = cfg.m_cells
    n_out = cfg.n_out
    sqc = math.sqrt(triplet.c)
    phi0 = kern.phi0
    xi = triplet.xi()
    probes = [float(t) for t in scn.verify.get("probe_times", [0.0, cfg.T])]
    p_idx = [round(t / cfg.dt) for t in probes]

    n_cells = cfg.n_cells
    w_phi = _weight_table(kern, n_cells, cfg.dt)
    w_dphi = _weight_table(kern.dphi, n_cells, cfg.dt)
    r_phi, r_dphi = kern.recursion(cfg.dt)

    block = 512
    z_parts, x_parts = [], []
    for lo in range(start, stop, block):
        hi = min(lo + block, stop)
        inc = np.empty((hi - lo, n_cells))
        for r, idx in enumerate(range(lo, hi)):
            inc[r] = sim.simulate(sim.rng_for(idx)).increments
        X = _backend.ma_correlate(inc, w_phi, n_out, m, r_phi)
        Y = _backend.ma_correlate(inc, w_dphi, n_out, m, r_dphi)
        theta = -(Y + phi0 * xi) / (phi0 * sqc)
        dB = (inc[:, m:] - sim.drift_rate * cfg.dt) / sqc
        log_z = np.sum(theta[:, :-1] * dB, axis=1) \
            - 0.5 * np.sum(theta[:, :-1] ** 2, axis=1) * cfg.dt
        z_parts.append(np.exp(log_z))
        x_parts.append(X[:, p_idx])
    return {
        "z_T": np.concatenate(z_parts),
        "x_probe": np.vstack(x_parts),
        "probes": np.asarray(probes),
    }


def _run_chunked(worker, scn: Scenario, n_paths: int, workers: int) -> dict:
    """Split [0, n_paths) into index blocks and merge results in index
    order, so the ensemble is independent of scheduling."""
    scn_dict = scn.to_dict()
    n_blocks = max(1, workers) * 4 if workers > 1 else 1
    edges = np.linspace(0, n_paths, n_blocks + 1).astype(int)
    spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
    if workers <= 1 or len(spans) == 1:
        parts = [worker(scn_dict, a, b) for a, b in spans]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(worker, scn_dict, a, b) for a, b in spans]
            parts = [f.result() for f in futs]
    merged = {}
    for key in parts[0]:
        arrs = [p[key] for p in parts]
        if key == "probes":
            merged[key] = arrs[0]
        elif arrs[0].ndim == 1:
            merged[key] = np.concatenate(arrs)
        else:
            merged[key] = np.vstack(arrs)
    return merged


# ---------------------------------------------------------------------------
# verification batteries
# ---------------------------------------------------------------------------


def _battery_jumps(scn: Scenario, n_paths: int, seed: int,
                   workers: int) -> dict:
    """Weighted-P (h1, h2) or direct-Q (h2) battery of a jump measure change;
    under direct Q the paths carry no weights."""
    direct = scn.verify.get("mode") == "direct-q"
    data = _run_chunked(_q_chunk if direct else _weighted_chunk, scn, n_paths,
                        workers)
    z = data.get("z_T")
    tests = _battery_tests(scn.emm, scn.verify)
    gk = make_girsanov_kernel(scn, build_triplet(scn.triplet))
    reports = []
    if "mean_density" in tests:
        reports.append(verify.mean_density_test(z, seed=seed))
    if "q_martingale" in tests:
        reports.append(verify.q_martingale_test(
            data["x_probe"][:, 1:], data["x_probe"][:, 0], z,
            data["probes"][1:], seed=seed,
        ))
    if "jump_intensity" in tests:
        lam_factor = float(scn.emm.get("declared_intensity_factor", 1.0))
        reports.append(verify.jump_intensity_test(
            data["counts"], gk.lam * lam_factor, float(scn.sim["T"]),
            weights=z, seed=seed,
        ))
    if "conditional_jump_law" in tests:
        reports.append(verify.conditional_jump_law_test(
            data["y_pre"], data["marks"], gk, seed=seed,
        ))
    out = {"reports": reports}
    if z is not None:
        out["plot"] = _plot_rows(data["probes"], data["x_probe"], z)
    return out


def _battery_gaussian(scn: Scenario, n_paths: int, seed: int,
                      workers: int) -> dict:
    data = _run_chunked(_gaussian_chunk, scn, n_paths, workers)
    kern = build_kernel(scn.kernel)
    triplet = build_triplet(scn.triplet)
    phi0 = float(scn.emm.get("declared_phi0", kern.phi0))
    probes = data["probes"]
    pairs = [(j, j + 1) for j in range(len(probes) - 1)]
    tests = _battery_tests(scn.emm, scn.verify)
    reports = []
    if "mean_density" in tests:
        reports.append(verify.mean_density_test(data["z_T"], seed=seed))
    if "brownian_invariance" in tests:
        reports.append(verify.brownian_invariance_test(
            data["x_probe"], probes, data["z_T"], pairs, phi0, triplet.c,
            seed=seed,
        ))
    out = {"reports": reports}
    out["plot"] = _plot_rows(probes, data["x_probe"], data["z_T"])
    return out


def _battery_lm(scn: Scenario, n_paths: int, seed: int, workers: int) -> dict:
    tests = _battery_tests(scn.emm, scn.verify)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    reports = []
    if scn.emm["style"] == "bremaud":
        K1 = float(scn.emm["K1"])
        K2 = float(scn.emm["K2"])
        gamma = float(scn.emm["gamma"])
        eps = float(scn.emm["eps"])
        triplet = build_triplet(scn.triplet)
        lam = float(np.sum(triplet.F.w))
        cfg = build_sim_config(scn.sim, n_paths=n_paths, seed=seed)
        times = np.arange(cfg.n_out) * cfg.dt
        # Poisson counting paths on the grid
        incs = rng.poisson(lam * cfg.dt, size=(n_paths, cfg.n_out - 1))
        L = np.concatenate(
            [np.zeros((n_paths, 1)), np.cumsum(incs, axis=1)], axis=1
        )
        P = 2.0 + K1 + K2 * (L + lam * times[None, :])

        def w_fn(p, x):
            return np.maximum(p - 2.0, 0.0) ** (1.0 / gamma) - 1.0

        lm = girsanov.lm_criterion_check(
            times, P, lambda x: np.ones_like(np.asarray(x, dtype=float)),
            triplet, eps=eps, w_fn=w_fn,
        )
        if "lm_criterion" in tests:
            reports.append(verify.StatReport(
                "lm_criterion", lm.condition_b, 0.0, n_paths,
                "pass" if lm.certified else "fail",
                "dominance + condition (b) + cell exponential moments", seed,
                lm.to_dict(),
            ))
        if "finite_expect" in tests:
            reports.append(lm.finite_expect)
    else:  # lmrelax, the only other style _battery_tests accepts
        eps = float(scn.emm["eps"])
        rate = float(scn.emm.get("cp_rate", 1.0))
        counts = rng.poisson(rate, size=n_paths)
        y = np.array([
            float(np.sum(rng.exponential(1.0, k))) if k else 0.0
            for k in counts
        ])
        reports.append(verify.finite_expect(y, eps, seed=seed))
    return {"reports": reports}


def _plot_rows(times, x_probe, z):
    """Plot-ready rows: t, weighted mean of X_t, 3-s.e. CI band."""
    rows = []
    zbar = float(np.mean(z))
    for j, t in enumerate(np.asarray(times, dtype=float)):
        rs = verify.RunningStats().add(z * x_probe[:, j])
        mean = rs.mean / zbar
        half = 3.0 * rs.stderr / zbar
        rows.append((t, mean, mean - half, mean + half))
    return rows


def run_verify(scn: Scenario, n_paths=None, seed=None, workers: int = 1) -> dict:
    """Run the scenario's test battery and assemble the report document."""
    n = int(n_paths if n_paths is not None else scn.sim["n_paths"])
    sd = int(seed if seed is not None else scn.sim["seed"])
    if seed is not None or n_paths is not None:
        scn = scenario_from_dict({
            **scn.to_dict(),
            "sim": {**scn.sim, "n_paths": n, "seed": sd},
        })
    hyp = scn.emm["hypothesis"]
    if hyp in ("h1", "h2"):
        out = _battery_jumps(scn, n, sd, workers)
    elif hyp == "gaussian":
        out = _battery_gaussian(scn, n, sd, workers)
    elif hyp == "lm":
        out = _battery_lm(scn, n, sd, workers)
    else:
        raise ConfigError(f"hypothesis {hyp!r} has no verification battery")
    reports = out["reports"]
    overall = all(r.verdict == "pass" for r in reports)
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scn.name,
        "seed": sd,
        "n_paths": n,
        "overall": "pass" if overall else "fail",
        "reports": [r.to_dict() for r in reports],
    }
    if "plot" in out:
        doc["plot"] = [list(map(float, row)) for row in out["plot"]]
    return doc


# ---------------------------------------------------------------------------
# simulate command and exports
# ---------------------------------------------------------------------------


def run_simulate(scn: Scenario, out_dir: str, n_paths=None, seed=None,
                 max_path_csv: int = 5) -> dict:
    cfg = build_sim_config(scn.sim, n_paths=n_paths, seed=seed)
    triplet = build_triplet(scn.triplet)
    kern = build_kernel(scn.kernel)
    sim = PathSimulator(triplet, cfg)
    os.makedirs(out_dir, exist_ok=True)
    jump_records = []
    for idx in range(cfg.n_paths):
        path = sim.simulate(sim.rng_for(idx))
        if idx < max_path_csv:
            ma = moving_average(kern, path, m_cells=cfg.m_cells)
            with open(os.path.join(out_dir, f"path_{idx}.csv"), "w",
                      newline="") as fh:
                write_path_csv(fh, path, ma, cfg.m_cells)
        w = path.jump_times > 0.0
        for t, z in zip(path.jump_times[w], path.jump_sizes[w]):
            jump_records.append((idx, float(t), float(z)))
    with open(os.path.join(out_dir, "jumps.csv"), "w", newline="") as fh:
        write_jumps_csv(fh, jump_records)
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scn.name,
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "n_jumps_in_window": len(jump_records),
        "backend": _backend.backend_name(),
        "correlation": "fft" if kern.iir is None else "recursion",
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
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        dump_json(doc, fh)
    if "plot" in doc:
        with open(os.path.join(out_dir, f"{stem}_plot.csv"), "w",
                  newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "weighted_mean_X", "ci_lo", "ci_hi"])
            for row in doc["plot"]:
                w.writerow([f"{v:.10g}" for v in row])
