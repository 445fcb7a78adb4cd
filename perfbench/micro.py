"""Microbenchmarks of single layers at the shapes the workloads hit.

Each is timed through levyemm's public functions with tracing off, as the
median over several batches of the time per call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from levyemm import _backend, path_sim, pipeline, verify

from spans import VERIFY_TESTS

REPEATS = 5


def _per_call(fn, calls: int) -> float:
    """Median over REPEATS batches of seconds per call of fn(i)."""
    fn(0)
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def _model(name: str):
    scn = pipeline.builtin_scenario(name)
    triplet = pipeline.build_triplet(scn.triplet)
    cfg = pipeline.build_sim_config(scn.sim)
    return scn, triplet, pipeline.build_kernel(scn.kernel), cfg, \
        path_sim.PathSimulator(triplet, cfg)


def run(verify_args: dict[str, tuple]) -> dict[str, float]:
    """Per-unit times; verify_args maps 'verify.<test>' to the (args, kwargs)
    of the workload's own call, so each test runs on arrays of its size.
    Tests the workload does not run report 0."""
    rng = np.random.default_rng(0)
    out = {}

    # the gaussian-baseline block: 512 rows of the 5376-cell lattice
    _, _, kern_g, cfg_g, sim_g = _model("gaussian-baseline")
    n = cfg_g.n_cells
    inc = rng.standard_normal((512, n)) * np.sqrt(cfg_g.dt)
    w = kern_g(np.arange(n + 1) * cfg_g.dt)
    out["backend.ma_correlate.ms_per_block"] = 1e3 * _per_call(
        lambda i: _backend.ma_correlate(inc, w, cfg_g.n_out, cfg_g.m_cells), 1)

    # the single-row shape moving_average hits on the h2 lattice
    scn_h, triplet_h, kern_h, cfg_h, sim_h = _model("h2-two-atom")
    n_h = cfg_h.n_cells
    row = rng.standard_normal((1, n_h))
    w_h = kern_h.dphi(np.arange(n_h + 1) * cfg_h.dt)
    out["backend.ma_correlate.us_per_call_1x244x5"] = 1e6 * _per_call(
        lambda i: _backend.ma_correlate(row, w_h, cfg_h.n_out, cfg_h.m_cells), 200)

    out["path_sim.rng_for.us_per_path"] = 1e6 * _per_call(sim_h.rng_for, 500)
    out["path_sim.simulate.us_per_path_244"] = 1e6 * _per_call(
        lambda i: sim_h.simulate(sim_h.rng_for(i)), 300)
    out["path_sim.simulate.us_per_path_5376"] = 1e6 * _per_call(
        lambda i: sim_g.simulate(sim_g.rng_for(i)), 100)

    # per-jump work of the h2 battery: one alpha factor, one Y_{T_n-}
    gk = pipeline.make_girsanov_kernel(scn_h, triplet_h)
    ys = np.clip(rng.normal(0.0, 0.2, 1000), -1.5, 1.5)
    zs = rng.choice([-1.0, 1.0], 1000)
    out["emm_construct.evaluate.us_per_jump"] = 1e6 * _per_call(
        lambda i: gk.evaluate(float(ys[i]), float(zs[i])), 1000)
    path = sim_h.simulate(sim_h.rng_for(0))
    diffuse = path.diffuse_increments()
    ts = rng.uniform(0.0, cfg_h.T, 1000)
    out["path_sim.y_at.us_per_jump"] = 1e6 * _per_call(
        lambda i: path_sim.y_at(kern_h, path, float(ts[i]), diffuse=diffuse), 1000)

    for test in VERIFY_TESTS:
        name = f"verify.{test[:-len('_test')]}"
        captured = verify_args.get(name)
        if captured is None:
            out[f"{name}.ms_per_call"] = 0.0
            continue
        args, kwargs = captured
        fn = getattr(verify, test)
        out[f"{name}.ms_per_call"] = 1e3 * _per_call(lambda i: fn(*args, **kwargs), 1)
    return out
