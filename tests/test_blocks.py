"""Block-level paths: each path keeps its own (seed, i) generator and is
summed on its own, so the chunk workers do not depend on how the path
indices are split, and they agree with per-path references."""

import math
import warnings

import numpy as np
import pytest

from levyemm import girsanov, path_sim, pipeline
from levyemm.kernel import exponential_kernel, power_kernel
from levyemm.levy_model import (
    LevyTriplet,
    gaussian_only,
    indicator_inside,
    symmetric_alpha_stable,
)
from levyemm.path_sim import (
    LatticePath,
    PathBlock,
    PathSimulator,
    SimConfig,
    _cell_index,
    moving_average,
    y_at,
)

SPLIT = ((0, 700), (700, 1300), (1300, 2000))


def _builtin(name):
    return pipeline.builtin_scenario(name).to_dict()


def _direct_q_sas():
    """q-two-atom-zeta05 with the live kernel on SaS 1.5: the sub-threshold
    jumps become Gaussian cells, so the paths have diffuse activity."""
    d = _builtin("q-two-atom-zeta05")
    d["triplet"]["measure"] = {"type": "symmetric-alpha-stable", "alpha": 1.5}
    del d["emm"]["frozen_zeta"]
    return d


def _live_two_atom_q():
    d = _builtin("q-two-atom-zeta05")
    del d["emm"]["frozen_zeta"]
    return d


CHUNK_CASES = {
    "h2-two-atom": (pipeline._weighted_chunk, lambda: _builtin("h2-two-atom")),
    "h1-two-atom": (pipeline._weighted_chunk, lambda: _builtin("h1-two-atom")),
    "q-two-atom-zeta05": (pipeline._q_chunk,
                          lambda: _builtin("q-two-atom-zeta05")),
    "direct-q-sas-1.5": (pipeline._q_chunk, _direct_q_sas),
    # every part of SPLIT starts inside a block of the whole
    "gaussian-baseline": (pipeline._gaussian_chunk,
                          lambda: _builtin("gaussian-baseline")),
    # a kernel without a recursion: the FFT on [0, T] and a rank-6 factor
    "gaussian-power-2.5": (pipeline._gaussian_chunk, lambda: {
        **_builtin("gaussian-baseline"),
        "kernel": {"type": "power", "gamma": 2.5}}),
}


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunk_arrays_independent_of_the_split(case):
    worker, build = CHUNK_CASES[case]
    d = build()
    whole = worker(d, 0, 2000)
    parts = [worker(d, a, b) for a, b in SPLIT]
    if worker is pipeline._gaussian_chunk:
        assert len(whole["z_T"]) == 2000
    else:
        assert len(whole["counts"]) == 2000 and whole["counts"].sum() > 0
    for key, arr in whole.items():
        assert np.array_equal(arr, np.concatenate([p[key] for p in parts])), key


# ---------------------------------------------------------------------------
# block seeding: rngs(lo, hi) gives the generators rng_for gives
# ---------------------------------------------------------------------------


def _seeded_sim(seed):
    cfg = SimConfig(T=1.0, M=1.0, dt=0.125, eps_jump=0.5, n_paths=1, seed=seed)
    return PathSimulator(LevyTriplet(1.0, gaussian_only(), 0.0,
                                     indicator_inside(1.0)), cfg)


# multi-word seeds (2**32 and 2**64 + 5 take two and three entropy words),
# and indices on both sides of 2**32, where an index takes a second word
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("lo, hi", [(0, 2), (2**32 - 1, 2**32 + 1),
                                    (2**64 - 2, 2**64)])
def test_block_seeding_words_equal_seed_sequence(seed, lo, hi):
    sim = _seeded_sim(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rngs = sim.rngs(lo, hi)
    assert len(rngs) == hi - lo
    for i, rng in zip(range(lo, hi), rngs):
        want = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
        assert np.array_equal(rng.bit_generator.seed_seq.words, want), i
        assert rng.bit_generator.state == sim.rng_for(i).bit_generator.state


def test_block_seeding_refuses_indices_from_2_64():
    with pytest.raises(ValueError, match="2\\*\\*64"):
        _seeded_sim(3).rngs(2**64 - 1, 2**64 + 1)


def test_block_seeding_mismatch_raises(monkeypatch):
    # a hash that no longer matches NumPy's SeedSequence must not pass
    monkeypatch.setattr(path_sim, "_INIT_B", path_sim._INIT_B ^ 1)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        _seeded_sim(3).rngs(0, 4)


@pytest.mark.parametrize("lo", [0, 4000, 123456])
def test_block_seeding_streams_equal_rng_for(lo):
    sim = _seeded_sim(20260823)
    for i, rng in zip(range(lo, lo + 128), sim.rngs(lo, lo + 128)):
        ref = sim.rng_for(i)
        for draw in (lambda g: g.normal(0.0, 1.0, 5), lambda g: g.poisson(3.0, 5),
                     lambda g: g.uniform(-1.0, 2.0, 5), lambda g: g.random(5)):
            assert np.array_equal(draw(rng), draw(ref)), i


@pytest.mark.parametrize("name", ["h2-two-atom", "gaussian-baseline"])
def test_draw_from_block_seeding_equals_rng_for(name):
    sim = pipeline._model(_builtin(name))[4]
    block = sim.draw(sim.rngs(300, 428))
    ref = sim.draw([sim.rng_for(i) for i in range(300, 428)])
    for field in ("diffuse", "jump_times", "jump_sizes", "offsets"):
        assert np.array_equal(getattr(block, field), getattr(ref, field)), field


def test_sas_direct_q_has_diffuse_cells():
    _, _, _, _, sim = pipeline._model(_direct_q_sas())
    assert sim.small_var_rate > 0.0
    assert sim.draw([sim.rng_for(0)]).diffuse.any()


# ---------------------------------------------------------------------------
# per-path references
# ---------------------------------------------------------------------------


def _simulate_reference(sim, rng):
    """One path drawn on its own: the diffuse cells, the cells with the
    jumps embedded, the jump times and sizes."""
    cfg = sim.config
    n, dt = cfg.n_cells, cfg.dt
    inc = np.full(n, sim.drift_rate * dt)
    if sim.triplet.c > 0.0:
        inc += rng.normal(0.0, math.sqrt(sim.triplet.c * dt), n)
    if sim.small_var_rate > 0.0:
        inc += rng.normal(0.0, math.sqrt(sim.small_var_rate * dt), n)
    diffuse = inc.copy()
    jt = jz = np.empty(0)
    if sim.tail is not None:
        count = rng.poisson(sim.jump_rate * (cfg.T + cfg.M))
        jt = np.sort(rng.uniform(-cfg.M, cfg.T, count))
        jz = sim.tail.sample(count, rng)
        np.add.at(inc, _cell_index(jt, -cfg.M, dt, n), jz)
    return diffuse, inc, jt, jz


def _sas_gauss_sim():
    t = LevyTriplet(0.5, symmetric_alpha_stable(1.5), 0.1, indicator_inside(1.0))
    cfg = SimConfig(T=1.0, M=4.0, dt=0.125, eps_jump=0.2, n_paths=1, seed=5)
    return PathSimulator(t, cfg)


_GRID_KERNELS = [exponential_kernel(0.7, 1.3), power_kernel(1.5)]


@pytest.mark.parametrize("k", _GRID_KERNELS, ids=lambda k: k.name)
def test_grid_moving_average_rows_are_one_row_blocks(k):
    sim = _sas_gauss_sim()
    block = sim.draw([sim.rng_for(i) for i in range(150)])
    assert block.diffuse.any() and np.diff(block.offsets).min() > 0
    X, Y = block.moving_average(k)
    assert X.shape == Y.shape == (150, sim.config.n_out)
    for b in range(150):
        path = block.path(b)
        x1, y1 = PathBlock.of_path(path, block.diffuse[b]).moving_average(k)
        assert np.array_equal(x1[0], X[b]) and np.array_equal(y1[0], Y[b])
        # the path's own diffuse cells come back from its embedded
        # increments, so they can differ from the block's in the last bit
        ma = moving_average(k, path)
        scale = np.max(np.abs(X[b]))
        np.testing.assert_allclose(ma.X, X[b], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(ma.Y, Y[b], rtol=0, atol=1e-12 * scale)
        assert ma.X0 == ma.X[0]


@pytest.mark.parametrize("k", _GRID_KERNELS, ids=lambda k: k.name)
def test_grid_moving_average_equals_response_off_jump_times(k):
    sim = _sas_gauss_sim()
    block = sim.draw([sim.rng_for(i) for i in range(40)])
    grid = sim.times[sim.config.m_cells:]
    assert not np.isin(block.jump_times, grid).any()
    X, Y = block.moving_average(k)
    rows, t = np.repeat(np.arange(40), len(grid)), np.tile(grid, 40)
    x_at = block.response(k, rows, t, strict=False).reshape(X.shape)
    y_pre = block.response(k.dphi, rows, t, strict=True).reshape(Y.shape)
    np.testing.assert_allclose(X, x_at, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(x_at)))
    np.testing.assert_allclose(Y, y_pre, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(y_pre)))


@pytest.mark.parametrize("which", ["h2-two-atom", "sas-gauss"])
def test_draw_rows_equal_paths_drawn_one_at_a_time(which):
    if which == "sas-gauss":
        sim = _sas_gauss_sim()
    else:
        sim = pipeline._model(_builtin(which))[4]
    block = sim.draw([sim.rng_for(i) for i in range(150)])
    assert len(block.jump_times)
    assert block.diffuse.any() == (which == "sas-gauss")
    for b in range(150):
        diffuse, inc, jt, jz = _simulate_reference(sim, sim.rng_for(b))
        path = block.path(b)
        assert np.array_equal(block.diffuse[b], diffuse)
        assert np.array_equal(path.increments, inc)
        assert np.array_equal(path.jump_times, jt)
        assert np.array_equal(path.jump_sizes, jz)
        assert np.array_equal(sim.simulate(sim.rng_for(b)).increments, inc)


def _q_reference(gk, kern, sim, i):
    """One direct-Q path, mark by mark: Y_{T_n-} from y_at over the kept
    jumps and the marks so far, then one uniform through mark_quantile.
    The mark law is called on one-element arrays, as a block calls it:
    NumPy's scalar power may differ from its array power in the last bit,
    which moves SaS marks."""
    rng = sim.rng_for(i)
    diffuse, _, jt, jz = _simulate_reference(sim, rng)
    keep = (jt <= 0.0) | (np.abs(jz) <= gk.a)
    jt, jz = jt[keep], jz[keep]
    n_arr = rng.poisson(gk.lam * sim.config.T)
    marks, y_pre = [], []
    for t_n in np.sort(rng.uniform(0.0, sim.config.T, n_arr)):
        y = y_at(kern, LatticePath(sim.times, diffuse, jt, jz), t_n,
                 diffuse=diffuse)
        z = float(gk.mark_quantile(np.array([y]), np.array([rng.random()]))[0])
        marks.append(z)
        y_pre.append(y)
        at = np.searchsorted(jt, t_n)
        jt, jz = np.insert(jt, at, t_n), np.insert(jz, at, z)
    return np.array(marks), np.array(y_pre)


@pytest.mark.parametrize("build", [_live_two_atom_q, _direct_q_sas],
                         ids=["two-atom", "sas-1.5"])
def test_direct_q_block_matches_sequential_reference(build):
    d = build()
    scn, triplet, kern, _, sim = pipeline._model(d)
    gk = pipeline.make_girsanov_kernel(scn, triplet)
    counts, _, marks, y_pre = girsanov.draw_under_q(
        gk, kern, sim, [sim.rng_for(i) for i in range(150)])
    refs = [_q_reference(gk, kern, sim, i) for i in range(150)]
    assert counts.tolist() == [len(m) for m, _ in refs]
    assert np.array_equal(marks, np.concatenate([m for m, _ in refs]))
    np.testing.assert_allclose(y_pre, np.concatenate([y for _, y in refs]),
                               rtol=1e-12, atol=1e-12)
    one = girsanov.simulate_under_q(gk, kern, sim, 7)
    lo = counts[:7].sum()
    assert one.n_tail_jumps == counts[7] and isinstance(one.n_tail_jumps, int)
    assert np.array_equal(one.jump_sizes, marks[lo:lo + counts[7]])


def _weighted_reference(scn, triplet, kern, cfg, sim, gk, i):
    """z_T and X at the probes of path i from y_at and scalar alpha calls."""
    path = sim.simulate(sim.rng_for(i))
    diffuse = path.diffuse_increments()
    win = (path.jump_times > 0.0) & (np.abs(path.jump_sizes) > gk.a)
    z = 1.0
    for t_n, z_n in zip(path.jump_times[win], path.jump_sizes[win]):
        z *= gk.evaluate(y_at(kern, path, t_n, diffuse), float(z_n))
    if gk.excess_rate is not None:
        comp = sum(float(gk.excess_rate(y_at(kern, path, t, diffuse))) * cfg.dt
                   for t in sim.times[cfg.m_cells:-1])
        z *= math.exp(-comp)
    left = sim.times[:-1]
    x = []
    for t in pipeline._probe_times(scn):
        cells, jumps = left < t, path.jump_times <= t
        x.append(np.dot(kern(t - left[cells]), diffuse[cells])
                 + np.dot(kern(t - path.jump_times[jumps]),
                          path.jump_sizes[jumps]))
    return z, x


@pytest.mark.parametrize("name", ["h1-two-atom", "h2-two-atom"])
def test_weighted_block_matches_per_path_reference(name):
    d = _builtin(name)
    scn, triplet, kern, cfg, sim = pipeline._model(d)
    gk = pipeline.make_girsanov_kernel(scn, triplet)
    got = pipeline._weighted_chunk(d, 0, 150)
    refs = [_weighted_reference(scn, triplet, kern, cfg, sim, gk, i)
            for i in range(150)]
    z_ref = np.array([z for z, _ in refs])
    x_ref = np.array([x for _, x in refs])
    assert np.ptp(z_ref) > 0.0
    np.testing.assert_allclose(got["z_T"], z_ref, rtol=1e-12, atol=0.0)
    # relative to the size of X: a probe value near 0 has no relative scale
    np.testing.assert_allclose(got["x_probe"], x_ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(x_ref)))
