"""Block-level paths: each path keeps its own (seed, i) generator and is
summed on its own, so a battery's span of paths does not depend on how the
path indices are split, and it agrees with per-path references."""

import collections
import copy
import dataclasses
import functools
import json
import math
import pickle
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

from levyemm import girsanov, path_sim, pipeline
from levyemm.errors import InvalidConfig
from levyemm.kernel import (
    constant_kernel,
    exponential_form,
    exponential_kernel,
    power_kernel,
    zero_start_kernel,
)
from levyemm.levy_model import (
    DiscreteMeasure,
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
    "h2-two-atom": lambda: _builtin("h2-two-atom"),
    "h1-two-atom": lambda: _builtin("h1-two-atom"),
    "q-two-atom-zeta05": lambda: _builtin("q-two-atom-zeta05"),
    "direct-q-sas-1.5": _direct_q_sas,
    # every part of SPLIT starts inside a block of the whole
    "gaussian-baseline": lambda: _builtin("gaussian-baseline"),
    # a kernel without exponential form: the FFT on [0, T] and a rank-6 factor
    "gaussian-power-2.5": lambda: {
        **_builtin("gaussian-baseline"),
        "kernel": {"type": "power", "gamma": 2.5}},
}


def _span(model, start, stop):
    """The arrays of the model's battery for paths [start, stop) at its seed."""
    return pipeline._span(model.battery, model, model.cfg.seed, start, stop)


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_chunk_arrays_independent_of_the_split(case):
    model = pipeline.model_from_dict(CHUNK_CASES[case]())
    whole = _span(model, 0, 2000)
    parts = [_span(model, a, b) for a, b in SPLIT]
    if model.battery == ("gaussian", "weighted"):
        assert len(whole["z_T"]) == 2000
    else:
        assert len(whole["counts"]) == 2000 and whole["counts"].sum() > 0
    for key, arr in whole.items():
        assert np.array_equal(arr, np.concatenate([p[key] for p in parts])), key


@pytest.mark.parametrize("name", ["h2-two-atom", "h1-two-atom", "q-two-atom-zeta05",
                                  "gaussian-baseline"])
def test_documents_independent_of_the_block_size(name, monkeypatch):
    """The battery's document is the same, byte for byte, in blocks of
    128, 256 or 37 paths, in this process and in two pool workers."""
    docs = set()
    for block in (128, 256, 37):
        monkeypatch.setattr(path_sim, "_BLOCK", block)
        for workers in (1, 2):
            doc = pipeline.run_verify(pipeline.builtin_scenario(name), n_paths=600,
                                      workers=workers)
            docs.add(json.dumps(doc))
    assert len(docs) == 1


# ---------------------------------------------------------------------------
# block seeding: seed_states and Generators give the streams rng_for gives
# ---------------------------------------------------------------------------


def _seeded_sim(seed):
    cfg = SimConfig(T=1.0, M=1.0, dt=0.125, eps_jump=0.5, n_paths=1, seed=seed)
    return PathSimulator(LevyTriplet(1.0, gaussian_only(), 0.0,
                                     indicator_inside(1.0)), cfg)


def _pcg64_words(seed, i):
    """The PCG64 words NumPy's own generator of path i starts from: state
    high and low, then inc high and low."""
    state = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
    return [w >> s & (2**64 - 1) for w in (state["state"], state["inc"])
            for s in (64, 0)]


def _reseated(seed, lo, hi):
    """The reseated generator of paths lo..hi - 1 at seed, path by path."""
    return path_sim.Generators(path_sim.seed_states(seed, lo, hi))


# multi-word seeds (2**32 and 2**64 + 5 take two and three entropy words),
# and indices on both sides of 2**32, where an index takes a second word
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("lo, hi", [(0, 2), (2**32 - 1, 2**32 + 1),
                                    (2**64 - 2, 2**64)])
def test_block_seeding_words_equal_numpy_pcg64(seed, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states = path_sim.seed_states(seed, lo, hi)
    assert states.shape == (hi - lo, 4) and states.dtype == np.uint64
    for i, words in zip(range(lo, hi), states):
        assert words.tolist() == _pcg64_words(seed, i), i


def test_block_seeding_refuses_indices_from_2_64():
    with pytest.raises(ValueError, match="2\\*\\*64"):
        path_sim.seed_states(3, 2**64 - 1, 2**64 + 1)


@pytest.mark.parametrize("name, broken", [
    # the SeedSequence hash, and PCG64's seeding step after it
    ("_INIT_B", path_sim._INIT_B ^ 1),
    ("_PCG_MULT", (path_sim._PCG_MULT[0], path_sim._PCG_MULT[1] ^ np.uint64(2)))],
    ids=["hash", "seeding-step"])
def test_block_seeding_mismatch_raises(monkeypatch, name, broken):
    # seeding that no longer matches NumPy's own must not pass
    monkeypatch.setattr(path_sim, name, broken)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        path_sim.seed_states(3, 0, 4)


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 5])
@pytest.mark.parametrize("lo", [0, 123456, 2**32 - 64])
def test_block_seeding_streams_equal_rng_for(seed, lo):
    """The reseated generator draws, path after path, what NumPy's own
    generator of each path draws: its state is that generator's, and so
    are its normal, poisson, uniform and random draws."""
    sim = _seeded_sim(seed)
    draws = (lambda g: g.normal(0.0, 1.0, 5), lambda g: g.poisson(3.0, 5),
             lambda g: g.uniform(-1.0, 2.0, 5), lambda g: g.random(5))
    for i, rng in zip(range(lo, lo + 128), _reseated(seed, lo, lo + 128)):
        ref = sim.rng_for(i)
        assert rng.bit_generator.state == ref.bit_generator.state, i
        for draw in draws:
            assert np.array_equal(draw(rng), draw(ref)), i


def test_a_reseat_drops_the_kept_32_bit_half():
    """A path after one that left half of a 64-bit output for the next
    32-bit draw starts from no kept half, as its own generator does."""
    for i, rng in zip(range(2), _reseated(8, 0, 2)):
        ref = np.random.default_rng(np.random.SeedSequence((8, i)))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(rng.integers(0, 2**32, 1, dtype=np.uint32),
                              ref.integers(0, 2**32, 1, dtype=np.uint32))
        assert rng.bit_generator.state["has_uint32"] == 1


@pytest.mark.parametrize("order", path_sim._WORD_ORDERS,
                         ids=["native-uint128", "emulated-high-low"])
def test_word_order_is_found_from_the_sentinels(order):
    read = [path_sim._SENTINELS[k] for k in order]
    assert path_sim._word_order(np.array(read, dtype=np.uint64)) == order


@pytest.mark.parametrize("read", [
    # words swapped across the pair, a big-endian native pair, a lost word
    [1, 0, 2, 3], [3, 2, 1, 0], [1, 0, 3, 3]])
def test_an_unknown_word_order_raises(read):
    with pytest.raises(RuntimeError, match="layout"):
        path_sim._word_order([path_sim._SENTINELS[k] for k in read])


def test_a_seat_of_an_unknown_layout_raises_before_a_path(monkeypatch):
    monkeypatch.setattr(path_sim, "_WORD_ORDERS", ((0, 1, 3, 2),))
    monkeypatch.setattr(path_sim, "_SEATS", threading.local())
    it = iter(_reseated(3, 0, 4))
    with pytest.raises(RuntimeError, match="layout"):
        next(it)


def test_interleaved_iterations_in_one_thread_are_refused():
    first = iter(_reseated(3, 0, 4))
    rng = next(first)
    with pytest.raises(RuntimeError, match="another iteration"):
        next(iter(_reseated(3, 10, 14)))
    # the refused iteration left the first one's path as it was
    assert rng.bit_generator.state == np.random.default_rng(
        np.random.SeedSequence((3, 0))).bit_generator.state
    assert len(list(first)) == 3
    assert len(list(_reseated(3, 10, 14))) == 4


@pytest.mark.parametrize("name", ["h2-two-atom", "gaussian-baseline"])
def test_draw_from_block_seeding_equals_rng_for(name):
    sim = pipeline.model_from_dict(_builtin(name)).simulator
    block = sim.draw(_reseated(sim.config.seed, 300, 428))
    ref = sim.draw([sim.rng_for(i) for i in range(300, 428)])
    for field in ("diffuse", "jump_times", "jump_sizes", "offsets"):
        assert np.array_equal(getattr(block, field), getattr(ref, field)), field


def test_sas_direct_q_has_diffuse_cells():
    sim = pipeline.model_from_dict(_direct_q_sas()).simulator
    assert sim.small_var_rate > 0.0
    assert sim.draw([sim.rng_for(0)]).diffuse.any()


# passes of 256 paths: a chunk of one pass, one of three, and one whose
# pass crosses 2**32 and so hashes twice
@pytest.mark.parametrize("start, stop, passes", [
    (5, 250, 1), (100, 700, 3), (2**32 - 200, 2**32 + 50, 2)])
def test_chunk_seeding_equals_rng_for(monkeypatch, start, stop, passes):
    monkeypatch.setattr(path_sim, "_SEED_PASS", 256)
    hashed = []
    seed_state = path_sim._seed_state
    monkeypatch.setattr(path_sim, "_seed_state",
                        lambda e: hashed.append(e.shape) or seed_state(e))
    sim = _seeded_sim(20260823)
    blocks = list(path_sim.blocks(20260823, start, stop))
    assert len(hashed) == passes
    assert [lo for lo, _ in blocks] == list(range(start, stop, path_sim._BLOCK))
    for lo, rngs in blocks:
        assert len(rngs) == min(path_sim._BLOCK, stop - lo)
        for i, rng in zip(range(lo, lo + len(rngs)), rngs):
            assert rng.bit_generator.state == sim.rng_for(i).bit_generator.state, i


def test_chunk_is_seeded_in_one_pass(monkeypatch):
    calls = []
    seed_states = path_sim.seed_states
    monkeypatch.setattr(path_sim, "seed_states",
                        lambda seed, lo, hi: calls.append((seed, lo, hi))
                        or seed_states(seed, lo, hi))
    blocks = list(path_sim.blocks(3, 40, 1040))
    assert calls == [(3, 40, 1040)]
    assert [lo for lo, _ in blocks] == list(range(40, 1040, path_sim._BLOCK))


# ---------------------------------------------------------------------------
# merged generator calls: each row's stream is the one of the separate calls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lo, hi", [(-64.0, 1.0), (0.0, 1.0), (-3.3, 7.1),
                                    (0.0, 0.37), (2.0, 2.5)])
def test_numpy_uniform_is_lo_plus_range_times_random(lo, hi):
    # Arrivals turns random doubles into uniform(lo, hi) times by
    # this identity; a NumPy that fuses the multiply-add must fail here
    got = np.random.default_rng(11).uniform(lo, hi, 20000)
    assert np.array_equal(got, lo + (hi - lo) * np.random.default_rng(11).random(20000))


@pytest.mark.parametrize("sd", [0.3, 1.0, 2.0 ** -5, 17.25])
def test_numpy_normal_is_sd_times_standard_normal(sd):
    # draw merges the Gaussian cells' normal(0, sd, n) calls by this identity
    a, b = np.random.default_rng(12), np.random.default_rng(12)
    got = np.concatenate([a.normal(0.0, sd, 1000), a.normal(0.0, 2 * sd, 1000)])
    z = b.standard_normal(2000)
    assert np.array_equal(got, np.concatenate([sd * z[:1000], 2 * sd * z[1000:]]))


def _arrivals(rngs, mean, lo, hi, pool=None):
    """Arrivals drawn from each generator of rngs in turn."""
    arrivals = path_sim.Arrivals(mean, lo, hi, len(rngs), pool)
    for rng in rngs:
        arrivals.draw(rng.poisson, rng.random)
    return arrivals.result()


def _arrivals_reference(rngs, mean, lo, hi):
    """Arrivals by three calls per generator: poisson, uniform, random."""
    counts, times, u = [], [np.empty(0)], [np.empty(0)]
    for rng in rngs:
        counts.append(rng.poisson(mean))
        times.append(np.sort(rng.uniform(lo, hi, counts[-1])))
        u.append(rng.random(counts[-1]))
    return np.array(counts, dtype=np.intp), np.concatenate(times), np.concatenate(u)


@pytest.mark.parametrize("window", [(-10.0, 1.0), (0.0, 1.0)], ids=["-M..T", "0..T"])
@pytest.mark.parametrize("rows, mean", [(60, 0.7), (60, 0.0), (1, 40.0), (1, 0.0),
                                        (60, 40.0)])
def test_draw_arrivals_equals_three_calls_per_generator(window, rows, mean):
    sim = _seeded_sim(77)
    rngs, refs = sim.rngs(100, 100 + rows), sim.rngs(100, 100 + rows)
    got = _arrivals(rngs, mean, *window)
    want = _arrivals_reference(refs, mean, *window)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    if mean == 0.7:
        assert 0 < (got[0] == 0).sum() < rows
    assert (got[0].sum() == 0) == (mean == 0.0)
    for rng, ref in zip(rngs, refs):
        assert rng.bit_generator.state == ref.bit_generator.state


def _sorted_rows(values, counts):
    """values, row after row with counts[b] in row b, each row sorted."""
    ends = np.cumsum(counts)
    return np.concatenate([np.empty(0)] + [np.sort(values[e - c:e])
                                           for c, e in zip(counts, ends)])


def _flat_split_reference(rngs, mean, lo, hi):
    """Arrivals as one flat buffer of every generator's random(2 n_b)
    doubles, split into each row's first and last n_b, the first turned
    into times and sorted row by row, as a block took them before its
    doubles were written row by row."""
    counts = np.array([rng.poisson(mean) for rng in rngs], dtype=np.intp)
    d = np.concatenate([np.empty(0)] + [rng.random(2 * c)
                                        for rng, c in zip(rngs, counts)])
    first = np.repeat(np.tile([True, False], len(counts)), np.repeat(counts, 2))
    times = d[first] * (hi - lo) + lo
    return counts, _sorted_rows(times, counts), d[~first]


@pytest.mark.parametrize("pooled", [False, True], ids=["fresh", "pool"])
def test_row_written_arrivals_equal_the_flat_split_and_sort(pooled):
    """Each generator's doubles written into its own row, the uniforms
    taken out and the times sorted in the rows, equal the flat split and
    sort, bit for bit: blocks without arrivals, with the builtins' mean
    and window, with a few arrivals a row, and, with a pool, blocks drawn
    into rows left wider or narrower by the block before. Last, rows of
    ever more arrivals, after one without, widen the rows at each row."""
    sim = _seeded_sim(2024)
    pool = path_sim.BufferPool() if pooled else None
    cases = [(0.0, 5, -60.0, 1.0), (122.0, 40, -60.0, 1.0), (3.0, 200, 0.0, 1.0),
             (0.4, 37, -3.3, 7.1), (122.0, 9, -60.0, 1.0)]
    for mean, rows, lo, hi in cases:
        rngs, refs = sim.rngs(0, rows), sim.rngs(0, rows)
        got = _arrivals(rngs, mean, lo, hi, pool)
        want = _flat_split_reference(refs, mean, lo, hi)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (mean, rows)
    arrivals = path_sim.Arrivals(1.0, 0.0, 1.0, 4, pool)
    means = [0.0, 1.0, 30.0, 300.0]
    for mean, rng in zip(means, sim.rngs(50, 54)):
        arrivals.mean = mean
        arrivals.draw(rng.poisson, rng.random)
    counts, times, u = arrivals.result()
    refs = sim.rngs(50, 54)
    want = [_flat_split_reference([r], m, 0.0, 1.0) for r, m in zip(refs, means)]
    assert counts.tolist() == [int(w[0][0]) for w in want] and counts[0] == 0
    assert np.array_equal(times, np.concatenate([w[1] for w in want]))
    assert np.array_equal(u, np.concatenate([w[2] for w in want]))


def test_merged_gaussian_cells_equal_two_normal_calls():
    sim = _sas_gauss_sim()
    assert sim.triplet.c > 0.0 and sim.small_var_rate > 0.0
    n, dt = sim.config.n_cells, sim.config.dt
    block = sim.draw(sim.rngs(0, 20))
    for i in range(20):
        rng = sim.rng_for(i)
        cells = np.full(n, sim.drift_rate * dt)
        cells += rng.normal(0.0, math.sqrt(sim.triplet.c * dt), n)
        cells += rng.normal(0.0, math.sqrt(sim.small_var_rate * dt), n)
        assert np.array_equal(block.diffuse[i], cells), i


class _Counting:
    """A generator that records the name of each of its methods called."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self.calls.append(name)
            return method(*args, **kwargs)
        return call


def _counting(sim, n):
    return [_Counting(rng) for rng in sim.rngs(0, n)]


def _counting_seats(monkeypatch) -> list:
    """The generator of every path that an iteration of `Generators` seats
    from now on, as a _Counting, in order."""
    made = []

    class Counting(path_sim.Generators):
        def __iter__(self):
            for rng in super().__iter__():
                made.append(_Counting(rng))
                yield made[-1]

    monkeypatch.setattr(path_sim, "Generators", Counting)
    return made


@pytest.mark.parametrize("which, want", [
    ("h2-two-atom", ["poisson", "random"]),
    ("gaussian-baseline", ["standard_normal"]),
    ("sas-gauss", ["standard_normal", "poisson", "random"])])
def test_draw_calls_per_path(which, want):
    sim = _sas_gauss_sim() if which == "sas-gauss" else \
        pipeline.model_from_dict(_builtin(which)).simulator
    rngs = _counting(sim, 40)
    sim.draw(rngs)
    assert all(rng.calls == want for rng in rngs)


@pytest.mark.parametrize("case, want", [
    ("frozen-zeta", ["poisson", "random"]),
    ("two-atom-lam-T-10", ["poisson", "random"] * 2)])
def test_direct_q_calls_per_path(case, want, monkeypatch):
    """On a block of reseated paths below lam T = 10 the Q arrivals are
    read from the tail of the P draw's random call, and the block's first
    path is replayed once to check the read; from 10 on they take their
    own two calls, as they do on NumPy's own generators at every lam T."""
    d = _builtin("q-two-atom-zeta05") if case == "frozen-zeta" else Q_CASES[case]()
    model = pipeline.model_from_dict(d)
    gk, kern, sim = model.gk, model.kern, model.simulator
    made = _counting_seats(monkeypatch)
    counts = girsanov.draw_under_q(gk, kern, sim, _reseated(sim.config.seed, 0, 40))[0]
    assert counts.max() > 1 and ((counts == 0).any() or len(want) == 4)
    assert all(rng.calls == want for rng in made[:40])
    replays = [] if len(want) == 4 else [["poisson", "random"] * 2]
    assert [rng.calls for rng in made[40:]] == replays
    rngs = _counting(sim, 40)
    assert np.array_equal(girsanov.draw_under_q(gk, kern, sim, rngs)[0], counts)
    assert all(rng.calls == ["poisson", "random"] * 2 for rng in rngs)


# the lattice of the Gaussian builtins, from -M and from 0
_GAUSS_CFG = SimConfig(T=0.5, M=10.0, dt=2.0 ** -9, eps_jump=0.5, n_paths=1, seed=5)
_NEAR_CFG = dataclasses.replace(_GAUSS_CFG, M=0.0)


def _gauss_triplet():
    return LevyTriplet(0.7, gaussian_only(), 0.2, indicator_inside(1.0))


@pytest.mark.parametrize("cfg, kernel, rank", [
    (_NEAR_CFG, power_kernel(2.5), 0), (_GAUSS_CFG, exponential_kernel(1.0), 1),
    (_GAUSS_CFG, zero_start_kernel(1.0), 2), (_GAUSS_CFG, power_kernel(2.5), 6)],
    ids=["no-cells", "exponential", "zero-start", "power-2.5"])
def test_draw_with_a_law_equals_two_normal_calls_per_path(cfg, kernel, rank):
    # one standard_normal(n + r) call gives the n cells' normals and then
    # eta, as standard_normal(n) and standard_normal(r) calls did
    law = PathSimulator(_gauss_triplet(), cfg).prehistory(kernel)
    assert law.rank == rank
    near = PathSimulator(_gauss_triplet(), _NEAR_CFG)
    n, dt = _NEAR_CFG.n_cells, _NEAR_CFG.dt
    rngs = _counting(near, 30)
    block = near.draw(rngs, law)
    assert all(rng.calls == ["standard_normal"] for rng in rngs)
    assert block.eta.shape == (30, rank)
    for i in range(30):
        ref = near.rng_for(i)
        cells = np.full(n, near.drift_rate * dt)
        cells += math.sqrt(0.7 * dt) * ref.standard_normal(n)
        assert np.array_equal(block.diffuse[i], cells), i
        assert np.array_equal(block.eta[i], ref.standard_normal(rank)), i


@pytest.mark.parametrize("kernel", [exponential_kernel(1.0), power_kernel(2.5)],
                         ids=["exponential", "power-2.5"])
def test_draw_with_a_law_equals_the_draw_of_m_zero(kernel):
    """A draw with a law takes the window [0, T] of the simulator's own
    lattice: its nodes, cells and eta are those the simulator of M = 0
    draws with the same law, to the bit, its first node +0.0 included."""
    sim = PathSimulator(_gauss_triplet(), _GAUSS_CFG)
    near = PathSimulator(_gauss_triplet(), _NEAR_CFG)
    law = sim.prehistory(kernel)
    assert law.rank > 0
    got, want = sim.draw(sim.rngs(0, 30), law), near.draw(near.rngs(0, 30), law)
    assert got.dt == want.dt
    for field in ("times", "diffuse", "eta"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), field
    assert math.copysign(1.0, got.times[0]) == 1.0


def test_draw_refuses_a_law_with_explicit_jumps():
    sim = _sas_gauss_sim()
    law = PathSimulator(_gauss_triplet(), _GAUSS_CFG).prehistory(exponential_kernel(1.0))
    with pytest.raises(InvalidConfig):
        sim.draw(sim.rngs(0, 2), law)


@pytest.mark.parametrize("name", ["gaussian-baseline", "gaussian-power-2.5"])
def test_gaussian_chunk_takes_one_generator_call_per_path(name, monkeypatch):
    model = pipeline.model_from_dict(CHUNK_CASES[name]())
    made = _counting_seats(monkeypatch)
    _span(model, 0, 300)
    assert len(made) == 300
    assert all(rng.calls == ["standard_normal"] for rng in made)


@pytest.mark.parametrize("case", sorted(CHUNK_CASES))
def test_a_span_builds_no_generator_per_path(case, monkeypatch):
    """Once this thread's reseated generator exists, a 600-path span of a
    battery builds no Generator and one PCG64: NumPy's own generator of
    the first path of its seeding pass, which checks the pass."""
    model = pipeline.model_from_dict(CHUNK_CASES[case]())
    _span(model, 0, 10)
    built = collections.Counter()
    for name in ("Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, functools.partial(
            lambda made, name, *args: built.update([name]) or made(*args),
            getattr(np.random, name), name))
    _span(model, 0, 600)
    assert built == {"PCG64": 1}


def _gaussian_chunk_reference(model, start, stop):
    """_gaussian_block's span formed the long way: the cells and then eta by a
    second standard_normal call per path, X and Y on every node with the
    pre-history term added as mean + einsum, and theta over every node."""
    triplet, kern, cfg, sim = model.levy, model.kern, model.cfg, model.simulator
    law = sim.prehistory(kern)
    near = PathSimulator(triplet, dataclasses.replace(cfg, M=0.0))
    sqc, phi0, xi = math.sqrt(triplet.c), kern.phi0, triplet.xi()
    p_idx = [round(t / cfg.dt) for t in pipeline._probe_times(model)]
    rngs = near.rngs(start, stop)
    block = near.draw(rngs)
    eta = np.array([rng.standard_normal(law.rank) for rng in rngs]
                   ).reshape(len(rngs), law.rank)
    X, Y = block.moving_average(kern)
    for v, mean, factor in zip((X, Y), law.mean, law.factor):
        v += mean + np.einsum("br,kr->bk", eta, factor)
    theta = -(Y + phi0 * xi) / (phi0 * sqc)
    dB = (block.diffuse - near.drift_rate * cfg.dt) / sqc
    log_z = np.sum(theta[:, :-1] * dB, axis=1) \
        - 0.5 * np.sum(theta[:, :-1] ** 2, axis=1) * cfg.dt
    return {"z_T": np.exp(log_z), "x_probe": X[:, p_idx]}


def _gaussian_scaled():
    """gaussian-baseline with drift, c != 1 and phi(0) != 1, so that no
    factor of theta is 0 or 1."""
    d = _builtin("gaussian-baseline")
    d["triplet"].update(c=0.7, b_h=0.2)
    d["kernel"]["amplitude"] = 1.3
    return d


@pytest.mark.parametrize("name", ["gaussian-baseline", "gaussian-power-2.5",
                                  "gaussian-scaled"])
def test_gaussian_chunk_equals_the_full_grid_reference(name):
    build = _gaussian_scaled if name == "gaussian-scaled" else CHUNK_CASES[name]
    model = pipeline.model_from_dict(build())
    got = _span(model, 100, 400)
    want = _gaussian_chunk_reference(model, 100, 400)
    assert got.keys() == want.keys()
    for key in got:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)


_X_NODES = [256, 3, 64, 3, 0]


@pytest.mark.parametrize("kernel", [exponential_kernel(1.0), power_kernel(1.5),
                                    power_kernel(2.5)],
                         ids=["exponential", "power-1.5", "power-2.5"])
@pytest.mark.parametrize("with_law", [False, True], ids=["alone", "law"])
def test_x_at_nodes_is_the_full_grid_x_to_the_bit(kernel, with_law):
    if with_law:
        law = PathSimulator(_gauss_triplet(), _GAUSS_CFG).prehistory(kernel)
        near = PathSimulator(_gauss_triplet(), _NEAR_CFG)
        block = near.draw(near.rngs(0, 40), law)
    else:
        # paths from -M with diffuse cells and explicit jumps
        law, sim = None, _sas_gauss_sim()
        block = sim.draw(sim.rngs(0, 40))
        assert len(block.jump_times)
    X, Y = block.moving_average(kernel, law)
    nodes = [k % X.shape[1] for k in _X_NODES]
    x_at, y = block.moving_average(kernel, law, nodes)
    assert x_at.shape == (40, len(nodes))
    np.testing.assert_array_equal(x_at, X[:, nodes])
    np.testing.assert_array_equal(y, Y)


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


@pytest.mark.parametrize("k", [exponential_kernel(0.7, 1.3), constant_kernel(0.8)],
                         ids=lambda k: k.name)
def test_carried_grid_moving_average_is_the_response_bit_for_bit(k):
    # X and Y are read from the states `response` reads, with its
    # arithmetic, so off the jump times they are its values to the bit
    sim = _sas_gauss_sim()
    block = sim.draw(sim.rngs(0, 40))
    grid = sim.times[sim.config.m_cells:]
    assert block.diffuse.any() and len(block.jump_times)
    assert not np.isin(block.jump_times, grid).any()
    X, Y = block.moving_average(k)
    rows, t = np.repeat(np.arange(40), len(grid)), np.tile(grid, 40)
    x_at, y_pre = block.responses((k, rows, t, False), (k.dphi, rows, t, True))
    np.testing.assert_array_equal(X, x_at.reshape(X.shape))
    np.testing.assert_array_equal(Y, y_pre.reshape(Y.shape))


@pytest.mark.parametrize("which", ["h2-two-atom", "sas-gauss"])
def test_draw_rows_equal_paths_drawn_one_at_a_time(which):
    if which == "sas-gauss":
        sim = _sas_gauss_sim()
    else:
        sim = pipeline.model_from_dict(_builtin(which)).simulator
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


def _live_q_power():
    d = _live_two_atom_q()
    d["kernel"] = {"type": "power", "gamma": 0.5}
    # a short pre-history keeps Y within the two atoms' reach
    d["sim"]["M"] = 4.0
    return d


def _direct_q_sas_kernel(kernel):
    """The SaS 1.5 direct-Q case, diffuse cells included, under kernel."""
    d = _direct_q_sas()
    d["kernel"] = kernel
    return d


def _two_atom_q(lam_t):
    """The live two-atom case with atoms of mass lam_t / 2, so that its Q
    arrivals have mean lam T = lam_t."""
    d = _live_two_atom_q()
    d["triplet"]["measure"]["atoms"] = [[-1.0, lam_t / 2], [1.0, lam_t / 2]]
    assert d["sim"]["T"] == 1.0
    return d


# Y_{T_n-} is the response of the P block with its tail jumps on (0, T] at
# size 0, plus a running sum over the earlier marks, for every kernel; the
# reference inserts each mark as a jump. Q arrivals of mean lam T below 10
# are read from the tail of the P draw (lam T = 9.99 has the longest
# tail); from 10 on they take calls of their own.
Q_CASES = {
    "two-atom-lam-T-9.99": lambda: _two_atom_q(9.99),
    "two-atom-lam-T-10": lambda: _two_atom_q(10.0),
    "two-atom": _live_two_atom_q,
    "sas-1.5": _direct_q_sas,
    "two-atom-power": _live_q_power,
    "sas-1.5-exponential-1": lambda: _direct_q_sas_kernel(
        {"type": "exponential", "kappa": 1.0, "amplitude": 1.0}),
    "sas-1.5-power-1.5": lambda: _direct_q_sas_kernel(
        {"type": "power", "gamma": 1.5}),
}


@pytest.mark.parametrize("streams", ["numpy", "reseated"])
@pytest.mark.parametrize("case", sorted(Q_CASES))
def test_direct_q_block_matches_sequential_reference(case, streams):
    """NumPy's own generators, which draw the Q arrivals by their own
    calls, and a block of reseated paths, which reads them from the P
    tails below lam T = 10, both against the per-path reference."""
    model = pipeline.model_from_dict(Q_CASES[case]())
    triplet, kern, sim, gk = model.levy, model.kern, model.simulator, model.gk
    rngs = (sim.rngs(0, 150) if streams == "numpy"
            else _reseated(sim.config.seed, 0, 150))
    counts, _, marks, y_pre = girsanov.draw_under_q(gk, kern, sim, rngs)
    assert sim.draw([sim.rng_for(0)]).diffuse.any() == case.startswith("sas")
    refs = [_q_reference(gk, kern, sim, i) for i in range(150)]
    assert counts.tolist() == [len(m) for m, _ in refs] and counts.max() > 2
    want = np.concatenate([m for m, _ in refs])
    if isinstance(triplet.F, DiscreteMeasure):
        # marks on atoms: a Y that moves in the last bits picks the same one
        assert np.array_equal(marks, want)
    else:
        np.testing.assert_allclose(marks, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(y_pre, np.concatenate([y for _, y in refs]),
                               rtol=1e-12, atol=1e-12)
    one = girsanov.simulate_under_q(gk, kern, sim, 7)
    lo = counts[:7].sum()
    assert one.n_tail_jumps == counts[7] and isinstance(one.n_tail_jumps, int)
    assert np.array_equal(one.jump_sizes, marks[lo:lo + counts[7]])


# every block of the two-pass test needs a path without arrivals, which
# the lam T = 10 cases all but never draw
@pytest.mark.parametrize("case", sorted(c for c in Q_CASES if "lam-T" not in c)
                         + ["frozen-zeta"])
def test_direct_q_two_passes_equal_blocks_concatenated(case, monkeypatch):
    """q_arrivals per block and one q_marks over a chunk of 128 + 128 + 44
    rows equal draw_under_q block by block, bit for bit. Every block has a
    row without arrivals, and the rows with the largest count go into the
    last block only, so the chunk's rank loop runs past the ranks of the
    other two. The rows are paths 0..149, as in the sequential reference
    test (the power kernel's Y leaves the two atoms' reach on later
    paths), some drawn more than once. The rank loop gives the same bits
    in slices of 7 elements; the battery's span agrees too."""
    d = _builtin("q-two-atom-zeta05") if case == "frozen-zeta" else Q_CASES[case]()
    model = pipeline.model_from_dict(d)
    kern, sim, gk = model.kern, model.simulator, model.gk
    probe = girsanov.draw_under_q(gk, kern, sim, sim.rngs(0, 150))[0]
    zero, top = np.flatnonzero(probe == 0)[:1], np.flatnonzero(probe == probe.max())
    fill = np.tile(np.flatnonzero((probe > 0) & (probe < probe.max())), 3)
    rows = np.concatenate([zero, fill[:127], zero, fill[127:254], zero, top,
                           fill[254:297 - len(top)]])

    def blocks():
        return [[sim.rng_for(int(i)) for i in rows[lo:lo + 128]]
                for lo in (0, 128, 256)]

    per_block = [girsanov.draw_under_q(gk, kern, sim, rngs) for rngs in blocks()]
    block_counts = [c for c, *_ in per_block]
    assert [len(c) for c in block_counts] == [128, 128, 44]
    assert all(c[0] == 0 for c in block_counts) and probe.max() > 2
    assert max(block_counts[0].max(), block_counts[1].max()) < block_counts[2].max()
    counts, q_t, q_u, kept = (np.concatenate(a) for a in zip(*(
        girsanov.q_arrivals(gk, kern, sim, rngs) for rngs in blocks())))
    for elems in (path_sim._RESPONSE_ELEMS, 7):
        monkeypatch.setattr(path_sim, "_RESPONSE_ELEMS", elems)
        y_pre = kept.copy()
        marks = girsanov.q_marks(gk, kern, counts, q_t, q_u, y_pre)
        for got, want in zip((counts, q_t, marks, y_pre), zip(*per_block)):
            assert np.array_equal(got, np.concatenate(want))
    chunk = _span(model, 0, 150)
    whole = [girsanov.draw_under_q(gk, kern, sim, sim.rngs(lo, hi))
             for lo, hi in ((0, 128), (128, 150))]
    for key, k in (("counts", 0), ("marks", 2), ("y_pre", 3)):
        assert np.array_equal(chunk[key], np.concatenate([w[k] for w in whole]))


@pytest.mark.parametrize("case", ["two-atom", "sas-1.5", "two-atom-lam-T-9.99"])
def test_direct_q_redraw_past_the_tail_equals_the_sequential_reference(
        case, monkeypatch):
    """With a tail of 4 doubles (a count bound of 1) most paths run past
    it, and are replayed from their seed states to take NumPy's own
    calls: a block of 150 reseated paths and a span's give the arrivals of
    the full tail, and the reference's, bit for bit."""
    model = pipeline.model_from_dict(Q_CASES[case]())
    kern, sim, gk = model.kern, model.simulator, model.gk
    refs = [_q_reference(gk, kern, sim, i) for i in range(150)]
    span = _span(model, 0, 300)
    monkeypatch.setattr(path_sim, "_count_bound", lambda mean: 1)
    counts, _, marks, y_pre = girsanov.draw_under_q(
        gk, kern, sim, _reseated(sim.config.seed, 0, 150))
    assert (counts > 1).sum() > 30
    assert counts.tolist() == [len(m) for m, _ in refs]
    want = np.concatenate([m for m, _ in refs])
    if isinstance(model.levy.F, DiscreteMeasure):
        assert np.array_equal(marks, want)
    else:
        np.testing.assert_allclose(marks, want, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(y_pre, np.concatenate([y for _, y in refs]),
                               rtol=1e-12, atol=1e-12)
    redrawn = _span(model, 0, 300)
    for key, arr in span.items():
        assert np.array_equal(redrawn[key], arr), key


def test_direct_q_redraw_past_the_tail_keeps_the_documents(monkeypatch):
    docs = []
    for bound in (path_sim._count_bound, lambda mean: 1):
        monkeypatch.setattr(path_sim, "_count_bound", bound)
        docs.append([json.dumps(pipeline.run_verify(
            pipeline.builtin_scenario(name), n_paths=600, workers=workers))
            for name in ("q-two-atom-zeta05", "q-two-atom-state")
            for workers in (1, 2)])
    assert docs[0] == docs[1]


@pytest.mark.parametrize("first", ["row-0-read", "row-0-past"])
@pytest.mark.parametrize("what", ["count", "double"])
def test_direct_q_tail_read_that_disagrees_with_numpy_raises(what, first,
                                                             monkeypatch):
    """Each block's first row read is drawn again by NumPy's own poisson
    and random calls, and a read that differs stops the run: row 0, or,
    under a count bound of 1, row 1 after a row 0 past its tail."""
    read, changed = path_sim.Arrivals.read, []

    def off(self, source):
        past = read(self, source)
        b = np.setdiff1d(np.arange(len(self.counts)), past)[0]
        changed.append(b)
        if what == "count":
            self.counts[b] += 1
        else:
            self.rows[b, 0] = np.nextafter(self.rows[b, 0], 2.0)
        return past

    model = pipeline.builtin_scenario("q-two-atom-zeta05")
    # paths 6 and 7 have 2 and 1 arrivals: past a tail of 4 doubles and
    # not, and each has a double to differ in
    assert girsanov.draw_under_q(model.gk, model.kern, model.simulator,
                                 model.simulator.rngs(6, 8))[0].tolist() == [2, 1]
    if first == "row-0-past":
        monkeypatch.setattr(path_sim, "_count_bound", lambda mean: 1)
    monkeypatch.setattr(path_sim.Arrivals, "read", off)
    with pytest.raises(RuntimeError, match="tail read"):
        _span(model, 6, 306)
    assert changed == [0 if first == "row-0-read" else 1]


@pytest.mark.parametrize("bound", ["count-bound", "bound-1"])
@pytest.mark.parametrize("case", sorted(Q_CASES) + ["frozen-zeta"])
def test_direct_q_reseated_block_equals_numpy_generators(case, bound, monkeypatch):
    """draw_under_q on a block of reseated paths, which reads the Q
    arrivals from the P tails below lam T = 10, equals draw_under_q on
    NumPy's own generators, which make their own poisson and random
    calls, bit for bit; also under a count bound of 1, past which most
    rows are replayed."""
    d = _builtin("q-two-atom-zeta05") if case == "frozen-zeta" else Q_CASES[case]()
    model = pipeline.model_from_dict(d)
    kern, sim, gk = model.kern, model.simulator, model.gk
    if bound == "bound-1":
        monkeypatch.setattr(path_sim, "_count_bound", lambda mean: 1)
    seated = girsanov.draw_under_q(gk, kern, sim, _reseated(sim.config.seed, 0, 150))
    own = girsanov.draw_under_q(gk, kern, sim, sim.rngs(0, 150))
    assert (seated[0] > 1).sum() > 30
    for got, want in zip(seated, own):
        assert np.array_equal(got, want)


def test_direct_q_count_bound_is_the_poisson_quantile():
    """_count_bound(m) is the least x with P(X > x) <= _TAIL_MISS for X ~
    Poisson(m), which SciPy's pdtrc gives, over 402 means in (0, 10)."""
    means = np.concatenate([np.geomspace(1e-6, 0.1, 41, endpoint=False),
                            np.linspace(0.1, 9.99, 361)])
    x = np.arange(64)
    for m in means:
        want = int(np.argmax(scipy.special.pdtrc(x, m) <= path_sim._TAIL_MISS))
        assert path_sim._count_bound(m) == want, m
    assert path_sim._count_bound(2.0) == 14 and path_sim._count_bound(9.99) == 32


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
    model = pipeline.model_from_dict(_builtin(name))
    scn, triplet, kern, cfg, sim, gk = (model, model.levy, model.kern,
                                        model.cfg, model.simulator, model.gk)
    got = _span(model, 0, 150)
    refs = [_weighted_reference(scn, triplet, kern, cfg, sim, gk, i)
            for i in range(150)]
    z_ref = np.array([z for z, _ in refs])
    x_ref = np.array([x for _, x in refs])
    assert np.ptp(z_ref) > 0.0
    np.testing.assert_allclose(got["z_T"], z_ref, rtol=1e-12, atol=0.0)
    # relative to the size of X: a probe value near 0 has no relative scale
    np.testing.assert_allclose(got["x_probe"], x_ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(x_ref)))


# ---------------------------------------------------------------------------
# block-level draw transforms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "at-or-before"])
def test_last_before_equals_searchsorted_on_row_time_keys(strict):
    """The per-row bisection gives the index the search of complex
    (row, time) keys gave: random rows of 0 to 70 sorted times, some of
    them tied, queried at random times, exactly at their own jump times,
    before and after all of them, and in rows without jumps."""
    rng = np.random.default_rng(17)
    counts = rng.integers(0, 71, 120)
    counts[[0, 5, 6, -1]] = 0
    t = _sorted_rows(np.round(rng.uniform(-5.0, 1.0, counts.sum()), 1), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    jump_rows = np.repeat(np.arange(len(counts)), counts)
    rows = np.concatenate([rng.integers(0, len(counts), 3000), jump_rows,
                           np.arange(len(counts)), np.arange(len(counts))])
    tq = np.concatenate([rng.uniform(-6.0, 2.0, 3000), t,
                         np.full(len(counts), -9.0), np.full(len(counts), 9.0)])
    keys = np.empty(len(t), dtype=complex)
    keys.real, keys.imag = jump_rows, t
    queries = np.empty(len(tq), dtype=complex)
    queries.real, queries.imag = rows, tq
    want = np.searchsorted(keys, queries, side="left" if strict else "right") - 1
    got = path_sim._last_before(t, offsets[rows], offsets[rows + 1], tq, strict=strict)
    assert np.array_equal(got, want)
    assert (got < offsets[rows]).any() and (got == offsets[rows + 1] - 1).any()


# ---------------------------------------------------------------------------
# carried responses of kernels of exponential form
# ---------------------------------------------------------------------------


def test_exponential_form_declarations():
    s = np.linspace(0.0, 6.0, 25)
    k = exponential_kernel(0.7, 1.3)
    for fn in (k, k.dphi):
        f0, kappa = exponential_form(fn)
        np.testing.assert_allclose(f0 * np.exp(-kappa * s), fn(s), rtol=1e-15)
    c = constant_kernel(2.5)
    assert exponential_form(c) == (2.5, 0.0)
    f0, kappa = exponential_form(c.dphi)
    assert (f0, kappa) == (0.0, 0.0) and math.copysign(1.0, f0) == 1.0
    p = power_kernel(1.5)
    for fn in (p, p.dphi, np.exp, k.phi):
        assert exponential_form(fn) is None


def _running(kernel):
    """The kernel without its declared exponential form, so that response
    sums it per query by the running sum."""
    return dataclasses.replace(kernel, exponential=None)


def _busy_block(n_rows=40, seed=3):
    """A block with Brownian and drift cells, rows of more than three
    carry chunks of jumps, and two rows without any jump."""
    F = DiscreteMeasure([(-1.0, 1.5), (0.5, 0.5), (2.0, 2.0)])
    triplet = LevyTriplet(0.4, F, 0.3, indicator_inside(0.25))
    cfg = SimConfig(T=1.0, M=10.0, dt=0.125, eps_jump=0.25, n_paths=1, seed=seed)
    sim = PathSimulator(triplet, cfg)
    block = sim.draw(sim.rngs(0, n_rows))
    keep = ~np.isin(block.jump_rows(), [3, 7])
    counts = np.bincount(block.jump_rows()[keep], minlength=n_rows)
    assert counts.max() > 3 * path_sim._CHUNK and (counts == 0).sum() == 2
    return PathBlock(block.times, block.dt, block.diffuse,
                     block.jump_times[keep], block.jump_sizes[keep],
                     np.concatenate([[0], np.cumsum(counts)]))


def _queries(block, seed=0, per_row=12):
    """Per row: times spread over [-M, T] and beyond it, every fifth jump
    time and every seventh left node; then a few repeated, and all
    shuffled across the rows."""
    rng = np.random.default_rng(seed)
    t0, t1 = float(block.times[0]), float(block.times[-1])
    rows, t = [], []
    for b in range(len(block.offsets) - 1):
        own = np.concatenate([
            rng.uniform(t0 - 0.5, t1 + 0.5, per_row),
            block.jump_times[block.offsets[b]:block.offsets[b + 1]][::5],
            block.times[:-1][::7]])
        rows.append(np.full(len(own), b))
        t.append(own)
    rows, t = np.concatenate(rows), np.concatenate(t)
    again = rng.choice(len(t), 40)
    rows, t = np.concatenate([rows, rows[again]]), np.concatenate([t, t[again]])
    order = rng.permutation(len(t))
    return rows[order], t[order]


def _assert_carried_matches_running(block, kernel, rows, t):
    for fn, ref in ((kernel, _running(kernel)), (kernel.dphi, _running(kernel).dphi)):
        for strict in (True, False):
            got = block.response(fn, rows, t, strict=strict)
            want = block.response(ref, rows, t, strict=strict)
            assert np.all(np.isfinite(got))
            scale = max(np.max(np.abs(want)), 1e-300)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("kernel", [
    exponential_kernel(0.05), exponential_kernel(1.0, 1.7),
    exponential_kernel(100.0), constant_kernel(1.3)],
    ids=["kappa-0.05", "kappa-1", "kappa-100", "constant"])
def test_carried_response_matches_running_sum(kernel):
    block = _busy_block()
    # kappa (T + M) reaches 1100 for kappa = 100, and nothing overflows:
    # the suite turns RuntimeWarning into an error
    rows, t = _queries(block)
    _assert_carried_matches_running(block, kernel, rows, t)


@pytest.mark.parametrize("which", ["h1-two-atom", "sas-gauss"])
def test_carried_response_matches_running_sum_with_diffuse_cells(which):
    if which == "sas-gauss":
        sim = _sas_gauss_sim()
    else:
        sim = pipeline.model_from_dict(_builtin(which)).simulator
    block = sim.draw(sim.rngs(0, 60))
    assert block.diffuse.any() and len(block.jump_times)
    rows, t = _queries(block, seed=1)
    _assert_carried_matches_running(block, exponential_kernel(0.7, 1.3), rows, t)


def test_carried_response_at_jump_times_and_left_nodes():
    k = exponential_kernel(0.9)
    times = np.linspace(-1.0, 1.0, 9)
    diffuse = np.zeros(8)
    diffuse[4] = 0.5  # the cell with left node 0.0
    path = LatticePath(times, diffuse.copy(), np.array([-0.5, 0.25]),
                       np.array([2.0, -1.0]))
    block = PathBlock.of_path(path, diffuse)
    t = np.array([0.0, 0.25, -0.5, 0.0, 0.25])
    rows = np.zeros(len(t), dtype=int)
    x = block.response(k, rows, t, strict=False)
    y = block.response(k.dphi, rows, t, strict=True)
    e = lambda s: math.exp(-0.9 * s)  # noqa: E731
    # the cell at 0.0 is seen after its left node only, strict or not
    want_x = [2.0 * e(0.5), 2.0 * e(0.75) + 0.5 * e(0.25) - 1.0, 2.0]
    want_y = [2.0 * e(0.5), 2.0 * e(0.75) + 0.5 * e(0.25), 0.0]
    np.testing.assert_allclose(x[:3], want_x, rtol=1e-15)
    np.testing.assert_allclose(y[:3], -0.9 * np.array(want_y), rtol=1e-15)
    assert x[3] == x[0] and x[4] == x[1] and y[3] == y[0] and y[4] == y[1]


def test_carried_rows_are_the_same_alone_in_a_block_and_permuted():
    sim = pipeline.model_from_dict(_builtin("h1-two-atom")).simulator
    block = sim.draw(sim.rngs(0, 128))
    rows, t = _queries(block, seed=2, per_row=6)
    k = exponential_kernel(0.05)
    for fn, strict in ((k, False), (k.dphi, True)):
        whole = block.response(fn, rows, t, strict=strict)
        perm = np.random.default_rng(9).permutation(len(t))
        assert np.array_equal(block.response(fn, rows[perm], t[perm],
                                             strict=strict), whole[perm])
        for b in (0, 1, 77, 127):
            mine = rows == b
            alone = PathBlock.of_path(block.path(b), block.diffuse[b])
            got = alone.response(fn, np.zeros(mine.sum(), dtype=int), t[mine],
                                 strict=strict)
            assert np.array_equal(got, whole[mine]), b
            one_by_one = [alone.response(fn, [0], [tq], strict=strict)[0]
                          for tq in t[mine]]
            assert np.array_equal(one_by_one, whole[mine]), b


def _sequential_states(jt, z, kappa):
    """A row's jump states by a plain loop over all its jumps in time
    order, S_j = e^{-kappa (T_j - T_{j-1})} S_{j-1} + Z_j: the state at 0
    (the last state before 0 decayed to 0, or 0.0) and then the states at
    its jumps at or after 0."""
    s, at, s0, window = 0.0, 0.0, 0.0, []
    for t, zj in zip(jt, z):
        s = math.exp(-kappa * (t - at)) * s + zj
        at = t
        if t < 0.0:
            s0 = s * math.exp(kappa * t)
        else:
            window.append(s)
    return [s0], window


def test_carried_jump_read_equals_the_materialised_states():
    """A row's carry holds its state at 0, S_0 = sum_{T_j < 0} e^{kappa T_j}
    Z_j, at rank 0 and its jumps at or after 0 from rank 1 on. The states
    equal those of a plain sequential loop over all the row's jumps to
    1e-13 of the row's largest; from the carried S_0, the loop over the
    window gives the first chunk's bit for bit. jumps_at forms part + prod
    entering only where a query reads, and equals the states materialised
    at every rank, decayed to the query, bit for bit. Rows of 0, 1, 15,
    16, 17 and 33 window jumps straddle the chunk edges; one row has no
    jump before 0, one has every jump before 0, one its window jump at
    exactly 0 and one no jump at all. Each window jump is queried at its
    time, strictly and not, and halfway to the next (a quarter past the
    last), every row at 0 strictly and not; queries before 0 take the
    running sum."""
    kappa, width = 0.7, path_sim._CHUNK
    window = np.array([16, 0, 33, 1, 17, 15, 0])
    # row 4 has no jump before 0, row 6 only jumps before it
    before = np.array([9, 0, 40, 5, 0, 3, 12])
    rng = np.random.default_rng(5)
    jt = np.concatenate([np.empty(0)] + [
        np.concatenate([np.sort(rng.uniform(-3.0, 0.0, nb)),
                        np.sort(rng.uniform(0.0, 1.0, nw))])
        for nb, nw in zip(before, window)])
    offsets = np.concatenate([[0], np.cumsum(before + window)])
    jt[offsets[3] + before[3]] = 0.0
    z = rng.normal(size=len(jt))
    n_rows = len(window)
    block = PathBlock(np.linspace(-3.0, 1.0, 9), 0.5, np.zeros((n_rows, 8)), jt, z,
                      offsets)
    carried = path_sim._Carried(block, kappa)
    c0, win = block.window
    assert np.array_equal(c0, offsets[:-1] + before)
    assert np.array_equal(win, np.flatnonzero(jt >= 0.0))
    part, prod, entering = carried.jump_carry
    assert part.shape == (width, 3, n_rows)
    filled = np.arange(3 * width) < window[:, None] + 1
    states = (part + prod * entering).transpose(2, 1, 0).reshape(n_rows, -1)[filled]
    first = np.cumsum(window + 1) - (window + 1)  # each row's rank 0 in states
    assert np.array_equal(states[first], carried.state_at_0())
    assert states[first[1]] == 0.0 and states[first[4]] == 0.0
    for b in range(n_rows):
        lo, hi = offsets[b], offsets[b + 1]
        s0, loop = _sequential_states(jt[lo:hi], z[lo:hi], kappa)
        mine = states[first[b]:first[b] + window[b] + 1]
        want = np.array(s0 + loop)
        np.testing.assert_allclose(mine, want, rtol=0,
                                   atol=1e-13 * max(np.max(np.abs(want)), 1.0))
        # the window from the carried S_0, with the carry's decays
        gaps = np.diff(np.concatenate([[0.0], jt[c0[b]:hi]]))
        s, again = mine[0], [mine[0]]
        for r, zj in zip(np.exp(-kappa * gaps), z[c0[b]:hi]):
            s = r * s + zj
            again.append(s)
        assert np.array_equal(mine[:width], again[:width]), b

    rows = np.repeat(np.arange(n_rows), window)
    wt = jt[win]
    last = np.append(rows[1:] != rows[:-1], True)
    mid = np.where(last, wt + 0.25, (wt + np.append(wt[1:], 0.0)) / 2)
    for t, strict, shift in ((wt, False, 0), (wt, True, 1), (mid, False, 0)):
        # rank of the read: the window jump's own, or the one before
        k = np.arange(len(wt)) - (np.cumsum(window) - window)[rows] + 1 - shift
        at = np.where(k > 0, jt[win - shift], 0.0)
        want = np.exp((t - at) * -kappa) * states[first[rows] + k]
        assert np.array_equal(carried.jumps_at(rows, t, strict=strict), want)
    # at 0 every row reads its S_0, and row 3 its jump at 0 when not strict
    zero, every = np.zeros(n_rows), np.arange(n_rows)
    assert np.array_equal(carried.jumps_at(every, zero, strict=True), states[first])
    at_0 = carried.jumps_at(every, zero, strict=False)
    assert at_0[3] == states[first[3] + 1] == states[first[3]] + z[c0[3]]
    assert np.array_equal(np.delete(at_0, 3), np.delete(states[first], 3))
    # before 0, the running sum of the jumps before the query
    t = np.concatenate([jt[jt < 0.0], jt[jt < 0.0] + 1e-3 * rng.random(), [-5.0]])
    q_rows = np.concatenate([np.repeat(every, before), np.repeat(every, before), [2]])
    t = np.minimum(t, -1e-9)
    for strict in (True, False):
        got = carried.jumps_at(q_rows, t, strict=strict)
        see = np.less if strict else np.less_equal
        for g, b, tq in zip(got, q_rows, t):
            lo, hi = offsets[b], offsets[b + 1]
            m = see(jt[lo:hi], tq)
            want = sum(math.exp(-kappa * (tq - tj)) * zj
                       for tj, zj in zip(jt[lo:hi][m], z[lo:hi][m]))
            assert abs(g - want) <= 1e-13 * max(abs(want), 1.0)
    assert np.array_equal(carried.jumps_at(np.ones(3, dtype=int),
                                           np.array([-1.0, 0.0, 2.0]), strict=False),
                          np.zeros(3))


def _rows_block(block, rows, empty_after=0):
    """The block of the given rows of block, in that order, with
    empty_after rows without jumps after them."""
    parts = [np.arange(block.offsets[b], block.offsets[b + 1]) for b in rows]
    counts = [len(p) for p in parts] + [0] * empty_after
    flat = np.concatenate([np.empty(0, dtype=np.intp)] + parts)
    diffuse = block.diffuse[list(rows) + [rows[-1]] * empty_after]
    return PathBlock(block.times, block.dt, diffuse, block.jump_times[flat],
                     block.jump_sizes[flat], np.concatenate([[0], np.cumsum(counts)]))


@pytest.mark.parametrize("name", ["h2-two-atom", "q-two-atom-zeta05"])
def test_carried_state_at_0_and_responses_do_not_depend_on_the_block(name):
    """A row's state at 0 and its responses are the same bits drawn alone,
    as the last row of a block, before an empty trailing row, and with its
    queries permuted: each S_0 sums the row's own segment of the flat jumps
    and nothing past it. A sum over one term more groups its terms
    differently for about one segment length in eight, so every row of
    the block is checked in each place."""
    model = pipeline.builtin_scenario(name)
    sim, kern = model.simulator, model.kern
    kappa = kern.exponential[1]
    n_rows = 64
    block = sim.draw(sim.rngs(0, n_rows))
    s0 = path_sim._Carried(block, kappa).state_at_0()
    rows, t = _queries(block, seed=4, per_row=4)
    queries = [(fn, rows, t, strict) for fn in (kern, kern.dphi)
               for strict in (True, False)]
    whole = block.responses(*queries)
    perm = np.random.default_rng(3).permutation(len(t))
    for got, want in zip(block.responses(*[(fn, r[perm], tq[perm], strict)
                                           for fn, r, tq, strict in queries]),
                         whole):
        assert np.array_equal(got, want[perm])
    for b in range(n_rows):
        mine = rows == b
        for other, at in ((sim.draw(sim.rngs(b, b + 1)), 0),
                          (_rows_block(block, [(b + 1) % n_rows, b]), 1),
                          (_rows_block(block, [b], empty_after=1), 0)):
            assert path_sim._Carried(other, kappa).state_at_0()[at] == s0[b], b
            got = other.responses(*[(fn, np.full(mine.sum(), at), t[mine], strict)
                                    for fn, _, _, strict in queries])
            for g, w in zip(got, whole):
                assert np.array_equal(g, w[mine]), (b, at)


def test_carried_window_without_a_prehistory_matches_running_sum():
    """With M = 0 every jump lies in the window and the state at 0 is 0:
    the carry then runs over all of a row's jumps, more than a chunk of
    them, and stays O(cells + jumps), to 1e-12 of the running sum."""
    F = DiscreteMeasure([(-1.0, 1.5), (0.5, 0.5), (2.0, 2.0)])
    triplet = LevyTriplet(0.4, F, 0.3, indicator_inside(0.25))
    cfg = SimConfig(T=10.0, M=0.0, dt=0.125, eps_jump=0.25, n_paths=1, seed=8)
    sim = PathSimulator(triplet, cfg)
    block = sim.draw(sim.rngs(0, 30))
    counts = np.diff(block.offsets)
    assert counts.min() > path_sim._CHUNK and counts.max() > 3 * path_sim._CHUNK
    carried = path_sim._Carried(block, 0.7)
    assert np.array_equal(block.window[0], block.offsets[:-1])
    assert not carried.state_at_0().any()
    rows, t = _queries(block, seed=6)
    _assert_carried_matches_running(block, exponential_kernel(0.7, 1.3), rows, t)


# ---------------------------------------------------------------------------
# the buffer pool: a block drawn into it is a fresh draw to the bit
# ---------------------------------------------------------------------------


def _block_fields(block):
    return (block.diffuse, block.jump_times, block.jump_sizes, block.offsets)


def _h2_uniform_band():
    d = _builtin("h2-two-atom")
    d["triplet"]["measure"] = {"type": "uniform-band", "a": 0.25, "b": 2.0}
    return d


# a jump-only law, jumps with Gaussian cells, and a uniform-band tail law
POOL_CASES = {
    "h2-two-atom": lambda: _builtin("h2-two-atom"),
    "direct-q-sas-1.5": _direct_q_sas,
    "uniform-band": _h2_uniform_band,
}


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_block_drawn_into_a_pool_equals_a_fresh_draw(case):
    model = pipeline.model_from_dict(POOL_CASES[case]())
    sim, kern = model.simulator, model.kern
    pool = path_sim.BufferPool()
    # a larger block and then a smaller one first, so that the pool's
    # buffers are reused both larger and of the size asked
    for lo, hi in ((0, 200), (300, 310), (20, 148)):
        pooled = sim.draw(sim.rngs(lo, hi), pool=pool)
    fresh = sim.draw(sim.rngs(20, 148))
    for got, want in zip(_block_fields(pooled), _block_fields(fresh)):
        assert np.array_equal(got, want)
    rows, t = _queries(fresh)
    queries = [(fn, rows, t, strict) for fn in (kern, kern.dphi)
               for strict in (True, False)]
    assert pooled.pool is pool and fresh.pool is None
    for got, want in zip(pooled.responses(*queries), fresh.responses(*queries)):
        assert np.array_equal(got, want)


def test_a_pooled_block_is_valid_until_the_next_draw_into_the_pool():
    sim = pipeline.builtin_scenario("h2-two-atom").simulator
    pool = path_sim.BufferPool()
    first = sim.draw(sim.rngs(0, 128), pool=pool)
    kept = first.jump_times.copy()
    sim.draw(sim.rngs(128, 256), pool=pool)
    # the first block's arrays are the pool's, now the second block's
    assert not np.array_equal(first.jump_times[:len(kept)], kept)
    assert np.array_equal(kept, sim.draw(sim.rngs(0, 128)).jump_times)


def test_buffer_pool_grows_only():
    pool = path_sim.BufferPool()
    a = pool.take("x", (4, 5))
    assert a.shape == (4, 5) and a.flags.c_contiguous
    b = pool.take("x", 7)
    assert b.shape == (7,) and np.shares_memory(a, b)
    c = pool.take("x", 40)
    assert not np.shares_memory(a, c)
    assert np.shares_memory(c, pool.take("x", (2, 3)))
    with pytest.raises(TypeError):
        pool.take("y", 3, dtype=bool)
    assert pool.take("y", 3).dtype == np.float64


def test_buffer_pool_keeps_buffers_per_thread():
    pool = path_sim.BufferPool()
    mine = pool.take("x", 10)
    theirs = []
    worker = threading.Thread(
        target=lambda: theirs.extend(pool.take("x", 10) for _ in range(2)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert np.shares_memory(mine, pool.take("x", 10))
    assert np.shares_memory(*theirs)
    assert not np.shares_memory(mine, theirs[0])


def test_a_simulator_copies_with_an_empty_pool():
    sim = pipeline.builtin_scenario("h2-two-atom").simulator
    sim.draw(sim.rngs(0, 4), pool=sim.pool)
    assert sim.pool._buffers
    for copied in (pickle.loads(pickle.dumps(sim)), copy.deepcopy(sim)):
        assert isinstance(copied.pool, path_sim.BufferPool)
        assert not copied.pool._buffers
        assert np.array_equal(copied.times, sim.times)


def test_jump_only_draw_has_a_read_only_zero_diffuse():
    sim = pipeline.builtin_scenario("q-two-atom-zeta05").simulator
    block = sim.draw(sim.rngs(0, 3))
    assert block.diffuse.shape == (3, sim.config.n_cells)
    assert block.diffuse.strides == (0, 0) and not block.diffuse.flags.writeable
    assert not block.diffuse.any()
    path = block.path(1)
    assert np.array_equal(path.increments, sim.simulate_index(1).increments)
    assert np.array_equal(path.diffuse_increments(),
                          np.zeros(sim.config.n_cells))


def test_pooled_chunks_allocate_no_per_jump_arrays():
    """After a warm-up, a 1000-path chunk of either jump battery keeps its
    traced memory within 256 KiB of where it started, peak included: its
    per-jump arrays are the pool's. Without the pool each 128-path block
    allocated and freed about 1.9 MB."""
    for name in ("q-two-atom-zeta05", "h2-two-atom"):
        model = pipeline.builtin_scenario(name)
        _span(model, 0, 1000)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            _span(model, 0, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 256 * 1024, (name, peak - start)


def test_pool_of_a_jump_chunk_holds_at_most_1_5_mib():
    """A 1000-path chunk of either jump battery leaves at most 1.5 MiB in
    the simulator's pool: each path's doubles in one row buffer, the marks
    formed in their uniforms, the terms of the states at 0, and a carry
    laid out over the window (0, T] alone. It holds 1.29 MiB at
    h2-two-atom and 1.43 MiB at q-two-atom-zeta05, whose rows also keep
    the Q arrivals' tail doubles; with every jump in the carry it held
    1.65 and 1.79 MiB, and at 128-path blocks before the row buffer and
    the in-place marks 1.99 MB, 124 bytes a jump."""
    for name in ("q-two-atom-zeta05", "h2-two-atom"):
        model = pipeline.builtin_scenario(name)
        _span(model, 0, 1000)
        held = sum(b.nbytes for b in model.simulator.pool._buffers.values())
        assert held <= 1.5 * 2**20, (name, held)


@pytest.mark.parametrize("widths", ["per row", "one"])
def test_leading_mask_equals_the_comparison(widths):
    counts = np.array([3, 0, 5, 1, 0])
    w = 2 * counts if widths == "per row" else 6
    got = path_sim._leading(counts, w)
    if widths == "per row":
        want = np.arange(2 * counts.sum()) < np.repeat(
            2 * np.cumsum(counts) - counts, 2 * counts)
    else:
        want = (np.arange(6) < counts[:, None]).ravel()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 5, path_sim._COMPRESS_ELEMS,
                               3 * path_sim._COMPRESS_ELEMS + 7])
def test_compress_equals_boolean_indexing(n):
    rng = np.random.default_rng(n)
    values, mask = rng.normal(size=n), rng.random(n) < 0.7
    got = path_sim._compress(mask, values, np.empty(mask.sum()))
    assert np.array_equal(got, values[mask])


# a power kernel's running sums add each size-0 jump as +-0.0; an
# exponential kernel's carry decays its state across it, which only rounds
@pytest.mark.parametrize("kernel, ulps", [(power_kernel(1.5), 0),
                                          (exponential_kernel(2.0), 4)],
                         ids=["power", "exponential"])
def test_block_with_zero_size_jumps_equals_the_masked_block(kernel, ulps):
    """Tail jumps on (0, T] set to size 0, as direct Q cancels the P tail
    jumps, give the responses of the block without them."""
    block = _busy_block()
    drop = block.jumps_beyond(0.75)
    assert len(drop) and np.all(block.jump_times[drop] > 0.0)
    keep = ~((block.jump_times > 0.0) & (np.abs(block.jump_sizes) > 0.75))
    counts = np.bincount(block.jump_rows()[keep], minlength=len(block.offsets) - 1)
    masked = PathBlock(block.times, block.dt, block.diffuse,
                       block.jump_times[keep], block.jump_sizes[keep],
                       np.concatenate([[0], np.cumsum(counts)]))
    rows, t = _queries(block)
    queries = [(fn, rows, t, strict) for fn in (kernel, kernel.dphi)
               for strict in (True, False)]
    want = masked.responses(*queries)
    block.jump_sizes[drop] = 0.0
    for got, ref in zip(block.responses(*queries), want):
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= ulps * np.spacing(np.max(np.abs(ref)))
