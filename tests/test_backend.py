import dataclasses
import math

import numpy as np
import pytest
import scipy.signal

from levyemm import _backend
from levyemm.kernel import constant_kernel, exponential_kernel, zero_start_kernel
from levyemm.path_sim import PathBlock, _Carried

_KERNELS = {
    "exponential": exponential_kernel(0.3, 1.7),
    "constant": constant_kernel(0.8),
    "zero-start": zero_start_kernel(0.6),
}
# the FFT of a generic weight table and of each part (phi, phi') of each
# kernel's weight table
PATHS = ["fft"] + [f"{k}-{part}" for k in _KERNELS for part in ("phi", "dphi")]
SHAPES = [(1, 4, 3), (3, 0, 5), (2, 7, 1), (4, 5, 8)]  # (B, m, n_out)
# generic-table cases keep their plain shape id
REFERENCE_CASES = [
    pytest.param(path, *shape, id="-".join(
        map(str, shape if path == "fft" else (path, *shape))))
    for path in PATHS for shape in SHAPES
]
# kernels whose grid moving average is carried as states
CARRIED = {name: _KERNELS[name] for name in ("exponential", "constant")}


def _reference(inc, w, n_out, m):
    # out[b, k] = sum_{i < k + m} w[k + m - i] inc[b, i]
    B, N = inc.shape
    out = np.zeros((B, n_out))
    for b in range(B):
        for k in range(n_out):
            for i in range(k + m):
                out[b, k] += w[k + m - i] * inc[b, i]
    return out


def _case(B, m, n_out, path="fft", seed=0):
    """Increments and weight table."""
    rng = np.random.default_rng(seed)
    N = n_out - 1 + m
    inc = np.ascontiguousarray(rng.standard_normal((B, N)))
    if path == "fft":
        return inc, np.exp(-0.3 * np.arange(N + 1)) * rng.uniform(0.5, 1.5, N + 1)
    name, part = path.rsplit("-", 1)
    k = _KERNELS[name]
    lags = np.arange(N + 1) * 0.25
    return inc, (k if part == "phi" else k.dphi)(lags)


class TestContract:
    @pytest.mark.parametrize("path,B,m,n_out", REFERENCE_CASES)
    def test_numpy_matches_reference(self, path, B, m, n_out):
        inc, w = _case(B, m, n_out, path)
        got = _backend.ma_correlate(inc, w, n_out, m)
        np.testing.assert_allclose(got, _reference(inc, w, n_out, m), atol=1e-12)

    @pytest.mark.parametrize("B,N", [(3, 1000), (2, 4999)])
    def test_equals_fftconvolve_to_the_bit(self, B, N):
        # the same transforms at the same length as fftconvolve
        rng = np.random.default_rng(N)
        inc = rng.standard_normal((B, N))
        w = rng.standard_normal(N + 1)
        m = N // 3
        w2 = w.copy()
        w2[0] = 0.0
        full = scipy.signal.fftconvolve(inc, w2[None, :], axes=1)
        np.testing.assert_array_equal(_backend.ma_correlate(inc, w, N + 1 - m, m),
                                      full[:, m : N + 1])

    @pytest.mark.parametrize("path", PATHS)
    def test_lag_zero_weight_never_enters(self, path):
        # left-point sums exclude the i = k + m cell, so w[0] is irrelevant
        inc, w = _case(2, 3, 4, path)
        w_alt = w.copy()
        w_alt[0] = 123.0
        a = _backend.ma_correlate(inc, w, 4, 3)
        b = _backend.ma_correlate(inc, w_alt, 4, 3)
        np.testing.assert_allclose(a, b, atol=0)


def _block(B, n_out, m, dt, seed, jumps=3):
    """B rows of Brownian cells on the lattice of m cells before 0 and
    n_out nodes on [0, T], each with `jumps` jumps in (-M, T], one of them
    on a node."""
    rng = np.random.default_rng(seed)
    N = n_out - 1 + m
    times = (np.arange(N + 1) - m) * dt
    counts = np.full(B, jumps)
    jt = rng.uniform(times[0], times[-1], B * jumps)
    jt[::jumps] = times[rng.integers(1, N + 1, B)]
    jt = np.sort(jt.reshape(B, jumps), axis=1).ravel()
    return PathBlock(times, dt, rng.standard_normal((B, N)) * dt ** 0.5,
                     jt, rng.standard_normal(B * jumps),
                     np.concatenate([[0], np.cumsum(counts)]))


class TestCarriedGrid:
    """An exponential or constant kernel's grid moving average, carried as
    states, against the FFT and the jumps' running sums the same kernel
    takes without its declared exponential form."""

    @pytest.mark.parametrize("n_out,m,dt", [
        (6, 0, 0.25), (6, 1, 0.25), (6, 2, 0.25), (257, 5120, 2.0 ** -9)],
        ids=["m0", "m1", "m2", "gaussian-lattice"])
    @pytest.mark.parametrize("name", CARRIED)
    def test_carried_matches_fft(self, name, n_out, m, dt):
        k = CARRIED[name]
        block = _block(3, n_out, m, dt, seed=2)
        got = block.moving_average(k)
        want = block.moving_average(dataclasses.replace(k, exponential=None))
        for g, w in zip(got, want):
            scale = np.max(np.abs(w), initial=0.0)
            assert np.max(np.abs(g - w), initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("B,m,n_out", SHAPES,
                             ids=["-".join(map(str, s)) for s in SHAPES])
    @pytest.mark.parametrize("name", CARRIED)
    def test_carried_matches_reference(self, name, B, m, n_out):
        # a block without jumps: X and Y are the left-point sums of the
        # cells against the phi and phi' weight tables
        k = CARRIED[name]
        inc, _ = _case(B, m, n_out, f"{name}-phi")
        N = inc.shape[1]
        block = PathBlock((np.arange(N + 1) - m) * 0.25, 0.25, inc,
                          np.empty(0), np.empty(0), np.zeros(B + 1, dtype=int))
        lags = np.arange(N + 1) * 0.25
        for got, fn in zip(block.moving_average(k), (k, k.dphi)):
            np.testing.assert_allclose(
                got, _reference(inc, fn(lags), n_out, m), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", CARRIED)
    def test_cell_from_a_node_never_enters_it(self, name):
        # X_t sums the cells whose left node lies before t, so the cell
        # from node t_k on, the one the lag-0 weight would meet, leaves
        # the values up to t_k as they are
        k = CARRIED[name]
        block = _block(2, 6, 3, 0.25, seed=4)
        X, Y = block.moving_average(k)
        for j in range(5):
            moved = dataclasses.replace(block, diffuse=block.diffuse.copy())
            moved.diffuse[:, 3 + j] += 123.0
            X2, Y2 = moved.moving_average(k)
            np.testing.assert_array_equal(X2[:, : j + 1], X[:, : j + 1])
            np.testing.assert_array_equal(Y2[:, : j + 1], Y[:, : j + 1])
            assert not np.array_equal(X2[:, j + 1], X[:, j + 1])

    @pytest.mark.parametrize("name", CARRIED)
    def test_row_bits_independent_of_the_block(self, name):
        k = CARRIED[name]
        block = _block(512, 257, 5120, 2.0 ** -9, seed=5)
        full = block.moving_average(k)
        rows = [range(200, 388), *([r] for r in (0, 250, 511))]
        for r in rows:
            r = np.asarray(r)
            lo, hi = block.offsets[r[0]], block.offsets[r[-1] + 1]
            part = PathBlock(block.times, block.dt, block.diffuse[r],
                             block.jump_times[lo:hi], block.jump_sizes[lo:hi],
                             block.offsets[r[0]:r[-1] + 2] - lo)
            for got, want in zip(part.moving_average(k), full):
                np.testing.assert_array_equal(got, want[r])


class TestCellStates:
    """The cells' carried states C_l = e^{-kappa dt} C_{l-1} + dL_l,
    chunked by `_carry`, against a plain loop, and each row's bits in
    blocks of any size."""

    DT = 2.0 ** -5

    @staticmethod
    def _states(diffuse, kappa, dt):
        B, N = diffuse.shape
        block = PathBlock((np.arange(N + 1) - N // 2) * dt, dt, diffuse,
                          np.empty(0), np.empty(0), np.zeros(B + 1, dtype=int))
        return _Carried(block, kappa).cell_states

    @pytest.mark.parametrize("kappa", [0.0, 0.05, 1.0, 40.0])
    @pytest.mark.parametrize("N", [1, 15, 16, 17, 244, 256])
    def test_matches_a_plain_loop(self, N, kappa):
        diffuse = np.random.default_rng(N).standard_normal((3, N))
        decay = math.exp(-kappa * self.DT)
        want = np.empty_like(diffuse)
        for b, row in enumerate(diffuse.tolist()):
            c = 0.0
            for l, dl in enumerate(row):
                c = decay * c + dl
                want[b, l] = c
        got = self._states(diffuse, kappa, self.DT)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("N", [17, 256])
    def test_row_bits_independent_of_the_block(self, N, kappa):
        diffuse = np.random.default_rng(7).standard_normal((128, N))
        full = self._states(diffuse, kappa, self.DT)
        for rows in (slice(0, 5), slice(3, 4), slice(127, 128)):
            np.testing.assert_array_equal(
                self._states(diffuse[rows].copy(), kappa, self.DT), full[rows])


class TestValidation:
    def test_shape_mismatch_raises(self):
        inc, w = _case(2, 3, 4)
        with pytest.raises(ValueError):
            _backend.ma_correlate(inc, w, 4, 5)

    def test_short_weight_table_raises(self):
        inc, w = _case(2, 3, 4)
        with pytest.raises(ValueError):
            _backend.ma_correlate(inc, w[:-2], 4, 3)

    def test_backend_name_known(self):
        assert _backend.backend_name() == "numpy"
        assert _backend.available_backends() == ["numpy"]
