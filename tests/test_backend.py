import numpy as np
import pytest

from levyemm import _backend
from levyemm.kernel import constant_kernel, exponential_kernel, zero_start_kernel

_KERNELS = {
    "exponential": exponential_kernel(0.3, 1.7),
    "constant": constant_kernel(0.8),
    "zero-start": zero_start_kernel(0.6),
}
# the FFT path, and the recursion of each part (phi, phi') of each kernel
PATHS = ["fft"] + [f"{k}-{part}" for k in _KERNELS for part in ("phi", "dphi")]
SHAPES = [(1, 4, 3), (3, 0, 5), (2, 7, 1), (4, 5, 8)]  # (B, m, n_out)
# FFT cases keep their plain shape id
REFERENCE_CASES = [
    pytest.param(path, *shape, id="-".join(
        map(str, shape if path == "fft" else (path, *shape))))
    for path in PATHS for shape in SHAPES
]


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
    """Increments, weight table and recursion (None for the FFT path)."""
    rng = np.random.default_rng(seed)
    N = n_out - 1 + m
    inc = np.ascontiguousarray(rng.standard_normal((B, N)))
    if path == "fft":
        w = np.exp(-0.3 * np.arange(N + 1)) * rng.uniform(0.5, 1.5, N + 1)
        return inc, w, None
    name, part = path.rsplit("-", 1)
    k = _KERNELS[name]
    lags = np.arange(N + 1) * 0.25
    r_phi, r_dphi = k.recursion(0.25)
    if part == "phi":
        return inc, k(lags), r_phi
    return inc, k.dphi(lags), r_dphi


class TestContract:
    @pytest.mark.parametrize("path,B,m,n_out", REFERENCE_CASES)
    def test_numpy_matches_reference(self, path, B, m, n_out):
        inc, w, rec = _case(B, m, n_out, path)
        got = _backend.ma_correlate(inc, w, n_out, m, rec)
        np.testing.assert_allclose(got, _reference(inc, w, n_out, m), atol=1e-12)

    @pytest.mark.parametrize("path", PATHS)
    def test_lag_zero_weight_never_enters(self, path):
        # left-point sums exclude the i = k + m cell, so w[0] is irrelevant
        inc, w, rec = _case(2, 3, 4, path)
        w_alt = w.copy()
        w_alt[0] = 123.0
        a = _backend.ma_correlate(inc, w, 4, 3, rec)
        b = _backend.ma_correlate(inc, w_alt, 4, 3, rec)
        np.testing.assert_allclose(a, b, atol=0)

    def test_recursion_matches_fft_on_a_long_lattice(self):
        # 5376 cells at dt = 2^-9, the gaussian-baseline lattice
        rng = np.random.default_rng(1)
        inc = rng.standard_normal((3, 5376)) * 2.0 ** -4.5
        lags = np.arange(5377) * 2.0 ** -9
        for k in (*_KERNELS.values(), zero_start_kernel(0.2)):
            for fn, rec in zip((k, k.dphi), k.recursion(2.0 ** -9)):
                w = fn(lags)
                got = _backend.ma_correlate(inc, w, 257, 5120, rec)
                want = _backend.ma_correlate(inc, w, 257, 5120)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestFold:
    """The recursion starts each section in the state the pre-history
    leaves it in and filters only the n_out output columns."""

    @pytest.mark.parametrize("n_out,m,dt", [
        (6, 0, 0.25), (6, 1, 0.25), (6, 2, 0.25), (257, 5120, 2.0 ** -9)],
        ids=["m0", "m1", "m2", "gaussian-lattice"])
    @pytest.mark.parametrize("name", _KERNELS)
    def test_fold_matches_fft(self, name, n_out, m, dt):
        k = _KERNELS[name]
        N = n_out - 1 + m
        inc = np.random.default_rng(2).standard_normal((3, N)) * dt ** 0.5
        lags = np.arange(N + 1) * dt
        for fn, rec in zip((k, k.dphi), k.recursion(dt)):
            w = fn(lags)
            got = _backend.ma_correlate(inc, w, n_out, m, rec)
            want = _backend.ma_correlate(inc, w, n_out, m)
            scale = np.max(np.abs(want), initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["exponential", "zero-start"])
    def test_row_bits_independent_of_the_block(self, name):
        k = _KERNELS[name]
        dt, n_out, m = 2.0 ** -9, 257, 5120
        inc = np.random.default_rng(5).standard_normal((512, n_out - 1 + m))
        lags = np.arange(n_out + m) * dt
        for fn, rec in zip((k, k.dphi), k.recursion(dt)):
            w = fn(lags)
            full = _backend.ma_correlate(inc, w, n_out, m, rec)
            part = _backend.ma_correlate(inc[200:388], w, n_out, m, rec)
            np.testing.assert_array_equal(part, full[200:388])
            for r in (0, 250, 511):
                one = _backend.ma_correlate(inc[r : r + 1], w, n_out, m, rec)
                np.testing.assert_array_equal(one[0], full[r])

    def test_section_above_order_one_raises(self):
        # the double pole of zero-start as one second-order section
        r = np.exp(-0.25)
        inc = np.ones((2, 8))
        w = 0.25 * np.arange(9) * r ** np.arange(9)
        with pytest.raises(ValueError, match="order 2"):
            _backend.ma_correlate(inc, w, 4, 5,
                                  [([0.0, 0.25 * r], [1.0, -2 * r, r * r])])


class TestValidation:
    def test_shape_mismatch_raises(self):
        inc, w, _ = _case(2, 3, 4)
        with pytest.raises(ValueError):
            _backend.ma_correlate(inc, w, 4, 5)

    def test_short_weight_table_raises(self):
        inc, w, _ = _case(2, 3, 4)
        with pytest.raises(ValueError):
            _backend.ma_correlate(inc, w[:-2], 4, 3)

    @pytest.mark.parametrize("path", PATHS[1:])
    def test_recursion_not_matching_weights_raises(self, path):
        inc, w, rec = _case(2, 30, 4, path)
        w_off = w.copy()
        w_off[17] += 1e-9 * np.max(np.abs(w)) + 1e-9
        with pytest.raises(ValueError, match="recursion"):
            _backend.ma_correlate(inc, w_off, 4, 30, rec)

    def test_recursion_of_another_kernel_raises(self):
        inc, _, rec = _case(2, 3, 4, "exponential-phi")
        w = exponential_kernel(0.31, 1.7)(np.arange(7) * 0.25)
        with pytest.raises(ValueError, match="recursion"):
            _backend.ma_correlate(inc, w, 4, 3, rec)

    def test_backend_name_known(self):
        assert _backend.backend_name() == "numpy"
        assert _backend.available_backends() == ["numpy"]
