import numpy as np
import pytest

from levyemm import _backend


def _reference(inc, w, n_out, m):
    # out[b, k] = sum_{i < k + m} w[k + m - i] inc[b, i]
    B, N = inc.shape
    out = np.zeros((B, n_out))
    for b in range(B):
        for k in range(n_out):
            for i in range(k + m):
                out[b, k] += w[k + m - i] * inc[b, i]
    return out


def _case(B, m, n_out, seed=0):
    rng = np.random.default_rng(seed)
    N = n_out - 1 + m
    inc = np.ascontiguousarray(rng.standard_normal((B, N)))
    w = np.exp(-0.3 * np.arange(N + 1)) * rng.uniform(0.5, 1.5, N + 1)
    return inc, w


class TestContract:
    @pytest.mark.parametrize("B,m,n_out", [(1, 4, 3), (3, 0, 5), (2, 7, 1), (4, 5, 8)])
    def test_numpy_matches_reference(self, B, m, n_out):
        inc, w = _case(B, m, n_out)
        got = _backend.ma_correlate(inc, w, n_out, m)
        np.testing.assert_allclose(got, _reference(inc, w, n_out, m), atol=1e-12)

    def test_lag_zero_weight_never_enters(self):
        # left-point sums exclude the i = k + m cell, so w[0] is irrelevant
        inc, w = _case(2, 3, 4)
        w_alt = w.copy()
        w_alt[0] = 123.0
        a = _backend.ma_correlate(inc, w, 4, 3)
        b = _backend.ma_correlate(inc, w_alt, 4, 3)
        np.testing.assert_allclose(a, b, atol=0)


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
