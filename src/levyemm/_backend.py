"""FFT correlation of the moving-average evaluation.

out[b, k] = sum_{j=1}^{k+m} w[j] * inc[b, k+m-j]

where inc holds per-cell increments on the two-sided lattice and w[j] is
the kernel sampled at lag j*dt. `PathBlock.moving_average` calls it for
every kernel that declares no exponential form (zero-start, power,
power-density, custom); an exponential or constant kernel carries its
sums as states instead (`path_sim._Carried`), so scipy.fft loads at the
first such call, not at import. Its transforms, at the length SciPy's FFT
convolution takes, give that convolution's bits. The benchmark under
perfbench/ calls ma_correlate, backend_name and available_backends by name.
"""

import numpy as np
import scipy


def ma_correlate(inc: np.ndarray, w: np.ndarray, n_out: int, m: int) -> np.ndarray:
    """The left-point sums above for n_out outputs after m cells."""
    inc = np.ascontiguousarray(inc, dtype=np.float64)
    B, N = inc.shape
    if n_out - 1 + m != N:
        raise ValueError("need inc.shape[1] == n_out - 1 + m")
    if w.shape[0] < N + 1:
        raise ValueError("weight table too short")
    w2 = np.array(w[: N + 1], dtype=np.float64)
    w2[0] = 0.0  # lag-0 weight never enters the left-point sum
    n = scipy.fft.next_fast_len(2 * N, real=True)  # holds all 2N terms unwrapped
    full = scipy.fft.irfft(scipy.fft.rfft(inc, n, axis=1) * scipy.fft.rfft(w2, n), n, axis=1)
    return np.ascontiguousarray(full[:, m : m + n_out])


def backend_name() -> str:
    """The correlation module every call uses."""
    return "numpy"


def available_backends() -> list:
    return ["numpy"]
