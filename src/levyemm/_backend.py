"""Correlation kernel of the moving-average evaluation.

out[b, k] = sum_{j=1}^{k+m} w[j] * inc[b, k+m-j]

where inc holds per-cell increments on the two-sided lattice and w[j] is
the kernel sampled at lag j*dt. The sum is an FFT convolution, or, for a
kernel with an exact recursion, a cascade of IIR filters whose impulse
response is w[1:] (O(N) per row instead of a length-2N transform).
"""

import numpy as np
from scipy.signal import fftconvolve, lfilter

# largest |impulse response - w[1:]| accepted, relative to max |w[1:]|
RECURSION_RTOL = 1e-12


def ma_correlate(inc: np.ndarray, w: np.ndarray, n_out: int, m: int,
                 recursion=None) -> np.ndarray:
    """The left-point sums above for n_out outputs after m cells.

    recursion is the kernel's list of IIR sections (b, a) for this weight
    table (`Kernel.recursion`); their cascade must reproduce w[1:N+1] as
    its impulse response, or ValueError is raised.
    """
    inc = np.ascontiguousarray(inc, dtype=np.float64)
    B, N = inc.shape
    if n_out - 1 + m != N:
        raise ValueError("need inc.shape[1] == n_out - 1 + m")
    if w.shape[0] < N + 1:
        raise ValueError("weight table too short")
    if recursion is not None:
        want = np.asarray(w[1 : N + 1], dtype=np.float64)
        impulse = np.zeros(N)
        impulse[0] = 1.0
        err = np.max(np.abs(_cascade(recursion, impulse) - want), initial=0.0)
        if not err <= RECURSION_RTOL * np.max(np.abs(want), initial=0.0):
            raise ValueError(
                f"recursion does not reproduce the weight table "
                f"(max deviation {err:.3g})")
        # the zero in front delays the input one cell, so lag j meets w[j]
        padded = np.zeros((B, N + 1))
        padded[:, 1:] = inc
        return np.ascontiguousarray(_cascade(recursion, padded)[:, m:])
    w2 = np.array(w[: N + 1], dtype=np.float64)
    w2[0] = 0.0  # lag-0 weight never enters the left-point sum
    full = fftconvolve(inc, w2[None, :], axes=1)
    return np.ascontiguousarray(full[:, m : m + n_out])


def _cascade(sections, x: np.ndarray) -> np.ndarray:
    for b, a in sections:
        x = lfilter(b, a, x, axis=-1)
    return x


def backend_name() -> str:
    """The correlation module every call uses."""
    return "numpy"


def available_backends() -> list:
    return ["numpy"]
