"""Correlation kernel of the moving-average evaluation.

out[b, k] = sum_{j=1}^{k+m} w[j] * inc[b, k+m-j]

where inc holds per-cell increments on the two-sided lattice and w[j] is
the kernel sampled at lag j*dt. The sum is an FFT convolution, or, for a
kernel with an exact recursion, a cascade of IIR filters of order at most
one whose impulse response is w[1:]. The recursion runs over the n_out
output columns only: the m - 1 pre-history cells never reach an output,
they only set each section's state at the first output, and that state
is one weighted sum of the pre-history per section.

The Gaussian battery calls it with m = 0, on its cells of [0, T] alone:
it draws the pre-history's part of X and Y in law instead
(`PathSimulator.prehistory`), from r normals per path after its cells.
That changed its random stream, and so its estimates, against a battery
that correlated the whole lattice; `simulate` and the jump batteries still
pass the whole lattice here.
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
    its impulse response, or ValueError is raised, as it is for a section
    of order above one.
    """
    inc = np.ascontiguousarray(inc, dtype=np.float64)
    B, N = inc.shape
    if n_out - 1 + m != N:
        raise ValueError("need inc.shape[1] == n_out - 1 + m")
    if w.shape[0] < N + 1:
        raise ValueError("weight table too short")
    if recursion is not None:
        return _recursion_correlate(inc, w, m, recursion)
    w2 = np.array(w[: N + 1], dtype=np.float64)
    w2[0] = 0.0  # lag-0 weight never enters the left-point sum
    full = fftconvolve(inc, w2[None, :], axes=1)
    return np.ascontiguousarray(full[:, m : m + n_out])


def _recursion_correlate(inc, w, m, recursion):
    """The sums by the cascade, fed the cells from m - 1 on after a zero
    in front (so lag j meets w[j]), with each section started in the
    state the pre-history inc[:, :m-1] leaves it in."""
    B, N = inc.shape
    sections = [_first_order(b, a) for b, a in recursion]
    want = np.asarray(w[1 : N + 1], dtype=np.float64)
    impulse = np.zeros(N)
    impulse[0] = 1.0
    # responses[s]: the impulse response of sections 0..s
    responses = list(_cascade(sections, impulse))
    err = np.max(np.abs(responses[-1] - want), initial=0.0)
    if not err <= RECURSION_RTOL * np.max(np.abs(want), initial=0.0):
        raise ValueError(
            f"recursion does not reproduce the weight table "
            f"(max deviation {err:.3g})")
    k = max(m - 1, 0)
    pre = inc[:, :k]
    x = inc[:, k:] if m else np.hstack((np.zeros((B, 1)), inc))
    # the last pre-history input of section s, then its output; an einsum,
    # unlike a BLAS product, sums each row the same way in a block of any
    # size
    y_prev = pre[:, -1] if k else np.zeros(B)
    for (b, a), g in zip(sections, responses):
        y_s = np.einsum("ij,j->i", pre, g[k - 1 :: -1]) if k else np.zeros(B)
        if len(a) == 1 and len(b) == 1:
            x = lfilter(b, a, x, axis=-1)
        else:
            # transposed direct form II: z = b1 x[n] - a1 y[n]
            b1 = b[1] if len(b) > 1 else 0.0
            a1 = a[1] if len(a) > 1 else 0.0
            zi = (b1 * y_prev - a1 * y_s)[:, None]
            x, _ = lfilter(b, a, x, axis=-1, zi=zi)
        y_prev = y_s
    return x


def _first_order(b, a):
    """Section (b, a) normalised to a[0] = 1; ValueError above order one."""
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if max(len(a), len(b)) > 2:
        raise ValueError(
            f"recursion section of order {max(len(a), len(b)) - 1}; "
            f"only sections of order at most one are folded")
    return b / a[0], a / a[0]


def _cascade(sections, x: np.ndarray):
    """The output of each section in turn."""
    for b, a in sections:
        x = lfilter(b, a, x, axis=-1)
        yield x


def backend_name() -> str:
    """The correlation module every call uses."""
    return "numpy"


def available_backends() -> list:
    return ["numpy"]
