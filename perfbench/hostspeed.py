"""Host-speed factors for timings taken on a shared host.

On a shared 2-core host, other tenants' load slows this process by up to
2x, in phases that last from seconds to many minutes. Wall time and CPU
time both grow with it, so neither timer alone tells a slower program from
a slower host. A fixed reference computation with the same mix of work as
the measured code, timed right before and right after each measured
interval, slows down with it: on the development host (Intel Xeon, 2
vCPUs) the ratio of a workload's call time to its reference stayed within
about 3 % across 20-second windows while the raw call time moved by 12 %.
A reference with a different mix tracks worse (about 9 %), so each
workload names the reference that matches its dominant layer.

`factor(name)` is the reference's time divided by its time on an idle core
of the development host. Dividing a measured time by the factor of its
interval estimates the time on that idle core. The references use NumPy and
SciPy only, never levyemm, so a change to the program cannot move them.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import fftconvolve

_ATOMS = np.array([-1.0, 1.0])
_P = np.array([0.5, 0.5])


def per_path() -> float:
    """The per-path loop's mix: a seeded generator per path, a Poisson
    count, sorted uniform times, weighted marks, a scatter-add onto a
    244-cell lattice and one kernel-weighted sum."""
    acc = 0.0
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence((12345, i)))
        k = rng.poisson(120)
        t = np.sort(rng.uniform(-60.0, 1.0, k))
        z = rng.choice(_ATOMS, size=k, p=_P)
        inc = np.zeros(244)
        np.add.at(inc, np.minimum((t + 60.0) // 0.25, 243).astype(int), z)
        m = t < 0.5
        acc += float(np.dot(np.exp(-0.05 * (0.5 - t[m])), z[m])) + inc[0]
    return acc


_INC = np.random.default_rng(1).standard_normal((16, 5376))
_W = np.exp(-np.arange(5377) / 512.0)


def fft() -> float:
    """The correlation's mix: FFT convolution of 16 rows of the
    5376-cell lattice with one weight row."""
    return float(fftconvolve(_INC, _W[None, :], axes=1)[0, 0])


REFERENCES = {"per_path": per_path, "fft": fft}
# seconds of each reference on an idle core of the development host
IDLE_SECONDS = {"per_path": 0.0026, "fft": 0.0030}


def factor(name: str) -> float:
    t0 = time.perf_counter()
    REFERENCES[name]()
    return (time.perf_counter() - t0) / IDLE_SECONDS[name]
