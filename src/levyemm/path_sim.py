"""Two-sided Levy path simulation and moving-average evaluation.

Paths live on a uniform lattice over [-M, T]. Jumps with |x| >= eps_jump
are explicit marked-Poisson atoms embedded into their cell increment; the
sub-threshold activity is always a matched-variance Gaussian. The moving
average uses left-point sums for the diffuse part and exact kernel
responses phi(t - T_n) for the explicit jumps; for a kernel of
exponential form both sums are carried as states along each path
(`PathBlock.moving_average`, `PathBlock.response`).
"""

from __future__ import annotations

import csv
import ctypes
import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _backend
from .errors import InvalidConfig, KernelDomain
from .kernel import Kernel, exponential_form
from .levy_model import (
    Interval,
    LevyTriplet,
    TruncationFunction,
    ball_complement,
    levy_integrate,
    tail_law,
)


def _is_multiple(x: float, dt: float) -> bool:
    k = round(x / dt)
    return abs(x - k * dt) <= 1e-9 * max(1.0, abs(x))


# the most paths a run takes: every path index and count up to it is exact
# as a float
MAX_PATHS = 2**53


@dataclass(frozen=True)
class SimConfig:
    T: float
    M: float
    dt: float
    eps_jump: float
    n_paths: int
    seed: int

    def __post_init__(self):
        if not (self.T > 0 and self.M >= 0 and self.dt > 0 and self.eps_jump > 0):
            raise InvalidConfig("need T > 0, M >= 0, dt > 0, eps_jump > 0")
        if self.n_paths < 1:
            raise InvalidConfig("n_paths must be >= 1")
        if self.n_paths > MAX_PATHS:
            raise InvalidConfig("n_paths must be at most 2**53")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, not {self.seed}")
        if not (_is_multiple(self.T, self.dt) and _is_multiple(self.M, self.dt)):
            raise InvalidConfig("dt must divide both T and M")

    @property
    def n_out(self) -> int:
        """Grid points on [0, T], inclusive."""
        return round(self.T / self.dt) + 1

    @property
    def m_cells(self) -> int:
        return round(self.M / self.dt)

    @property
    def n_cells(self) -> int:
        return self.m_cells + self.n_out - 1


@dataclass
class LatticePath:
    """One simulated path: node times, per-cell increments (jumps embedded),
    and the explicit jump list."""

    times: np.ndarray  # nodes -M = t_0 < ... < t_N = T
    increments: np.ndarray  # increment of L over (t_i, t_{i+1}]
    jump_times: np.ndarray  # strictly increasing, in (-M, T]
    jump_sizes: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def diffuse_increments(self) -> np.ndarray:
        """Increments with the explicit jumps removed from their cells."""
        out = self.increments.copy()
        if len(self.jump_times):
            idx = _cell_index(self.jump_times, float(self.times[0]), self.dt,
                              len(self.increments))
            np.subtract.at(out, idx, self.jump_sizes)
        return out

    def levy_values_from_zero(self) -> np.ndarray:
        """L_t - L_0 on the output grid [0, T]."""
        m = _zero_node(self.times, self.dt)
        return np.concatenate([[0.0], np.cumsum(self.increments[m:])])


def _zero_node(times, dt) -> int:
    """The index of node 0 on a lattice starting at -M."""
    return round(-float(times[0]) / dt)


def _cell_index(times, t_lo, dt, n_cells):
    # time in (t_i, t_{i+1}] maps to cell i
    idx = np.ceil((np.asarray(times) - t_lo) / dt - 1e-12).astype(int) - 1
    return np.clip(idx, 0, n_cells - 1)


# bounds on the elements of one temporary: of a query slice (_slices), and
# of a slice of a gather into a pooled buffer (_compress)
_RESPONSE_ELEMS = 1 << 13
_COMPRESS_ELEMS = 1 << 12


class BufferPool(threading.local):
    """Grow-only NumPy buffers of floats by name, for the per-block arrays
    of a run that nothing keeps past its block: `PathSimulator.draw`'s jump
    rows, times and marks, and the carried states of a block drawn into
    the pool (`_Carried`). Each simulator holds one (`PathSimulator.pool`).

    Each thread has buffers of its own, so threads that share a pool never
    share a buffer. An array taken from the pool is valid until its thread
    takes its name again, so a block drawn into the pool, and all that is
    read from it, is valid until the thread draws its next block into the
    pool; what a caller keeps past its block must be copied into arrays it
    owns. A buffer that is too small is replaced by one an eighth larger
    than asked, and none is ever shrunk or freed, so after the first blocks
    a run allocates no per-jump array. A 1000-path chunk of h2-two-atom
    holds about 1.7 MB of them in 256-path blocks; without the pool each
    block would allocate and free it, and between runs the C allocator
    handed much of that back to the kernel, which faulted it in again page
    by page on the next run."""

    def __init__(self):
        self._buffers = {}

    def __reduce__(self):
        # a copy, pickled or deep, starts empty: buffers belong to threads
        return BufferPool, ()

    def _buffer(self, name, n) -> np.ndarray:
        buf = self._buffers.get(name)
        if buf is None or buf.size < n:
            buf = self._buffers[name] = np.empty(n + n // 8)
        return buf

    def take(self, name, shape) -> np.ndarray:
        """The buffer name as an uninitialised array of floats of shape."""
        n = math.prod(shape) if isinstance(shape, tuple) else shape
        return self._buffer(name, n)[:n].reshape(shape)

    def take_rows(self, name, n_rows: int, width: int) -> np.ndarray:
        """The buffer name as n_rows uninitialised rows of floats, each at
        least width long and as long as the buffer allows. A buffer too
        small is replaced, as take replaces one, so rows taken before stay
        as they were."""
        buf = self._buffer(name, n_rows * width)
        width = buf.size // n_rows if n_rows else width
        return buf[:n_rows * width].reshape(n_rows, width)


def _empty(pool: BufferPool | None, name, shape) -> np.ndarray:
    """pool's buffer name as an array of floats of shape, or a new one
    without a pool."""
    return np.empty(shape) if pool is None else pool.take(name, shape)


def _compress(mask, values, out) -> np.ndarray:
    """values[mask] written into out, about _COMPRESS_ELEMS at a time (whole
    rows of 2-D values, which may be strided), so that no temporary is
    longer than a slice (np.compress allocates the indices and a copy of
    the whole result, even with out). out may share the memory of values
    if no value is written to where a later slice reads."""
    at, step = 0, max(1, _COMPRESS_ELEMS // max(1, math.prod(mask.shape[1:])))
    for lo in range(0, len(mask), step):
        m = mask[lo:lo + step]
        n = np.count_nonzero(m)
        out[at:at + n] = values[lo:lo + step][m]
        at += n
    return out


def _runs(first: bool, *lengths) -> np.ndarray:
    """Row after row, runs of lengths[0][b], lengths[1][b], ... elements,
    True and False in turn from first, flat (a length may be one number
    for all rows): one boolean repeat, which unlike a broadcast comparison
    takes no iterator buffers."""
    runs = np.empty((len(lengths[0]), len(lengths)), dtype=np.intp)
    for k, length in enumerate(lengths):
        runs[:, k] = length
    values = np.arange(len(lengths)) % 2 == (not first)
    return np.repeat(np.tile(values, len(runs)), runs.ravel())


def _leading(counts: np.ndarray, widths) -> np.ndarray:
    """Row after row, counts[b] True and then widths[b] - counts[b] False,
    flat (widths may be one number for all rows)."""
    return _runs(True, counts, widths - counts)


@dataclass
class PathBlock:
    """Paths drawn together, one row each.

    diffuse holds every path's cell increments before any explicit jump is
    embedded. The explicit jumps of all paths sit in one flat array: path
    b's, in increasing time, at offsets[b]:offsets[b + 1]. A block drawn
    with a pre-history law (`PathSimulator.draw`) spans [0, T] and keeps
    its normals of the law as the rows of eta; one drawn into a buffer pool
    keeps the pool, from which its carried states take their buffers too.
    """

    times: np.ndarray  # nodes -M = t_0 < ... < t_N = T
    dt: float
    diffuse: np.ndarray  # (B, N)
    jump_times: np.ndarray
    jump_sizes: np.ndarray
    offsets: np.ndarray  # (B + 1,)
    eta: np.ndarray | None = None  # (B, rank) pre-history normals, if drawn
    pool: BufferPool | None = None  # the pool it was drawn into, if any

    @classmethod
    def of_path(cls, path: LatticePath, diffuse: np.ndarray | None = None
                ) -> PathBlock:
        """The one-row block of path (diffuse defaults to its increments
        with the jumps taken out)."""
        row = path.diffuse_increments() if diffuse is None else diffuse
        return cls(path.times, path.dt, np.asarray(row)[None, :],
                   path.jump_times, path.jump_sizes,
                   np.array([0, len(path.jump_times)]))

    def jump_rows(self) -> np.ndarray:
        """The path of each flat jump."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    def jumps_beyond(self, a: float) -> np.ndarray:
        """The flat indices of the jumps after 0 of size |Z| > a."""
        late = np.flatnonzero(self.jump_times > 0.0)
        return late[np.abs(self.jump_sizes[late]) > a]

    def path(self, b: int) -> LatticePath:
        lo, hi = self.offsets[b], self.offsets[b + 1]
        jt, jz = self.jump_times[lo:hi], self.jump_sizes[lo:hi]
        inc = self.diffuse[b].copy()
        np.add.at(inc, self._cells(jt), jz)
        return LatticePath(self.times, inc, jt, jz)

    def _cells(self, jump_times):
        return _cell_index(jump_times, float(self.times[0]), self.dt,
                           self.diffuse.shape[1])

    def response(self, fn, rows, t, *, strict: bool) -> np.ndarray:
        """For each query q, sum_j fn(t_q - T_j) Z_j over the jumps of path
        rows[q] before t_q (T_j < t_q when strict, for Y_{t-}; T_j <= t_q
        otherwise, for X_t), plus the diffuse left-point sum over the cells
        whose left node lies before t_q.

        When fn is f0 e^{-kappa s} (`exponential_form`: phi or phi' of the
        exponential and constant kernels), each path carries its sums as
        states: C_l = e^{-kappa dt} C_{l-1} + dL_l from left node to left
        node, and S_j = e^{-kappa (T_j - T_{j-1})} S_{j-1} + Z_j from jump
        to jump in time order, both by `_carry`. A query reads the latest of
        each before it: f0 (e^{-kappa (t_q - l)} C_l + e^{-kappa (t_q - T_j)} S_j).
        Every factor is at most 1, so no kappa overflows, and a block costs
        O(cells + jumps) plus one search per query. Any other fn is summed
        per query, cells and then jumps in time order, by a running sum.
        Either way a value depends only on its path and t_q: not on the
        block, nor on the other queries.
        """
        return self.responses((fn, rows, t, strict))[0]

    def responses(self, *queries) -> list:
        """response(fn, rows, t, strict=strict) for each (fn, rows, t,
        strict) of queries. Functions of exponential form with the same
        kappa, such as a kernel's phi and phi', share one carry, whose
        per-jump arrays are taken from the block's pool when it has one.
        The values returned are the caller's own either way."""
        carried, out = {}, []
        for fn, rows, t, strict in queries:
            rows = np.asarray(rows, dtype=np.intp)
            t = np.asarray(t, dtype=float)
            form = exponential_form(fn)
            if form is None:
                out.append(self._running(fn, rows, t, strict=strict))
                continue
            f0, kappa = form
            c = carried.setdefault(kappa, _Carried(self, kappa))
            # f0 (cells + jumps), in the jumps' array
            v = c.jumps_at(rows, t, strict=strict)
            v += c.cells_at(rows, t)
            v *= f0
            out.append(v)
        return out

    def _running(self, fn, rows, t, *, strict: bool) -> np.ndarray:
        """response by the per-query running sum, for any fn."""
        out = np.zeros(len(t))
        if self.diffuse.any():
            left = self.times[:-1]
            for q, r, tq in _slices(rows, t, len(left)):
                out[q] = _running_sum(fn, tq, left, self.diffuse[r], left < tq)
        self._add_jumps(fn, rows, t, out, strict=strict)
        return out

    def moving_average(self, kernel: Kernel, prehistory: Prehistory | None = None,
                       x_nodes=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """X at the grid nodes x_nodes (default every node) and Y = the
        phi'-average at every node of the grid [0, T], of shapes (B,
        len(x_nodes)) and (B, n_out): the diffuse left-point sums plus each
        jump's exact response at the nodes at or after it. For a kernel of
        exponential form both are f0 times one carried sum (`_Carried.on_grid`),
        so off the jump times they are `response`'s values to the bit; any
        other kernel takes one FFT correlation of the block per weight table
        (`_backend.ma_correlate`) plus the jumps by running sum, and X is
        taken at x_nodes after them. X at some nodes is the full grid's X at
        those nodes to the bit.

        A block drawn from 0 may take its pre-history in law instead: with
        prehistory (`PathSimulator.prehistory` of the lattice from -M), the
        block must have been drawn with that law, and X and Y gain each
        row's mean + factor eta at their nodes. An einsum, unlike a BLAS
        product, sums each row the same way in a block of any size.
        """
        B, n = self.diffuse.shape
        m = _zero_node(self.times, self.dt)
        if prehistory is not None and (m or self.eta is None):
            raise ValueError("a pre-history in law needs a block drawn from 0 "
                             "with the law")
        fns = (kernel, kernel.dphi)
        if kernel.exponential is not None:
            s = _Carried(self, kernel.exponential[1]).on_grid(m)
            (fx, _), (fy, _) = (exponential_form(fn) for fn in fns)
            X, Y = fx * s[:, x_nodes], np.multiply(s, fy, out=s)  # Y reuses s's buffer
        else:
            grid = self.times[m:]
            X, Y = (_backend.ma_correlate(self.diffuse, _weight_table(fn, n, self.dt),
                                          len(grid), m) for fn in fns)
            if len(self.jump_times):
                # the queries are built after the correlations have freed
                # their temporaries, so they do not raise the peak memory
                rows, t = np.repeat(np.arange(B), len(grid)), np.tile(grid, B)
                for fn, v in zip(fns, (X, Y)):
                    self._add_jumps(fn, rows, t, v.reshape(-1), strict=False)
            X = X[:, x_nodes]
        if prehistory is not None:
            for v, mean, factor, nodes in zip((X, Y), prehistory.mean,
                                              prehistory.factor, (x_nodes, slice(None))):
                e = np.einsum("br,kr->bk", self.eta, factor[nodes])
                e += mean[nodes]
                v += e
        return X, Y

    def _add_jumps(self, fn, rows, t, out, *, strict: bool) -> None:
        """Add to out[q] the running sum of fn(t_q - T_j) Z_j over the jumps
        of path rows[q] before t_q (strictly when strict)."""
        counts = np.diff(self.offsets)
        before = np.less if strict else np.less_equal
        for q, r, tq in _slices(rows, t, int(counts.max(initial=0))):
            n_r = counts[r]
            k = np.arange(int(n_r.max(initial=0)))
            if len(k):
                valid = k < n_r[:, None]
                idx = np.where(valid, self.offsets[r, None] + k, 0)
                jt = self.jump_times[idx]
                out[q] += _running_sum(fn, tq, jt, self.jump_sizes[idx],
                                       valid & before(jt, tq))


# jump ranks per chunk of the carry (_carry); a constant, so that a row's
# chunks, and with them its bits, never depend on the block
_CHUNK = 16


class _Carried:
    """The sums of a block's paths carried as states for one decay rate
    kappa (see `PathBlock.response`), each computed when first read by
    `_carry`. The cell states are kept row by row; the jump states stay in
    `_carry`'s (part, prod, entering) form, and jumps_at combines them only
    at the jumps its queries read. Their layout buffers are taken from the
    block's pool, under names of their kappa, when it has one, and are then
    valid until the thread draws its next block into the pool."""

    def __init__(self, block: PathBlock, kappa: float):
        self.block, self.kappa = block, kappa

    def _empty(self, name, shape) -> np.ndarray:
        return _empty(self.block.pool, (name, self.kappa), shape)

    @cached_property
    def cell_states(self) -> np.ndarray | None:
        """C_l at every left node of every row, carried in jump_carry's
        layout with the one decay e^{-kappa dt}; None without diffuse
        activity."""
        diffuse = self.block.diffuse
        if not diffuse.any():
            return None
        B, N = diffuse.shape
        n_chunks, tail = divmod(N, _CHUNK)
        # cell l of row b at (l % _CHUNK, l // _CHUNK, b), the padding 0
        z = self._empty("cells", (_CHUNK, n_chunks + (tail > 0), B))
        z[:, -1] = 0.0
        cells = z.transpose(2, 1, 0)
        cells[:, :n_chunks] = diffuse[:, : N - tail].reshape(B, n_chunks, _CHUNK)
        cells[:, -1, :tail] = diffuse[:, N - tail :]
        decay = np.full((_CHUNK, 1, 1), math.exp(-self.kappa * self.block.dt))
        part, prod, entering = _carry(decay, z)
        for k in range(_CHUNK):
            part[k] += prod[k] * entering
        return cells.copy().reshape(B, -1)[:, :N]

    @cached_property
    def jump_carry(self) -> tuple:
        """`_carry` of S along every row's jumps: (part, prod, entering)
        in its layout, with each row's ranks padded to whole chunks of
        _CHUNK: jump rank k of row b sits at (k % _CHUNK, k // _CHUNK, b),
        and the padding has decay and size 0."""
        block = self.block
        jt = block.jump_times
        counts = np.diff(block.offsets)
        width = -(-int(counts.max(initial=0)) // _CHUNK) * _CHUNK
        # (row, rank) of every jump, over whole chunks
        filled = _leading(counts, width).reshape(len(counts), width)
        shape = (_CHUNK, width // _CHUNK, len(counts))
        prod, part = self._empty("prod", shape), self._empty("part", shape)
        starts = block.offsets[:-1][counts > 0]
        # the gaps T_j - T_{j-1}, 0 at each row's first jump, then in place
        # their decays, flat in part's buffer until the sizes are laid out
        decay = part.reshape(-1)[:len(jt)]
        decay[:1] = jt[:1]
        np.subtract(jt[1:], jt[:-1], out=decay[1:])
        decay[starts] = 0.0
        decay *= -self.kappa
        np.exp(decay, out=decay)
        decay[starts] = 0.0
        # each step of _carry reads one contiguous slab of this layout; the
        # values go straight into its (row, chunk, rank in chunk) view
        chunked = filled.reshape(len(counts), -1, _CHUNK)
        for values, out in ((decay, prod), (block.jump_sizes, part)):
            out.fill(0.0)
            out.transpose(2, 1, 0)[chunked] = values
        return _carry(prod, part)

    def cells_at(self, rows, t) -> np.ndarray:
        """e^{-kappa (t - l)} C_l at the last left node l < t of each query."""
        out = np.zeros(len(t))
        if not len(t) or self.cell_states is None:
            return out
        left = self.block.times[:-1]
        last = np.searchsorted(left, t) - 1
        seen = last >= 0
        out[seen] = np.exp(-self.kappa * (t[seen] - left[last[seen]])) \
            * self.cell_states[rows[seen], last[seen]]
        return out

    def on_grid(self, m: int) -> np.ndarray:
        """cells_at + jumps_at(strict=False) at the nodes t_m, t_{m+1}, ...
        of every row, (B, N + 1 - m), with the cell states read by slices:
        node t_k sees left node t_{k-1}."""
        block, t = self.block, self.block.times
        B, N = block.diffuse.shape
        # the states first: their layout buffer is freed before out is made
        states = self.cell_states
        out = np.zeros((B, N + 1 - m))
        if states is not None:
            s = max(m - 1, 0)
            np.multiply(np.exp(-self.kappa * (t[s + 1:] - t[s:-1])),
                        states[:, s:], out=out[:, s + 1 - m:])
        if len(block.jump_times):
            rows, tq = np.repeat(np.arange(B), N + 1 - m), np.tile(t[m:], B)
            out += self.jumps_at(rows, tq, strict=False).reshape(out.shape)
        return out

    def jumps_at(self, rows, t, *, strict: bool) -> np.ndarray:
        """e^{-kappa (t - T_j)} S_j at the last jump T_j of each query's row
        it sees (T_j < t when strict, T_j <= t otherwise), 0 before any.
        S_j = part + prod entering (`_carry`) is formed only at the jumps
        the queries read, at their (rank in chunk, chunk, row)."""
        block = self.block
        out = np.zeros(len(t))
        if not (len(block.jump_times) and len(t)):
            return out
        # the carry first, so that its temporaries are gone before the
        # queries' are made
        part, prod, entering = self.jump_carry
        first = block.offsets[rows]
        last = _last_before(block.jump_times, first, block.offsets[rows + 1], t,
                            strict=strict)
        seen = last >= first
        j, r = last[seen], rows[seen]
        chunk, rank = np.divmod(j - first[seen], _CHUNK)
        del first, last
        # e^{-kappa (t - T_j)} (part + prod entering), formed in place, so that
        # few arrays of the queries' length are alive at once
        s = part[rank, chunk, r]
        s += prod[rank, chunk, r] * entering[chunk, r]
        e = t[seen]
        e -= block.jump_times[j]
        e *= -self.kappa
        np.exp(e, out=e)
        e *= s
        out[seen] = e
        return out


def _last_before(values, lo, hi, t, *, strict: bool) -> np.ndarray:
    """For each query q, the last index j of lo[q]..hi[q] - 1 with
    values[j] < t[q] (values[j] <= t[q] unless strict), or lo[q] - 1 if
    there is none, where each values[lo[q]:hi[q]] is sorted: the index
    np.searchsorted(values[lo:hi], t, side) + lo - 1 gives, for all queries
    at once. A bisection by steps of halving powers of two from the
    widest range's, each one array operation for every query; a step past
    hi[q] - 1 tries hi[q] - 1 instead."""
    before = np.less if strict else np.less_equal
    last, top = lo - 1, hi - 1
    at = np.empty_like(last)
    for k in reversed(range(int(np.max(hi - lo, initial=0)).bit_length())):
        np.add(last, 1 << k, out=at)
        np.minimum(at, top, out=at)
        np.copyto(last, at, where=before(values[at], t))
    return last


def _carry(r, z):
    """s[k] = r[k] s[k - 1] + z[k] along the ranks k of (rank in chunk,
    chunk, row) arrays, from s = 0, as the triple (part, prod, entering)
    with s = part + prod entering: each chunk's carry from 0 and the
    product of its decays, rank by rank for all chunks at once; then the
    state entering each chunk (chunk, row), one chunk after the other.
    r may be broadcast along chunks and rows, as one decay for all cells
    is, of shape (_CHUNK, 1, 1). Every factor is at most 1. That takes
    about 3 _CHUNK + 2 chunks array operations instead of 2 per rank.
    part and prod are formed in place, in z and r."""
    part, prod = z, r
    step = np.empty(z.shape[1:])
    for k in range(1, len(z)):
        # r[k] is still the decay here: prod[k] is formed after it is read
        np.multiply(r[k], part[k - 1], out=step)
        part[k] += step
        prod[k] *= prod[k - 1]
    entering = np.zeros(z.shape[1:])
    last = np.broadcast_to(prod[-1], entering.shape)
    for c in range(1, len(entering)):
        np.multiply(last[c - 1], entering[c - 1], out=entering[c])
        entering[c] += part[-1, c - 1]
    return part, prod, entering


def _slices(rows, t, width):
    """The queries in slices whose (slice, width) temporaries stay below
    _RESPONSE_ELEMS elements: each slice, its rows and its times as a
    column."""
    step = max(1, _RESPONSE_ELEMS // max(width, 1))
    for lo in range(0, len(t), step):
        q = slice(lo, lo + step)
        yield q, rows[q], t[q, None]


def _running_sum(fn, tq, at, weights, m):
    """Row sums of fn(tq - at) * weights over the entries m selects, each
    row added up left to right; fn sees lag 0 where m is False, so never a
    lag it is not defined at."""
    terms = np.where(m, fn(np.where(m, tq - at, 0.0)), 0.0)
    return np.cumsum(terms * weights, axis=1)[:, -1]


# ---------------------------------------------------------------------------
# the pre-history in law
# ---------------------------------------------------------------------------


# the residual trace, relative to the whole, at which the factor stops
PREHISTORY_RTOL = 1e-13


@dataclass(frozen=True)
class Prehistory:
    """What the cells of [-M, 0] add to X and Y on the grid [0, T], in law:
    mean + factor eta with eta standard normal in rank dimensions. Row 0
    of mean and factor is X, row 1 is Y. `PathSimulator.draw` draws each
    path's eta with its cells, and `PathBlock.moving_average` adds the
    term."""

    mean: np.ndarray  # (2, n_out)
    factor: np.ndarray  # (2, n_out, rank)

    @property
    def rank(self) -> int:
        return self.factor.shape[2]


def _window_sums(v: np.ndarray, m: int) -> np.ndarray:
    """sum_{p<m} v[..., k + p] for every k with k + m <= v.shape[-1]: the
    differences of v's reverse cumulative sums m apart, O(len) along the
    last axis. Summed from the far end, where the weights are smallest."""
    r = np.zeros(v.shape[:-1] + (v.shape[-1] + 1,))
    r[..., :-1] = np.cumsum(v[..., ::-1], axis=-1)[..., ::-1]
    return r[..., :-m] - r[..., m:]


def check_eps_jump(eps: float, h: TruncationFunction) -> None:
    """InvalidConfig when eps exceeds the identity radius of h."""
    if eps > h.identity_radius + 1e-12:
        raise InvalidConfig(
            "eps_jump must not exceed the truncation identity radius "
            f"{h.identity_radius}, not {eps}")


# ---------------------------------------------------------------------------
# the simulator
# ---------------------------------------------------------------------------


# NumPy's SeedSequence hash (O'Neill's seed_seq_fe, which NumPy documents
# as stable), on uint32 values held in uint64 so that no product wraps
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words32(n: int) -> list:
    """The uint32 words SeedSequence reads from the integer n >= 0, low
    first."""
    return [n >> s & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _hash_consts(h: int, mult: int, n: int) -> np.ndarray:
    """The constants of n successive hash steps from h, as (2, n, 1)
    columns: each step xors the value with the constant before it is
    advanced (row 0) and multiplies it by the advanced one (row 1)."""
    seq = [h]
    for _ in range(n):
        seq.append(seq[-1] * mult & _MASK32)
    col = np.array(seq, dtype=np.uint64)[:, None]
    return np.stack([col[:-1], col[1:]])


def _hash(v, consts):
    """v hashed by consts, as a new array: the first step makes it, and
    the others work in place."""
    before, after = consts
    v = v ^ before
    v *= after
    v &= _MASK32
    v ^= v >> 16
    return v


def _mix(x, y):
    """x mixed with y, formed in x; y is overwritten too."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x &= _MASK32
    x ^= x >> 16
    return x


# the pool words each pool word is mixed into
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) for every column e of
    entropy, an (L, n) uint64 array of uint32 entropy words; returns (n, 4).

    Every column takes the same hash constants, so each step of NumPy's
    per-word loops runs once over all columns and all pool words it
    touches, in place where it can; the output words are hashed one at a
    time, which keeps the temporaries to a few pool words."""
    L, n = entropy.shape
    pool = np.zeros((_POOL, n), dtype=np.uint64)
    pool[:min(L, _POOL)] = entropy[:_POOL]
    # one constant per hashed word, in NumPy's order
    c = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + max(L - _POOL, 0)))
    pool = _hash(pool, c[:, :_POOL])
    # mix every pool word into every other, then any entropy beyond the pool
    for src, dst in enumerate(_OTHERS):
        k = _POOL + (_POOL - 1) * src
        pool[dst] = _mix(pool[dst], _hash(pool[src], c[:, k:k + _POOL - 1]))
    for src in range(_POOL, L):
        k = _POOL * src
        pool = _mix(pool, _hash(entropy[src], c[:, k:k + _POOL]))
    # eight uint32 words from the pool words in turn, as little-endian
    # pairs, the way generate_state views them
    c = _hash_consts(_INIT_B, _MULT_B, 8)
    out = np.empty((n, 4), dtype=np.uint64)
    for i in range(4):
        hi = _hash(pool[(2 * i + 1) % _POOL], c[:, 2 * i + 1])
        hi <<= 32
        hi |= _hash(pool[2 * i % _POOL], c[:, 2 * i])
        out[:, i] = hi
    return out


_MASK64 = (1 << 64) - 1
# PCG64's multiplier (PCG_DEFAULT_MULTIPLIER_128), high and low word
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))


def _mul64(a, b) -> tuple:
    """The 128-bit products a b of uint64 values, as (high, low) words, by
    32-bit halves, whose products do not wrap."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross, mid = a0 * b0, a1 * b0, a0 * b1
    carry = (low >> 32) + (cross & _MASK32) + (mid & _MASK32)
    return (a1 * b1 + (cross >> 32) + (mid >> 32) + (carry >> 32),
            (carry << 32) | (low & _MASK32))


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple:
    """(a + b) mod 2**128 of (high, low) uint64 words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_seeded(words: np.ndarray) -> np.ndarray:
    """The PCG64 (state, inc) that PCG64 makes of SeedSequence words (n, 4)
    (initstate high and low, then initseq high and low), as (n, 4) words:
    state high and low, then inc high and low, the order of NumPy's
    bit_generator.state. PCG64's seeding step, vectorised: inc =
    2 initseq + 1, then state = (initstate + inc) MULT + inc mod 2**128."""
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_hi, inc_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    hi, lo = _add128(s_hi, s_lo, inc_hi, inc_lo)
    m_hi, m_lo = _PCG_MULT
    prod_hi, prod_lo = _mul64(lo, m_lo)
    prod_hi += hi * m_lo + lo * m_hi
    return np.stack(_add128(prod_hi, prod_lo, inc_hi, inc_lo) + (inc_hi, inc_lo),
                    axis=1)


def _numpy_words(seed: int, i: int) -> list:
    """The words of `_pcg64_seeded` for path i at seed, by NumPy's own
    SeedSequence and PCG64."""
    state = np.random.PCG64(np.random.SeedSequence((seed, i))).state["state"]
    return [w >> s & _MASK64 for w in (state["state"], state["inc"])
            for s in (64, 0)]


class _PCG64Struct(ctypes.Structure):
    """NumPy's pcg64_state, at a PCG64's ctypes.state_address: the address
    of its (state, inc) pair of 128-bit words, and the half of a 64-bit
    output it keeps for the next 32-bit draw."""

    _fields_ = [("pcg_state", ctypes.c_void_p), ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


# written through bit_generator.state to find where the words lie: state
# high and low, inc high and low, and a kept 32-bit half
_SENTINELS = (0x0123456789ABCDEF, 0x1122334455667788,
              0x8877665544332211, 0xFEDCBA9876543211)
_SENTINEL_32 = 0xDEADBEEF
# where NumPy's pcg128_t lays out the words of `_pcg64_seeded`, as indices
# into them: native __uint128_t on a little-endian machine (low word
# first), or the {high, low} struct of its emulated 128-bit arithmetic
_WORD_ORDERS = ((1, 0, 3, 2), (0, 1, 2, 3))


def _word_order(read) -> tuple:
    """The `_WORD_ORDERS` entry by which the four words read at a PCG64's
    (state, inc) hold _SENTINELS; RuntimeError when none does."""
    read = [int(w) for w in read]
    for order in _WORD_ORDERS:
        if read == [_SENTINELS[k] for k in order]:
            return order
    raise RuntimeError(f"NumPy's PCG64 state has a layout the reseat does not "
                       f"know: words {[hex(w) for w in read]} after "
                       f"{[hex(w) for w in _SENTINELS]} were written")


class _Seat:
    """A thread's one PCG64 and its Generator, which `Generators` reseats
    for each path: its (state, inc) words are written in place through the
    bit generator's ctypes.state_address, in the order found when the seat
    is made by writing _SENTINELS through the public state setter and
    reading them back. busy while an iteration of `Generators` holds it."""

    def __init__(self):
        bit_generator = np.random.PCG64(0)
        self.generator = np.random.Generator(bit_generator)
        self.struct = _PCG64Struct.from_address(bit_generator.ctypes.state_address)
        state, inc = (_SENTINELS[k] << 64 | _SENTINELS[k + 1] for k in (0, 2))
        bit_generator.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 1, "uinteger": _SENTINEL_32}
        if (self.struct.has_uint32, self.struct.uinteger) != (1, _SENTINEL_32):
            raise RuntimeError("NumPy's pcg64_state does not have the layout "
                               "the reseat reads")
        words = (ctypes.c_uint64 * 4).from_address(self.struct.pcg_state)
        self.order = _word_order(words)
        self.words = np.ctypeslib.as_array(words)
        self.busy = False


_SEATS = threading.local()


def _seat() -> _Seat:
    """This thread's seat, made when the thread first asks for it."""
    seat = getattr(_SEATS, "seat", None)
    if seat is None:
        seat = _SEATS.seat = _Seat()
    return seat


class Arrivals:
    """Per path, a Poisson(mean) count n_b of arrival times uniform on
    [lo, hi) and a mark uniform for each, drawn one path at a time
    (draw), path b's into row b of one buffer of rows: a poisson call,
    then one random(2 n_b + tail) call, whose first n_b doubles d give the
    times as lo + (hi - lo) d, which is NumPy's uniform(lo, hi, n_b) to the
    bit, and whose next n_b are the uniforms. The tail more doubles are
    the next arrivals' to read (`read`), and a row they do not cover takes
    its doubles from its own calls (`put`). A row too short for its doubles
    widens the rows, and those drawn so far are copied over.

    result then takes the uniforms out of the rows, pads each row's times
    with +inf and sorts the rows in place, once for all of them, and maps
    the sorted doubles to times: lo + (hi - lo) d does not decrease with d
    in floating point either, so it keeps them in order. With a pool the
    rows and the uniforms are its buffers "rows" and "tails", and the times
    are gathered into the head of the rows; without, all three are arrays
    of their own."""

    def __init__(self, mean: float, lo: float, hi: float, n_rows: int,
                 pool: BufferPool | None = None, tail: int = 0):
        self.mean, self.lo, self.hi, self.pool = mean, lo, hi, pool
        self.tail = tail
        self.counts = []
        self.rows = np.empty((n_rows, 0))

    def _widen(self, width: int, kept: int) -> None:
        """Rows at least width wide, the pool's as wide as it allows, with
        the first kept rows' doubles copied over."""
        old = self.rows
        if width > old.shape[1]:
            self.rows = (np.empty((len(old), width + width // 8)) if self.pool is None
                         else self.pool.take_rows("rows", len(old), width))
            self.rows[:kept, :old.shape[1]] = old[:kept]

    def draw(self, poisson, random) -> None:
        """The next path's two calls, of its generator's poisson and random
        methods, which a caller binds once for the paths of one generator."""
        n, b = poisson(self.mean), len(self.counts)
        width = 2 * n + self.tail
        self._widen(width, b)
        self.counts.append(n)
        random(out=self.rows[b, :width])

    def read(self, source: Arrivals) -> np.ndarray:
        """These arrivals read from the tails of source's rows, as their own
        poisson(mean) and random(2 X) calls would have drawn them after
        source's, for a mean below _MULTIPLICATION_BELOW: there NumPy counts
        by Knuth's multiplication method, so X is the number of leading
        doubles whose running product stays above e^{-mean}, and the 2 X
        doubles after the first that does not are the row's. The running
        products of every row's first x_max + 1 tail doubles (source.tail =
        3 x_max + 1) are formed at once, and the rows whose count is at most
        x_max take their doubles from their tails in one gather. Returns the
        other rows, the ones past the tail, which are left with count 0 for
        `put`."""
        n_rows, width = source.rows.shape
        x_max, enlam = (source.tail - 1) // 3, math.exp(-self.mean)
        flat = source.rows.reshape(-1)
        # where each row's tail starts in the flat buffer
        starts = np.arange(n_rows) * width
        starts += 2 * np.array(source.counts, dtype=np.intp)
        # tail double k of row b at [k, b], so that each step of the running
        # product is one pass over all rows
        lead = flat.take(np.arange(x_max + 1)[:, None] + starts)
        np.multiply.accumulate(lead, axis=0, out=lead)
        # no product exceeds the one before it, so those above e^{-mean} lead
        x = np.add.reduce(lead > enlam, axis=0, dtype=np.intp)
        del lead
        past = np.flatnonzero(x > x_max)
        x[past] = 0
        starts += x + 1
        self.rows = flat.take(starts[:, None] + np.arange(2 * int(x.max(initial=0))))
        self.counts = x
        return past

    def put(self, b: int, doubles: np.ndarray) -> None:
        """Row b's 2 X doubles, from its own random(2 X) call."""
        self._widen(len(doubles), len(self.rows))
        self.counts[b] = len(doubles) // 2
        self.rows[b, :len(doubles)] = doubles

    def result(self) -> tuple:
        """The counts, the times sorted row by row and the uniforms, the
        last two flat in row order."""
        counts = np.array(self.counts, dtype=np.intp)
        n, width = int(counts.sum()), int(counts.max(initial=0))
        rows = self.rows[:, :2 * width]
        u = _compress(_runs(False, counts, counts, 2 * (width - counts)).reshape(
            rows.shape), rows, _empty(self.pool, "tails", n))
        head = rows[:, :width]
        head[_runs(False, counts, width - counts).reshape(head.shape)] = np.inf
        head.sort(axis=1)
        # gathered into the head of the rows row after row: row b's times go
        # to where rows before b lay, never past the rows still to be read
        into = np.empty(n) if self.pool is None else self.rows.reshape(-1)[:n]
        times = _compress(_leading(counts, width).reshape(head.shape), head, into)
        times *= self.hi - self.lo
        times += self.lo
        return counts, times, u


# NumPy's Generator.poisson counts by the multiplication method below this
# mean, and by Hörmann's PTRS, which no read of its doubles can follow,
# from it on
_MULTIPLICATION_BELOW = 10.0
# the chance that a path's count passes its tail's bound (`_count_bound`)
_TAIL_MISS = 1e-8


def _count_bound(mean: float) -> int:
    """The least x with P(X > x) <= _TAIL_MISS for X ~ Poisson(mean)."""
    x = 0
    term = below = math.exp(-mean)
    while 1.0 - below > _TAIL_MISS:
        x += 1
        term *= mean / x
        below += term
    return x


def _read_tails(rngs: Generators, jumps: Arrivals, then: Arrivals,
                normals: int) -> None:
    """then read from the tails of jumps' rows (`Arrivals.read`) for a
    `Generators` block, whose paths each made a standard_normal(normals)
    call (none for 0) and then jumps' two calls. The rows past their tails
    and the first row read are replayed from their seed states without the
    tail, to make then's poisson and random calls: a row past its tail
    takes their doubles (`put`), and a count or double of the first row
    read that differs from them raises RuntimeError."""
    past = then.read(jumps)
    read = np.ones(len(rngs), dtype=bool)
    read[past] = False
    rows = np.concatenate([past, np.flatnonzero(read)[:1]])
    for b, rng in zip(rows, Generators(rngs.states[rows])):
        if normals:
            rng.standard_normal(normals)
        rng.random(2 * rng.poisson(jumps.mean))
        n = rng.poisson(then.mean)
        doubles = rng.random(2 * n)
        if not read[b]:
            then.put(b, doubles)
        elif n != then.counts[b] or not np.array_equal(doubles, then.rows[b, :2 * n]):
            raise RuntimeError(
                f"the tail read of a block's row {b} disagrees with NumPy's "
                f"poisson({then.mean}): count {then.counts[b]}, NumPy's {n}")


class Generators:
    """The PCG64 streams of rows of seed states (`seed_states`), one path
    after the other from this thread's one Generator (`_Seat`): before
    iteration yields it for a path, its state is that path's words and no
    32-bit half is kept, so it draws what NumPy's own generator of the
    path draws, to the bit, and no generator is built per path. What a
    path draws must be drawn before iteration moves on; two iterations in
    one thread at once are refused with RuntimeError."""

    def __init__(self, states: np.ndarray):
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        seat = _seat()
        if seat.busy:
            raise RuntimeError("another iteration of Generators holds this "
                               "thread's generator")
        seat.busy = True
        try:
            words, struct, rng = seat.words, seat.struct, seat.generator
            for w in self.states[:, seat.order]:
                words[...] = w
                struct.has_uint32 = 0
                struct.uinteger = 0
                yield rng
        finally:
            seat.busy = False


def seed_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, 4) PCG64 words that PCG64(SeedSequence((seed, i)))
    starts from for paths i = lo..hi - 1, 32 bytes a path: state high and
    low, then inc high and low (`_pcg64_seeded`).

    An index takes one entropy word below 2**32 and two from there on, so
    the range is hashed in one pass per word count; indices from 2**64 on
    are refused. The first path of each pass is compared with NumPy's own
    SeedSequence and PCG64, and a mismatch raises RuntimeError."""
    if hi > 1 << 64:
        raise ValueError(f"path indices must be below 2**64, not {hi - 1}")
    seed_words = np.array(_words32(seed), dtype=np.uint64)[:, None]
    out = [np.empty((0, 4), dtype=np.uint64)]
    for n_words, a, b in ((1, lo, min(hi, 1 << 32)),
                          (2, max(lo, 1 << 32), hi)):
        if a >= b:
            continue
        idx = np.arange(a, b, dtype=np.uint64)
        shifts = np.arange(0, 32 * n_words, 32, dtype=np.uint64)[:, None]
        state = _pcg64_seeded(_seed_state(np.vstack(
            [np.repeat(seed_words, b - a, axis=1), idx >> shifts & _MASK32])))
        want = _numpy_words(seed, a)
        if state[0].tolist() != want:
            raise RuntimeError(
                f"the block seeding of path {a} disagrees with NumPy's "
                f"SeedSequence and PCG64 ({state[0]} != {want})")
        out.append(state)
    return np.concatenate(out)


# paths drawn and evaluated together by the path batteries (`pipeline._span`)
# and run_simulate (`blocks`); results do not depend on it, since every path keeps its own
# (seed, i) stream and is summed on its own
_BLOCK = 256
# paths seeded by one hashing pass (`blocks`): a whole number of blocks, few
# enough that the pass's temporaries stay a few MB
_SEED_PASS = 64 * _BLOCK


def blocks(seed: int, start: int, stop: int):
    """The streams of [start, stop) at seed in blocks of _BLOCK paths,
    with each block's first index. The seed states of up to _SEED_PASS
    paths come from one pass of `seed_states`, checked against NumPy's
    SeedSequence and PCG64 on the pass's first path; a block's streams are
    `Generators` of its slice of them, drawn from this thread's one
    reseated generator. Path i's is the stream of its SeedSequence((seed,
    i)) generator (rng_for at seed), to the bit."""
    for first in range(start, stop, _SEED_PASS):
        states = seed_states(seed, first, min(first + _SEED_PASS, stop))
        for lo in range(0, len(states), _BLOCK):
            yield first + lo, Generators(states[lo:lo + _BLOCK])


class PathSimulator:
    """Precomputes model quantities and generates reproducible paths.

    Path i uses the substream seeded by SeedSequence((seed, i)), so results
    do not depend on scheduling or chunking. rng_for builds NumPy's own
    generator of it for one path at the config's seed, and rngs those of a
    range; they are the references the block draw is checked against. The
    module's `seed_states` derives the PCG64 words of a whole range of
    paths at any seed at once, by a vectorised pass that reproduces
    SeedSequence's hash and PCG64's seeding step and is checked against
    NumPy's own on the first path of the pass; `Generators` draws the paths
    of any slice of them from one generator per thread, its state written
    in place before each path, and `blocks` walks a range in blocks of
    them. pool is the `BufferPool` that the jump batteries draw their
    blocks into.
    """

    def __init__(self, triplet: LevyTriplet, config: SimConfig):
        self.triplet = triplet
        self.config = config
        eps = config.eps_jump
        check_eps_jump(eps, triplet.h)
        self.tail = tail_law(triplet.F, ball_complement(eps, open_ends=False))
        self.jump_rate = self.tail.rate if self.tail else 0.0

        F = triplet.F
        self.small_var_rate = levy_integrate(
            F, lambda x: x * x,
            [Interval(-eps, eps, open_lo=True, open_hi=True)],
            g_quadratic_near_zero=True,
        )
        h = triplet.h
        comp = levy_integrate(F, h, ball_complement(eps, open_ends=False))
        self.drift_rate = triplet.b_h - comp

        self.times = np.linspace(-config.M, config.T, config.n_cells + 1)
        self.pool = BufferPool()

    def rng_for(self, path_index: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.config.seed, path_index))
        )

    def rngs(self, lo: int, hi: int) -> list:
        """NumPy's own generators of paths lo..hi - 1 (rng_for's), each a
        generator of its own."""
        return [self.rng_for(i) for i in range(lo, hi)]

    def draw(self, rngs, prehistory: Prehistory | None = None,
             pool: BufferPool | None = None,
             then: Arrivals | None = None) -> PathBlock:
        """One path per generator of rngs, a sized iterable that is
        iterated once: each path makes all its calls before iteration moves
        on, as `Generators`, which reseats one generator for every path,
        needs, and a generator's methods are bound once for the paths it
        draws. Each row takes the same calls of its own stream in the same
        order, so it does not depend on the block it is drawn in; simulate
        is the one-row case. The Gaussian cells take one
        standard_normal call: n normals z for the Brownian part and n more
        for the small-jump approximation, each when it has variance, so the
        cells are drift dt + sd_c z[:n] + sd_small z[n:], added in that
        order, as two normal(0, sd, n) calls gave them. Then come the
        explicit jumps' two calls (`Arrivals`), the jump count and then the
        times and mark uniforms together. A caller may pass arrivals of its
        own as then (for n_rows = len(rngs)), to come after the path's in
        its stream, and reads them from then.result(). On a `Generators`
        block below a mean of _MULTIPLICATION_BELOW they take no call: the
        jumps' random call draws 3 x_max + 1 more doubles (x_max =
        `_count_bound`), and then reads its counts and doubles from those
        tails (`_read_tails`). Otherwise (NumPy's own generators, a mean
        from _MULTIPLICATION_BELOW on, or no explicit jumps) then makes its
        two calls last. The uniforms are turned into marks by the tail
        quantile, once for the whole block, in their own buffer.

        With prehistory, a law from `prehistory`, the block holds the cells
        of [0, T] alone, on the nodes of the lattice of M = 0 to the bit,
        and the one normal call draws law.rank more normals after the
        cells' ones: the row's eta, kept on the block for
        `PathBlock.moving_average`. They are the normals a second
        standard_normal(rank) call would give, since NumPy's generator
        draws each normal from the bit stream alone and keeps nothing
        between calls. A law is refused with InvalidConfig when the
        simulator has explicit jumps, as `prehistory` refuses one.

        A draw without Gaussian cells or drift has no diffuse activity:
        its diffuse is a read-only view of one 0.0. With pool, the block's
        jump times and sizes are the pool's buffers (`Arrivals`), so the
        block is valid until this thread draws its next block into the
        pool, and the block keeps the pool for its carried states."""
        if prehistory is not None and self.tail is not None:
            raise InvalidConfig("the pre-history is Gaussian only without "
                                "explicit jumps")
        cfg = self.config
        times, n = ((self.times, cfg.n_cells) if prehistory is None
                    else (np.linspace(0.0, cfg.T, cfg.n_out), cfg.n_out - 1))
        dt = cfg.dt
        n_rows = len(rngs)
        sds = [math.sqrt(v * dt) for v in (self.triplet.c, self.small_var_rate)
               if v > 0.0]
        drift = self.drift_rate * dt
        if sds or drift:
            diffuse = np.full((n_rows, n), drift)
        else:
            diffuse = np.broadcast_to(drift, (n_rows, n))
        cells = len(sds) * n
        rank = 0 if prehistory is None else prehistory.rank
        z = np.empty((n_rows, cells + rank))
        # then read from the P rows' tails of reseated paths, or by its own calls
        reads = (isinstance(rngs, Generators) and then is not None
                 and self.tail is not None
                 and 0.0 < then.mean < _MULTIPLICATION_BELOW)
        jumps = None if self.tail is None else Arrivals(
            self.jump_rate * (cfg.T + cfg.M), -cfg.M, cfg.T, n_rows, pool,
            3 * _count_bound(then.mean) + 1 if reads else 0)
        arrivals = [a for a in (jumps, None if reads else then) if a is not None]
        bound = None
        # rngs first, so that an iteration of `Generators` runs to its end
        for rng, row in zip(rngs, z):
            if rng is not bound:
                # once a block for `Generators`, whose paths share one
                bound, normal, poisson, random = (rng, rng.standard_normal,
                                                  rng.poisson, rng.random)
            if cells + rank:
                normal(out=row)
            for a in arrivals:
                a.draw(poisson, random)
        if reads:
            _read_tails(rngs, jumps, then, cells + rank)
        for k, sd in enumerate(sds):
            zk = z[:, k * n:(k + 1) * n]
            zk *= sd
            diffuse += zk
        offsets = np.zeros(n_rows + 1, dtype=np.intp)
        jump_times = sizes = np.empty(0)
        if jumps is not None:
            counts, jump_times, u = jumps.result()
            offsets[1:] = np.cumsum(counts)
            sizes = self.tail.quantile(u, out=u)
        # a copy of eta, so that the block does not keep the whole buffer z
        eta = None if prehistory is None else np.ascontiguousarray(z[:, cells:])
        return PathBlock(times, dt, diffuse, jump_times, sizes, offsets, eta, pool)

    def prehistory(self, kernel: Kernel) -> Prehistory:
        """The law of what the m cells of [-M, 0] add to (X_k, Y_k),
        k = 0..n_out - 1: sum_{p=1..m} w_a[k + p] dL_{-p}, with w_X = phi
        and w_Y = phi' at lag p dt.

        Without explicit jumps the cells are independent normals of mean
        drift dt and variance s2 dt (Brownian plus small-jump variance), so
        the sum has mean drift dt sum_p w_a[k + p] and covariance
        G[(a, k), (b, l)] = s2 dt sum_p w_a[k + p] w_b[l + p]. The factor
        is G's partial pivoted Cholesky factor (Harbrecht, Peters and
        Schneider 2012), which reads only G's diagonal, by `_window_sums`
        in O(n_cells) like the mean, and one column per pivot, by
        np.correlate, and stops when the trace left is at most
        PREHISTORY_RTOL of the whole. Explicit jumps make the pre-history
        non-Gaussian, so they are refused with InvalidConfig.
        """
        if self.tail is not None:
            raise InvalidConfig("the pre-history is Gaussian only without "
                                "explicit jumps")
        cfg = self.config
        m, n_out, dt = cfg.m_cells, cfg.n_out, cfg.dt
        if not m:
            return Prehistory(np.zeros((2, n_out)), np.zeros((2, n_out, 0)))
        # w[a, j - 1] is the weight at lag j dt, j = 1..n_cells
        w = np.stack([_weight_table(fn, cfg.n_cells, dt)[1:]
                      for fn in (kernel, kernel.dphi)])
        mean = self.drift_rate * dt * _window_sums(w, m)
        scale = (self.triplet.c + self.small_var_rate) * dt
        resid = scale * _window_sums(w * w, m).reshape(-1)
        trace = resid.sum()
        cols = []
        while len(cols) < len(resid) and resid.sum() > PREHISTORY_RTOL * trace:
            i = int(np.argmax(resid))
            a, l = divmod(i, n_out)
            col = scale * np.concatenate(
                [np.correlate(wa, w[a, l:l + m], "valid") for wa in w])
            for c in cols:
                col -= c * c[i]
            col /= math.sqrt(resid[i])
            resid = np.maximum(resid - col * col, 0.0)
            cols.append(col)
        factor = np.stack(cols, axis=1) if cols else np.zeros((2 * n_out, 0))
        return Prehistory(mean, factor.reshape(2, n_out, -1))

    def simulate(self, rng: np.random.Generator) -> LatticePath:
        return self.draw([rng]).path(0)

    def simulate_index(self, path_index: int) -> LatticePath:
        return self.simulate(self.rng_for(path_index))


# ---------------------------------------------------------------------------
# moving averages
# ---------------------------------------------------------------------------


@dataclass
class MovingAveragePath:
    times: np.ndarray  # grid on [0, T]
    X: np.ndarray
    Y: np.ndarray
    X0: float
    truncation_bias_bound: float | None = None


def _weight_table(fn, n_lags: int, dt: float) -> np.ndarray:
    lags = np.arange(n_lags + 1) * dt
    w = np.asarray(fn(lags), dtype=float)
    if not np.all(np.isfinite(w)):
        raise KernelDomain("kernel not finite at required lags")
    return w


def moving_average(kernel: Kernel, path: LatticePath) -> MovingAveragePath:
    """X and Y = phi'-average on the output grid [0, T]: the one-row case of
    PathBlock.moving_average."""
    X, Y = PathBlock.of_path(path).moving_average(kernel)
    return MovingAveragePath(
        path.times[_zero_node(path.times, path.dt):], X[0], Y[0], float(X[0, 0]),
        truncation_bias_bound=kernel.truncation_bias_bound(-float(path.times[0])),
    )


def y_at(kernel: Kernel, path: LatticePath, t: float,
         diffuse: np.ndarray | None = None) -> float:
    """Predictable drift value Y_{t-}: diffuse cells with left node < t plus
    exact responses of jumps strictly before t."""
    return float(PathBlock.of_path(path, diffuse).response(
        kernel.dphi, [0], [t], strict=True)[0])


def extract_jump_measure(path: LatticePath, window: tuple[float, float]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Explicit jumps (T_n, Z_n) with T_n in (window[0], window[1]]."""
    lo, hi = window
    mask = (path.jump_times > lo) & (path.jump_times <= hi)
    return path.jump_times[mask], path.jump_sizes[mask]


def decomposition_residual(kernel: Kernel, path: LatticePath,
                           ma: MovingAveragePath) -> np.ndarray:
    """Per grid point: X_t - X_0 - phi(0) L_t - sum_{s<t} Y_s dt."""
    L = path.levy_values_from_zero()
    drift = np.concatenate([[0.0], np.cumsum(ma.Y[:-1]) * path.dt])
    return ma.X - ma.X0 - kernel.phi0 * L - drift


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_path_csv(fobj, path: LatticePath, ma: MovingAveragePath) -> None:
    writer = csv.writer(fobj)
    writer.writerow(["time", "L", "X", "Y"])
    L = path.levy_values_from_zero()
    for t, l, x, y in zip(ma.times, L, ma.X, ma.Y):
        writer.writerow([f"{t:.10g}", f"{l:.10g}", f"{x:.10g}", f"{y:.10g}"])


def write_jumps_csv(fobj, jump_records) -> None:
    """jump_records: iterable of (path_id, T_n, Z_n)."""
    writer = csv.writer(fobj)
    writer.writerow(["path_id", "jump_time", "jump_size"])
    for pid, t, z in jump_records:
        writer.writerow([pid, f"{t:.10g}", f"{z:.10g}"])
