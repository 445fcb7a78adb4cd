"""In-memory span recorder and the layer wrappers of the traced run.

A span is one call into a layer: its name, start and end (perf_counter_ns),
the index of the span that was open when it started (-1 for none), the id
of the `run_verify` call it belongs to, and the counts taken from the
call's arguments or result. Spans stay in a list until the run ends.

The wrappers go onto levyemm's public callables only while a traced run
is in progress (`Tracer.installed`), and come off afterwards; the
package's source is not edited. A module-level function is replaced in
every levyemm module that bound it with `from ... import`, so calls made
through any of those names are recorded.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np
from scipy import fft as sp_fft

from levyemm import _backend, emm_construct, girsanov, kernel, levy_model, path_sim, verify

VERIFY_TESTS = (
    "mean_density_test",
    "q_martingale_test",
    "jump_intensity_test",
    "conditional_jump_law_test",
    "brownian_invariance_test",
)

ROOT_SPAN = "pipeline.run_verify"

# counts that describe a shape rather than an amount of work: the traced
# call reports their largest value instead of their sum
SHAPE_COUNTS = frozenset({"fft_len"})


def _points(at: int):
    """Counter of the values in positional argument `at` (after self)."""
    return lambda args, kwargs, out: {"points": int(np.size(args[at]))}


def _correlation_counts(args, kwargs, out):
    """Rows, lattice length and the computed cost of one FFT correlation.

    fftconvolve transforms each row of `inc` and the one weight row at the
    real-FFT length next_fast_len(2N), multiplies the spectra and inverts
    B rows. A real transform of length L is counted as 2.5 L log2 L flops;
    bytes are the array I/O the call cannot avoid (inc, weights, output).
    Both are computed from shapes, not read from hardware counters.
    """
    inc, w, n_out = args[0], args[1], args[2]
    rows, n = np.shape(inc)
    length = sp_fft.next_fast_len(2 * n, real=True)
    transform = 2.5 * length * np.log2(length)
    flops = (2 * rows + 1) * transform + 6.0 * rows * (length // 2 + 1)
    nbytes = 8 * (rows * n + (n + 1) + rows * int(n_out))
    return {"rows": rows, "fft_len": length, "computed_flops": float(flops),
            "computed_bytes": nbytes}


def _simulate_counts(tail_a, T):
    def count(args, kwargs, out):
        jt, jz = out.jump_times, out.jump_sizes
        tail = (jt > 0.0) & (jt <= T) & (np.abs(jz) > tail_a)
        return {"tail_jumps": int(np.count_nonzero(tail))}
    return count


def _q_counts(args, kwargs, out):
    return {"tail_jumps": int(out.n_tail_jumps)}


def layer_targets(tail_a: float, T: float):
    """(span name, owner, attribute, counter) for every wrapped callable."""
    return [
        ("path_sim.rng_for", path_sim.PathSimulator, "rng_for", None),
        ("path_sim.simulate", path_sim.PathSimulator, "simulate",
         _simulate_counts(tail_a, T)),
        ("path_sim.y_at", path_sim, "y_at", None),
        ("kernel.eval", kernel.Kernel, "__call__", _points(1)),
        ("kernel.eval", kernel.Kernel, "dphi", _points(1)),
        ("backend.ma_correlate", _backend, "ma_correlate", _correlation_counts),
        ("emm_construct.evaluate", emm_construct.GirsanovKernelH1, "evaluate",
         _points(2)),
        ("emm_construct.evaluate", emm_construct.GirsanovKernelH2, "evaluate",
         _points(2)),
        ("girsanov.simulate_under_q", girsanov, "simulate_under_q", _q_counts),
        ("levy_model.levy_integrate", levy_model, "levy_integrate", None),
    ] + [(f"verify.{t[:-len('_test')]}", verify, t, None) for t in VERIFY_TESTS]


class Tracer:
    """Records spans of the wrapped layers into an in-memory list."""

    def __init__(self):
        # each span: [name, start_ns, end_ns, parent, run_id, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = -1
        self.last_args: dict[str, tuple] = {}

    def wrap(self, name, fn, count=None, keep_args=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, out)
            if keep_args:
                self.last_args[name] = (args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, tail_a: float, T: float):
        """Wrap every layer for the length of the block, then restore."""
        undo = []
        try:
            for name, owner, attr, count in layer_targets(tail_a, T):
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original, count,
                                    keep_args=name.startswith("verify."))
                if isinstance(owner, type):
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").startswith("levyemm")
                            and mod.__dict__.get(attr) is original):
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def call(self, run_id: int, fn, *args, **kwargs):
        """Run fn under a root span that carries run_id."""
        self.run_id = run_id
        try:
            return self.wrap(ROOT_SPAN, fn)(*args, **kwargs)
        finally:
            self.run_id = -1

    def per_run(self) -> dict[int, dict[str, dict]]:
        """Per run id and span name: calls, self time (s) and summed counts.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the run is single-threaded.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, run, counts in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[int, dict[str, dict]] = defaultdict(dict)
        for i, (name, start, end, parent, run, counts) in enumerate(self.spans):
            layer = out[run].setdefault(name, defaultdict(float))
            layer["calls"] += 1
            layer["self_s"] += (end - start - child_ns[i]) * 1e-9
            for key, value in (counts or {}).items():
                if key in SHAPE_COUNTS:
                    layer[key] = max(layer[key], value)
                else:
                    layer[key] += value
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run, counts in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "run": run, "counts": counts}) + "\n")


def layer_medians(per_run: dict[int, dict[str, dict]]) -> tuple[dict, list[str]]:
    """Median over traced runs of each layer's self time; counts must agree.

    Returns the per-layer table and a list of count mismatches between
    runs (empty when every traced call did identical work).
    """
    runs = [per_run[r] for r in sorted(per_run) if r >= 0]
    names = sorted({n for run in runs for n in run})
    table, problems = {}, []
    for name in names:
        entries = [run.get(name, {}) for run in runs]
        keys = sorted({k for e in entries for k in e} - {"self_s"})
        row = {"self_s": statistics.median(e.get("self_s", 0.0) for e in entries)}
        for key in keys:
            values = {e.get(key, 0.0) for e in entries}
            if len(values) > 1:
                problems.append(f"{name}.{key} differs between traced calls: "
                                f"{sorted(values)}")
            row[key] = entries[0].get(key, 0.0)
        table[name] = row
    return table, problems
