"""Benchmark of levyemm's Monte Carlo verification: throughput, set-up time
and memory on three workloads, and a separately traced per-layer run.

    python3 perfbench/run.py --workload weighted-h2 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record

The package is imported from the `src/` directory next to this one; the
benchmark stops with an error when it is not there. Each workload calls
`pipeline.run_verify` in this process with workers=1 at a fixed number of
paths per call. The workload seed defaults to the scenario's pinned seed.

`--trace 0` prints the end-to-end metrics: paths/s (median over the calls
made in `--seconds`), set-up time (median of SETUP_REPEATS fresh
interpreters), both corrected for host speed as hostspeed.py explains, and
the process's peak resident memory. `--trace 1` prints the per-layer
metrics: it times untraced calls for half of `--seconds`, traced calls for
the other half, then the microbenchmarks in micro.py.

Every run first calls `run_verify` once at the pinned seed and size and
compares the verdicts with expected.json (the correctness gate, which also
warms caches); calls at the workload seed are checked by gate.defects and
must repeat to the bit. A call that raises or fails a check is a failed
operation. `--record` rewrites expected.json from the current code.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full result, with the run
manifest and every report's estimate and standard error, goes to
.bench_out/, and the latest traced run's spans to a .jsonl file beside it.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from gate import against_expected, defects, fail_verdicts, nonfinite_fields, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"

# workload -> (builtin scenario, paths per run_verify call, host reference
# with the mix of its dominant layer; see hostspeed.py)
WORKLOADS = {
    "weighted-h2": ("h2-two-atom", 1000, "per_path"),
    "gaussian-corr": ("gaussian-baseline", 512, "fft"),
    "direct-q": ("q-two-atom-zeta05", 1000, "per_path"),
}
SETUP_REPEATS = 5
MIN_CALLS = 3
MIN_TRACE_CALLS = 2

END_TO_END = [
    ("paths_per_s", "paths/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_TIMED = {"calls": "count", "self_s": "s"}
LAYERS = {
    "path_sim.rng_for": {**_TIMED, "us_per_call": "us"},
    "path_sim.simulate": {**_TIMED, "us_per_call": "us", "tail_jumps": "count"},
    "path_sim.y_at": {**_TIMED, "us_per_call": "us"},
    "kernel.eval": {**_TIMED, "us_per_call": "us", "points": "count"},
    "backend.ma_correlate": {**_TIMED, "ms_per_call": "ms", "rows": "count",
                              "fft_len": "count", "computed_flops": "flop",
                              "computed_bytes": "B"},
    "emm_construct.evaluate": {**_TIMED, "us_per_call": "us", "points": "count"},
    "girsanov.simulate_under_q": {**_TIMED, "us_per_call": "us",
                                  "tail_jumps": "count"},
    "levy_model.levy_integrate": {**_TIMED, "us_per_call": "us"},
    "verify.mean_density": {"self_s": "s"},
    "verify.q_martingale": {"self_s": "s"},
    "verify.jump_intensity": {"self_s": "s"},
    "verify.conditional_jump_law": {"self_s": "s"},
    "verify.brownian_invariance": {"self_s": "s"},
}
MICRO = {
    "backend.ma_correlate.ms_per_block": "ms",
    "backend.ma_correlate.us_per_call_1x244x5": "us",
    "path_sim.rng_for.us_per_path": "us",
    "path_sim.simulate.us_per_path_244": "us",
    "path_sim.simulate.us_per_path_5376": "us",
    "emm_construct.evaluate.us_per_jump": "us",
    "path_sim.y_at.us_per_jump": "us",
    **{f"verify.{t}.ms_per_call": "ms" for t in (
        "mean_density", "q_martingale", "jump_intensity",
        "conditional_jump_law", "brownian_invariance")},
}
RUN = {
    "pipeline.self_s": "s",
    "run.untraced_paths_per_s": "paths/s",
    "run.traced_paths_per_s": "paths/s",
    "run.tracing_overhead_paths_per_s": "paths/s",
    "run.host_factor": "ratio",
    "verify.nonfinite_fields": "count",
    "verify.fail_verdicts": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{field}": unit
             for layer, fields in LAYERS.items() for field, unit in fields.items()}
    return {**units, **RUN, **MICRO}


def import_levyemm() -> None:
    """Import levyemm from SRC, or exit with an error and no result."""
    if not (SRC / "levyemm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no levyemm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import levyemm

    if Path(levyemm.__file__).resolve().parent != SRC / "levyemm":
        sys.exit(f"perfbench: imported levyemm from {levyemm.__file__}, not {SRC}")


def manifest(workload: str, scenario: str, seed: int, n_paths: int) -> dict:
    import numpy
    import scipy

    import levyemm
    from levyemm import _backend

    try:
        importlib.import_module("levyemm._backend._ma_ext")
        ext = True
    except ImportError:
        ext = False
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "scenario": scenario, "seed": seed,
        "n_paths": n_paths, "workers": 1,
        "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "levyemm": levyemm.__version__,
        "ma_ext_imports": ext,
        "available_backends": _backend.available_backends(),
        "backend_name": _backend.backend_name(),
    }


class Ledger:
    """Counts run_verify calls attempted and failed, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, fn, *args, **kwargs):
        """(result or None if it raised, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.check([traceback.format_exc(limit=4)])
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def check(self, problems: list[str]) -> None:
        """Count one failed operation if it has problems; keep each distinct
        problem once."""
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems if p not in self.problems)


def timed(ledger: Ledger, ref: str, seconds: float, min_calls: int, fn,
          *args, **kwargs):
    """Call fn until `seconds` have passed and at least min_calls were made.

    The host reference `ref` runs before the first call and after each. For
    each call that did not raise, returns its wall time, the host factor
    around it (mean of the two neighbouring references) and its document.
    """
    times, factors, docs = [], [], []
    deadline = time.perf_counter() + seconds
    hostspeed.factor(ref)  # the first call pays one-time costs
    before = hostspeed.factor(ref)
    made = 0
    while made < min_calls or time.perf_counter() < deadline:
        doc, dt = ledger.call(fn, *args, **kwargs)
        after = hostspeed.factor(ref)
        made += 1
        if doc is not None:
            times.append(dt)
            factors.append((before + after) / 2)
            docs.append(doc)
        before = after
    return times, factors, docs


def paths_per_s(n: int, times: list[float], factors: list[float]) -> float:
    """Median over calls of n / (wall time / host factor)."""
    return statistics.median(n * f / t for t, f in zip(times, factors)) if times else 0.0


def check_repeats(ledger: Ledger, docs: list[dict]) -> None:
    """Each document must equal the first, which must pass the defect
    bounds; every document that does not is a failed operation."""
    if not docs:
        return
    first_problems = defects(docs[0])
    first = json.dumps(docs[0], sort_keys=True)
    for doc in docs:
        ledger.check(first_problems if json.dumps(doc, sort_keys=True) == first else
                     ["run_verify gave a different document on a repeated call"])


def setup_times(scenario: str) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters, and the host
    factor each measured right after its set-up."""
    samples, factors = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), scenario],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds, factor = map(float, proc.stdout.split())
        samples.append(seconds)
        factors.append(factor)
    return samples, factors


def end_to_end(ledger, pipeline, scn, n, ref, seed, seconds) -> tuple[dict, dict]:
    setup, setup_factors = setup_times(scn.name)
    times, factors, docs = timed(ledger, ref, seconds, MIN_CALLS, pipeline.run_verify,
                                 scn, n_paths=n, seed=seed, workers=1)
    check_repeats(ledger, docs)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "paths_per_s": paths_per_s(n, times, factors),
        "setup_s": statistics.median(s / f for s, f in zip(setup, setup_factors)),
        "peak_rss_mb": peak,
    }
    return metrics, {"call_seconds": times, "call_host_factors": factors,
                     "setup_seconds": setup, "setup_host_factors": setup_factors,
                     "doc": docs[0] if docs else None}


def per_layer(ledger, pipeline, scn, n, ref, seed, seconds, spans_path
              ) -> tuple[dict, dict]:
    import micro
    from spans import ROOT_SPAN, Tracer, layer_medians

    plain, plain_factors, docs = timed(
        ledger, ref, seconds / 2, MIN_TRACE_CALLS, pipeline.run_verify,
        scn, n_paths=n, seed=seed, workers=1)
    tracer = Tracer()
    runs = itertools.count()
    with tracer.installed(float(scn.emm.get("a", 0.0)), float(scn.sim["T"])):
        traced, traced_factors, traced_docs = timed(
            ledger, ref, seconds / 2, MIN_TRACE_CALLS,
            lambda: tracer.call(next(runs), pipeline.run_verify, scn,
                                n_paths=n, seed=seed, workers=1))
    check_repeats(ledger, docs + traced_docs)
    table, problems = layer_medians(tracer.per_run())
    ledger.check(problems)
    tracer.write(spans_path)

    metrics = {}
    for layer, fields in LAYERS.items():
        row = table.get(layer, {})
        calls = row.get("calls", 0.0)
        for field in fields:
            if field.startswith(("us_per", "ms_per")):
                scale = 1e6 if field.startswith("us") else 1e3
                value = scale * row.get("self_s", 0.0) / calls if calls else 0.0
            else:
                value = row.get(field, 0.0)
            metrics[f"{layer}.{field}"] = value
    untraced = paths_per_s(n, plain, plain_factors)
    with_spans = paths_per_s(n, traced, traced_factors)
    doc = (docs + traced_docs or [None])[0]
    metrics.update({
        "pipeline.self_s": table.get(ROOT_SPAN, {}).get("self_s", 0.0),
        "run.untraced_paths_per_s": untraced,
        "run.traced_paths_per_s": with_spans,
        "run.tracing_overhead_paths_per_s": untraced - with_spans,
        "run.host_factor": statistics.median(plain_factors + traced_factors or [0.0]),
        "verify.nonfinite_fields": nonfinite_fields(doc) if doc else 0,
        "verify.fail_verdicts": fail_verdicts(doc) if doc else 0,
    })
    metrics.update(micro.run(tracer.last_args))
    return metrics, {"call_seconds": plain, "call_host_factors": plain_factors,
                     "traced_call_seconds": traced,
                     "traced_call_host_factors": traced_factors,
                     "layers": table, "doc": doc}


def record(pipeline) -> None:
    expected = {}
    for workload, (scenario, n, _) in WORKLOADS.items():
        doc = pipeline.run_verify(pipeline.builtin_scenario(scenario),
                                  n_paths=n, workers=1)
        expected[workload] = {"scenario": scenario, **summary(doc)}
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
    print(f"wrote {EXPECTED}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the scenario's pinned seed)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json at the pinned seeds and exit")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    import_levyemm()
    from levyemm import pipeline

    if args.record:
        record(pipeline)
        return 0

    scenario, n, ref = WORKLOADS[args.workload]
    scn = pipeline.builtin_scenario(scenario)
    pinned = int(scn.sim["seed"])
    seed = pinned if args.seed is None else args.seed
    expected = json.loads(EXPECTED.read_text())[args.workload]
    info = manifest(args.workload, scenario, seed, n)
    print("manifest " + json.dumps(info), flush=True)

    ledger = Ledger()
    gate_doc, gate_s = ledger.call(pipeline.run_verify, scn, n_paths=n,
                                   seed=pinned, workers=1)
    if gate_doc is not None:
        ledger.check(against_expected(gate_doc, expected) + defects(gate_doc))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{seed}_trace{args.trace}"
    if args.trace:
        # one spans file per workload, the latest traced run's, so that runs
        # at many seeds do not pile up tens of megabytes each
        metrics, detail = per_layer(ledger, pipeline, scn, n, ref, seed,
                                    args.seconds, OUT / f"{args.workload}_spans.jsonl")
        units = per_layer_units()
    else:
        metrics, detail = end_to_end(ledger, pipeline, scn, n, ref, seed,
                                     args.seconds)
        units = dict(END_TO_END)

    doc = detail.pop("doc")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    full = {
        "manifest": info, "result": result, "problems": ledger.problems,
        "gate": {"expected": expected, "seconds": gate_s,
                 "got": summary(gate_doc) if gate_doc else None},
        "at_seed": summary(doc) if doc else None,
        **detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=1, default=float))

    for report in (full["at_seed"] or {}).get("reports", []):
        print(f"report {report['name']}: {report['verdict']} "
              f"estimate={report['estimate']} stderr={report['stderr']}")
    for problem in ledger.problems:
        print("problem " + problem.rstrip().replace("\n", "\n  "))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
