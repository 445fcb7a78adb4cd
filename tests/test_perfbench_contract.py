"""The benchmark under perfbench/ reaches into the package by name: its
traced run wraps the callables `spans.layer_targets` lists, and `micro.run`
times single layers through their public functions. A refactor that
renames or removes one of them breaks `perfbench/run.py --trace 1`, and
every run's manifest names the correlation backend through
`_backend.backend_name` and `available_backends`, and `setup_probe.py`
builds a workload's pieces from what `pipeline.builtin_scenario` returns,
so these checks run with the unit tests."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import micro
    import spans
    return spans, micro


def test_every_layer_target_resolves(perfbench):
    spans, _ = perfbench
    targets = spans.layer_targets(1.0, 1.0)
    assert targets
    for name, owner, attr, _ in targets:
        assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"


def test_micro_run_completes(perfbench):
    _, micro = perfbench
    out = micro.run({})
    assert out
    for name, value in out.items():
        assert math.isfinite(value) and value >= 0.0, name


def test_run_manifest_names_the_backend(perfbench):
    import run
    doc = run.manifest("gaussian-corr", "gaussian-baseline", 3117, 512)
    assert doc["backend_name"] == "numpy"
    assert doc["available_backends"] == ["numpy"]


def test_setup_probe_prints_two_positive_floats():
    root = PERFBENCH.parent
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(root / "src"),
         "h2-two-atom"], cwd=root, capture_output=True, text=True, check=True)
    values = [float(v) for v in out.stdout.split()]
    assert len(values) == 2
    assert all(math.isfinite(v) and v > 0.0 for v in values), values


def test_direct_q_benchmark_run_is_correct():
    """A one-second direct-q run: every call matches the expected verdicts
    and repeats to the bit, so a pooled buffer that leaked from one call
    into the next would count as a failed operation."""
    root = PERFBENCH.parent
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "direct-q",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True, timeout=600)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
