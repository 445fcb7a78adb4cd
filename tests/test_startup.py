"""Which SciPy subpackages and which multiprocessing a run loads.

levyemm reaches SciPy through `import scipy` and `scipy.<subpackage>.<name>`
at the call site, so a subpackage loads where a run first calls it. Each
case runs in a fresh interpreter and reads `sys.modules`; nothing is timed.

h1-two-atom is not among the verify cases: its drift fills the diffuse
cells, whose carried states `scipy.signal.lfilter` computes, and
scipy.signal in turn loads scipy.stats and scipy.integrate.
"""

import os
import subprocess
import sys

import pytest

import levyemm
from levyemm import pipeline

SRC = os.path.dirname(os.path.dirname(os.path.abspath(levyemm.__file__)))
WATCHED = ("scipy.integrate", "scipy.signal", "scipy.stats", "scipy.special",
           "multiprocessing")


def _loaded(code: str) -> set:
    """The WATCHED modules in sys.modules after code runs in a fresh
    interpreter."""
    probe = f"{code}\nimport sys\nprint(*(m for m in {WATCHED!r} if m in sys.modules))"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return set(out.stdout.split())


def test_loading_every_battery_model_loads_none():
    names = [n for n in pipeline.builtin_names()
             if pipeline.builtin_scenario(n).emm["hypothesis"] != "none"]
    code = ("import levyemm\nfrom levyemm import pipeline\n"
            f"for n in {names!r}:\n"
            "    pipeline.model_from_dict(pipeline.builtin_scenario(n).to_dict())")
    assert _loaded(code) == set()


@pytest.mark.parametrize("run", [
    "run_verify(pipeline.builtin_scenario('h2-two-atom'), n_paths=200)",
    "run_verify(pipeline.builtin_scenario('q-two-atom-zeta05'), n_paths=200)",
    "run_construct(pipeline.builtin_scenario('h2-two-atom'))",
])
def test_run_loads_no_signal_integrate_or_stats(run):
    loaded = _loaded(f"from levyemm import pipeline\npipeline.{run}")
    assert not loaded & {"scipy.signal", "scipy.integrate", "scipy.stats",
                         "multiprocessing"}
