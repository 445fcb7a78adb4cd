"""Which SciPy subpackages and which multiprocessing a run loads.

levyemm reaches SciPy through `import scipy` and `scipy.<subpackage>.<name>`
at the call site, so a subpackage loads where a run first calls it. Each
case runs in a fresh interpreter and reads `sys.modules`; nothing is timed.
No run loads scipy.signal, which would bring scipy.stats and
scipy.integrate with it.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import levyemm
from levyemm import pipeline

SRC = os.path.dirname(os.path.dirname(os.path.abspath(levyemm.__file__)))
WATCHED = ("scipy.fft", "scipy.integrate", "scipy.signal", "scipy.stats",
           "scipy.special", "multiprocessing")
BATTERIES = [n for n in pipeline.builtin_names()
             if pipeline.builtin_scenario(n).emm["hypothesis"] != "none"]


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
    code = ("import levyemm\nfrom levyemm import pipeline\n"
            f"for n in {BATTERIES!r}:\n"
            "    pipeline.model_from_dict(pipeline.builtin_scenario(n).to_dict())")
    assert _loaded(code) == set()


# a power kernel has no exponential form, so its moving average takes the FFT
_POWER = ("d = pipeline.builtin_scenario('gaussian-baseline').to_dict()\n"
          "d['kernel'] = {'type': 'power', 'gamma': 1.5}\n"
          "model = pipeline.model_from_dict(d)\n")


@pytest.mark.parametrize("run,allowed", [
    *((f"pipeline.run_verify(pipeline.builtin_scenario({n!r}), n_paths=200)",
       {"scipy.special"}) for n in BATTERIES),
    ("pipeline.run_construct(pipeline.builtin_scenario('h2-two-atom'))",
     {"scipy.special"}),
    *((f"pipeline.run_simulate(pipeline.builtin_scenario({n!r}), "
       "out, n_paths=4)", {"scipy.special"})
      for n in ("h1-two-atom", "gaussian-baseline")),
    (_POWER + "pipeline.run_simulate(model, out, n_paths=4)",
     {"scipy.special", "scipy.fft"}),
], ids=[*(f"verify-{n}" for n in BATTERIES), "construct-h2-two-atom",
        "simulate-h1-two-atom", "simulate-gaussian-baseline", "simulate-gaussian-power"])
def test_run_loads_no_signal_integrate_or_stats(run, allowed):
    # simulate writes its files under out, removed with it
    loaded = _loaded("import tempfile\nfrom levyemm import pipeline\n"
                     "with tempfile.TemporaryDirectory() as out:\n"
                     + textwrap.indent(run, "    "))
    assert loaded <= allowed
