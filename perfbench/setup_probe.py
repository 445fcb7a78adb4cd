"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/setup_probe.py <levyemm source dir> <builtin scenario>

Imports levyemm and builds the scenario, triplet, kernel, PathSimulator and
(for h1/h2 scenarios) the Girsanov kernel. Prints the seconds that took,
interpreter start-up not counted, and then the host factor of the
per-path reference (hostspeed.py) timed right afterwards in this process,
on its second call.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

from levyemm import pipeline  # noqa: E402
from levyemm.path_sim import PathSimulator  # noqa: E402

scn = pipeline.builtin_scenario(sys.argv[2])
triplet = pipeline.build_triplet(scn.triplet)
pipeline.build_kernel(scn.kernel)
PathSimulator(triplet, pipeline.build_sim_config(scn.sim))
if scn.emm["hypothesis"] in ("h1", "h2"):
    pipeline.make_girsanov_kernel(scn, triplet)
seconds = time.perf_counter() - t0

import hostspeed  # noqa: E402

hostspeed.factor("per_path")  # the first call pays one-time costs
print(seconds, hostspeed.factor("per_path"))
