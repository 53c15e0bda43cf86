"""One set-up as a CLI user pays it: start, import, build, print "ready".

    python3 perfbench/setup_probe.py <workload>

run.py times this process from start until the "ready" line arrives.
"""

import sys

import workloads as wl

wl.use_checkout_sources()

import agpolar.cli  # noqa: E402,F401  (imports every module, scipy included)

name = sys.argv[1]
wl.PIPELINES.get(name, wl.ANALYSIS_PIPELINE).build()
print("ready", flush=True)
