"""Set-up probe: import the package and warm up as a benchmark run does, then say so.

Usage: python3 perfbench/probe.py WORKLOAD SCRATCH_DIR

Prints ``ready`` once set-up is done; ``run.py`` times a fresh process from
its start to that line to measure set-up.
"""

import sys
from pathlib import Path

import pin

pin.pin_and_locate()

import workloads  # noqa: E402  (after the BLAS pin)

pin.check_imported_from_source()
workloads.warm_up(workloads.WORKLOADS[sys.argv[1]], Path(sys.argv[2]))
print("ready", flush=True)
