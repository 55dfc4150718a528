"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is the import of treemotion, building the workload's fixture or
tree, and one warm-up call.  Prints the seconds it took.
"""

import sys
import time

t0 = time.perf_counter()

import workloads  # noqa: E402  (imports treemotion, numpy and scipy)

w = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
try:
    w.warm_up()
finally:
    w.close()
print(repr(time.perf_counter() - t0))
