"""Time one set-up in a fresh interpreter: import nilclean, generate inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints the set-up time in seconds.  Only ``os``, ``sys`` and ``time``, which
the interpreter has loaded before any user code, are imported before the
clock starts.
"""

import os
import sys
import time

start = time.perf_counter()
here = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

import nilclean  # noqa: E402
import nilclean.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
