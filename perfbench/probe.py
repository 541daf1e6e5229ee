"""Set-up probe: import superell, build a workload's inputs, print the clock.

    python3 perfbench/probe.py <workload> <seed>

The last line of output is ``time.perf_counter()`` when the inputs are
ready.  The benchmark reads the clock before it starts this process; the
difference is the set-up time of a fresh interpreter (the monotonic clock
is shared by all processes of the machine).
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import superell  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter()))
