"""The ``superell`` CLI with the benchmark's tracer installed.

    python3 perfbench/cli_child.py <trace.json> <superell CLI arguments>

Runs ``superell.cli.main`` on the arguments, as the ``superell`` command
does, and writes the spans, the counters, and the clock once the package is
imported and when ``main`` returns to ``<trace.json>``.  The exit code is
main's.
"""

import json
import sys
import time

import superell.cli

t_ready = time.perf_counter()
from spans import Tracer  # noqa: E402

tracer = Tracer().install()
code = superell.cli.main(sys.argv[2:])
t_end = time.perf_counter()
sys.stdout.flush()
with open(sys.argv[1], "w") as fh:
    json.dump(dict(tracer.dump(), t_ready=t_ready, t_end=t_end), fh)
sys.exit(code)
