"""Time one cold set-up: import crnkit and its dependencies, parse the workload's networks.

    python3 bench/setup_probe.py SRC_DIR WORK_DIR

Prints the seconds taken.  ``run.py`` starts this in a fresh interpreter
several times per run and reports the median as ``setup_s``.
"""

import os
import sys
import time

start = time.perf_counter()
src, workdir = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
import crnkit  # noqa: E402

if not os.path.abspath(crnkit.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"crnkit was imported from {crnkit.__file__}, not from {src}")
for name in sorted(os.listdir(workdir)):
    if name.endswith(".crn"):
        with open(os.path.join(workdir, name), encoding="utf-8") as handle:
            crnkit.parse_network(handle.read())
print(time.perf_counter() - start)
