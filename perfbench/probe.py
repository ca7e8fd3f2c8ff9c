"""Set up one workload in a fresh process and print how long it took.

run.py starts this script several times per run; the median of the
reference seconds it prints is ``setup_s``. Set-up covers importing the
package and numpy, resolving the config and building the scenario.

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import json
import sys
from pathlib import Path

import workloads
from speed import SpeedClock

sys.path.insert(0, str(workloads.SRC))
name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
w = workloads.WORKLOADS[name](seed, workdir)
with SpeedClock() as clock:
    w.setup()
print(json.dumps({"wall": clock.wall, "ref": clock.ref}), flush=True)
