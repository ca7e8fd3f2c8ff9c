"""Check the summary line of a perfbench run.

    python perfbench/run.py --workload all --seconds 1 | tail -n 1 | python tools/smokecheck.py NAME

Reads the run's last line, a JSON summary, from stdin and exits nonzero,
with NAME in the message, unless it has "correct": true and "failed": 0.
"""

import json
import sys

name = sys.argv[1]
summary = json.load(sys.stdin)
if summary.get("correct") is not True or summary.get("failed") != 0:
    sys.exit(f"{name} failed: {summary}")
