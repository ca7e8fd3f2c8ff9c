"""Byte and memory check of the CLI on a 1e6-slot scenario.

    python tools/bigcheck.py

Runs `simulate` and then `failsafe` on the scenario of CONFIG, each in
its own child process (one at a time, with src/ on PYTHONPATH), and
prints each command's wall time and its peak resident memory as
`os.wait4` reports it. Exits 1 when any of the four CSVs differs from
its pinned SHA-256 in DIGESTS, or when either peak reaches PEAK_MIB,
the memory bound that every command keeps. Stdlib only; the outputs go
to a temporary directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIG = {"T_s": 1e6, "t2_s": 1e5, "tx_step_s": 1.0, "beta": 0.1, "alpha": 1e-6}
PEAK_MIB = 400
DIGESTS = {
    "run0_metrics.csv":
        "a0af8c7bbdc1e74d02fc474f86e3b1e9166bfc7a207d34ce47ea8fd82d748953",
    "run0_comparison.csv":
        "d6e73035ac079bff7d973faceecf3a57dbb53a22bad1c418f5eb30b81cbed149",
    "run0_events.csv":
        "d7e751031295ab65ac176f1d0953d9985b28da257052a4939c66bd09291b16b8",
    "failsafe.csv":
        "b0734c950561c049d2b590c8bfb37ee746adc54b5a5e9b181794826e041ad8c2",
}


def _run(argv: list[str], cwd: Path) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak MiB of the CLI run with argv."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "v2xsustain.cli", *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, time.perf_counter() - start, usage.ru_maxrss / 1024  # KiB on Linux


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
        # failsafe exits 1 when its final decision is not `continue`
        for argv, codes in ((["simulate", "config.json", "--out", "."], {0}),
                            (["failsafe", "config.json", "--out", "failsafe.csv"], {0, 1})):
            code, wall, peak = _run(argv, out)
            print(f"{argv[0]}: exit {code}, {wall:.2f} s, peak {peak:.0f} MiB")
            if code not in codes or peak >= PEAK_MIB:
                failed = True
        for name, pin in DIGESTS.items():
            path = out / name
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else "missing"
            print(f"{name}: {digest} {'ok' if digest == pin else 'differs from ' + pin}")
            failed |= digest != pin
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
