"""Benchmark runner for v2xsustain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

One run sets up one workload, runs its operation back to back for S
seconds (after one untimed warm-up operation) and checks every
operation's outputs. With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it alternates untraced and traced
operations and prints the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it, starting with "meta ", records the machine, the
versions and the workload inputs. ``--workload all`` runs every workload
in its own process, one after another.

The package is imported from src/ of the checkout that holds this
directory; without it the runner exits with code 2 and prints no result.
Scratch outputs go to .bench_tmp/ in that checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import Tracer
from speed import SpeedClock

# The package calls no BLAS routine, yet numpy's import starts a BLAS
# thread pool, and on a 2-vCPU host that start alone swung set-up time
# between about 0.12 s and 0.21 s. Set before numpy is imported here or in
# a probe, which inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = workloads.ROOT
SETUP_PROBES = 5


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return list(values)
    return statistics.quantiles(values, n=4)


def _timed_op(w) -> tuple[SpeedClock, object]:
    gc.collect()
    with SpeedClock() as clock:
        result = w.op()
    return clock, result


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, w, tracer: Tracer | None = None):
        """One checked operation; (clock, items, layer figures) or None if it failed."""
        self.attempted += 1
        layers = None
        try:
            if tracer is None:
                clock, result = _timed_op(w)
            else:
                tracer.install()
                try:
                    clock, result = _timed_op(w)
                finally:
                    tracer.uninstall()
                layers = tracer.fold(clock.gross, clock.ref / clock.gross)
            items, problems = w.check(result)
            del result
        except Exception as e:  # an operation that raises counts as failed
            problems = [f"{type(e).__name__}: {e}"]
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"op {self.attempted}: {'; '.join(problems)}")
            return None
        return clock, items, layers


def measure(w, seconds: float, tally: Tally) -> dict | None:
    tally.run(w)  # warm-up: checked, not timed
    refs, rates, walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not refs or time.perf_counter() < deadline:
        done = tally.run(w)
        if done is None:
            if time.perf_counter() >= deadline:
                break
            continue
        clock, items, _ = done
        refs.append(clock.ref)
        rates.append(items / clock.ref)
        walls.append(clock.wall)
    if not refs:
        return None
    return {
        "wall_s": _median(refs),
        "items_per_s": _median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_ops": len(refs),
        "_raw": {"wall_s_quartiles": _quartiles(walls),
                 "wall_s_ref_quartiles": _quartiles(refs)},
    }


def measure_traced(w, seconds: float, tally: Tally, names: list[str]) -> dict | None:
    """Alternate untraced and traced operations; median per-layer figures."""
    tracer = Tracer()
    tally.run(w)  # warm-up
    plain: list[float] = []
    traced: list[float] = []
    figures: list[dict] = []
    deadline = time.perf_counter() + seconds
    turn = 0
    while not plain or not traced or time.perf_counter() < deadline:
        with_trace = turn % 2 == 1
        turn += 1
        done = tally.run(w, tracer if with_trace else None)
        if done is None:
            if time.perf_counter() >= deadline:
                break
            continue
        clock, _, layers = done
        if with_trace:
            traced.append(clock.ref)
            figures.append(layers)
        else:
            plain.append(clock.ref)
    if not plain or not traced:
        return None
    out = {name: _median([f.get(name, 0.0) for f in figures]) for name in names}
    out["trace.overhead_frac"] = _median(traced) / _median(plain) - 1.0
    out["_ops"] = len(traced)
    out["_raw"] = {"trace_missing": tracer.missing + sorted(tracer.unreadable)}
    return out


def setup_seconds(name: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, in reference and in raw seconds."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), str(workdir)]
    refs, walls = [], []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i > 0:  # the first probe only warms the file cache
            times = json.loads(proc.stdout)
            refs.append(times["ref"])
            walls.append(times["wall"])
    return refs, walls


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _line_count(directory: Path) -> int:
    return sum(
        len(p.read_bytes().splitlines()) for p in sorted(directory.rglob("*.py"))
    )


def metadata(w, args) -> dict:
    import numpy
    import v2xsustain

    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": w.inputs(),
        "item": w.item,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "v2xsustain": v2xsustain.__version__,
        "src_lines": _line_count(ROOT / "src"),
        "tests_lines": _line_count(ROOT / "tests") if (ROOT / "tests").is_dir() else 0,
    }


def run_one(args) -> int:
    if not workloads.package_present():
        print(f"error: no package at {workloads.SRC / 'v2xsustain'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        w.prepare()
        w.setup()
        if args.trace:
            names = [m["name"] for m in section]
            values = measure_traced(w, args.seconds, tally, names)
        else:
            setup_refs, setup_walls = setup_seconds(args.workload, args.seed, workdir)
            values = measure(w, args.seconds, tally)
            if values is not None:
                values["setup_s"] = _median(setup_refs)
                values["_raw"]["setup_s_ref_samples"] = setup_refs
                values["_raw"]["setup_s_raw_samples"] = setup_walls
        meta = metadata(w, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if values is None:
        for message in tally.messages:
            print(f"failed: {message}", file=sys.stderr)
        print("error: no operation completed its checks", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in section
    }
    meta["timed_ops"] = values["_ops"]
    meta.update(values["_raw"])
    meta["error_rate"] = tally.failed / tally.attempted
    meta["failures"] = tally.messages
    for name, m in metrics.items():
        print(f"{args.workload:>15} {name:<26} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:>15} {'error_rate':<26} {meta['error_rate']:.6g} fraction "
          f"({tally.failed}/{tally.attempted} operations failed)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; metrics keyed workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
