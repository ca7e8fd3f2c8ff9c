"""Alternating A/B runs of one perfbench workload: a git ref against the
working tree.

    python tools/abpairs.py REF WORKLOAD [--pairs 10] [--seconds 4] [--seed 1234]

Exports REF with `git archive` into a temporary directory, then runs
`perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0`
in that tree and in the working tree, one child process at a time, a pair
per round, with the side that goes first swapped every round. Each side
runs its own perfbench/. Prints one JSON object: each pair's end-to-end
metrics and operation counts, the median and inclusive quartiles of each
metric on each side, and for each metric the number of pairs the working
tree won, by the `better` direction in BENCHMARK.json (a tie wins for
neither side). Exits 1 when a run prints no result. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _export(ref: str, dest: Path) -> str:
    """Write the files of ref to dest; returns its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        sys.exit(f"git archive {ref} failed")
    return commit


def _run(tree: Path, args) -> dict:
    """The result object of one perfbench run in tree, with its meta line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        sys.exit(f"perfbench in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    meta = [line for line in lines if line.startswith("meta ")]
    result["meta"] = json.loads(meta[-1][5:]) if meta else {}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git ref to compare the working tree against")
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1234)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    pairs = []
    with tempfile.TemporaryDirectory(prefix="abpairs-") as tmp:
        commit = _export(args.ref, Path(tmp))
        for k in range(args.pairs):
            order = ["ref", "tree"] if k % 2 == 0 else ["tree", "ref"]
            results = {side: _run(Path(tmp) if side == "ref" else ROOT, args) for side in order}
            pairs.append({"first": order[0], **{
                side: {"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"],
                       **{name: m["value"] for name, m in r["metrics"].items()}}
                for side, r in results.items()
            }})
            print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr)
    meta = results["tree"]["meta"]

    def won(name: str, pair: dict) -> bool:
        ref, tree = pair["ref"][name], pair["tree"][name]
        return tree < ref if better[name] == "lower" else tree > ref

    print(json.dumps({
        "ref": args.ref, "ref_commit": commit, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds,
        "machine": {key: meta.get(key) for key in ("cpu_model", "nproc", "python", "numpy")},
        "pairs": pairs,
        "median": {side: {name: statistics.median(p[side][name] for p in pairs)
                          for name in better} for side in ("ref", "tree")},
        "quartiles": {side: {name: statistics.quantiles([p[side][name] for p in pairs], n=4,
                                                        method="inclusive")
                             for name in better} for side in ("ref", "tree")},
        "tree_won": {name: sum(won(name, p) for p in pairs) for name in better},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("ref", "tree")},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
