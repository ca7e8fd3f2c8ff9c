"""Line map of src/: which executable lines the Tier-1 tests run.

    python tools/linecov.py

Runs the Tier-1 command (pytest over tests/ with src/ on PYTHONPATH)
with a stdlib line tracer in pytest and in every Python child process it
starts. The tracer reaches the children through a temporary directory,
first on PYTHONPATH, that holds a sitecustomize.py; the CLI tests' child
processes pass PYTHONPATH on. Each process writes one hit file when it
exits. A module's executable lines are the line numbers of its compiled
code objects, nested ones included.

Prints each unrun line as module.py:N: text and exits nonzero when the
tests fail, when a line outside REASONED is unrun, or when an entry of
REASONED matches no unrun line. The checkout is not written to: bytecode,
the pytest cache and the Hypothesis database are kept out of it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "v2xsustain"

# Unrun lines that stay, keyed by (module file name, stripped line text),
# each with a one-line reason. Keyed by text, not number, so an entry that
# no longer matches an unrun line fails the run instead of going stale.
REASONED: dict[tuple[str, str], str] = {}

SITECUSTOMIZE = '''\
import atexit, os, sys

_PREFIX, _OUT, _hits = {prefix!r}, {out!r}, {{}}


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    lines = _hits.setdefault(name, set())

    def _line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return _line

    return _line


def _write():
    sys.settrace(None)
    import json

    # a pid can come back within one run, so the name is made unique
    path = os.path.join(_OUT, f"{{os.getpid()}}-{{os.urandom(4).hex()}}.json")
    with open(path, "w") as f:
        json.dump({{k: sorted(v) for k, v in _hits.items()}}, f)


atexit.register(_write)
sys.settrace(_call)
'''


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in the module or any nested code;
    a module's first instruction sits on line 0, which is no source line."""
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    return {line for code in _code_objects(top) for _, _, line in code.co_lines() if line}


def run_traced_tests(out: Path, site: Path) -> int:
    """The Tier-1 command under the tracer; every process writes to out."""
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep, out=str(out)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(site), str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["HYPOTHESIS_STORAGE_DIRECTORY"] = str(out.parent / "hypothesis")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        out, site = Path(tmp, "hits"), Path(tmp, "site")
        out.mkdir()
        site.mkdir()
        status = run_traced_tests(out, site)
        hit_files = list(out.iterdir())
        hits: dict[str, set[int]] = {}
        for f in hit_files:
            for name, lines in json.loads(f.read_text()).items():
                hits.setdefault(name, set()).update(lines)

    unrun: dict[tuple[str, str], list[str]] = {}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        for n in sorted(lines - hits.get(str(path), set())):
            unrun.setdefault((path.name, text[n - 1].strip()), []).append(
                f"{path.name}:{n}: {text[n - 1].strip()}")

    print(f"\nlinecov: {total - sum(map(len, unrun.values()))} of {total} executable "
          f"lines of src/ run, {len(hit_files)} processes traced, "
          f"{time.perf_counter() - start:.1f} s")
    failed = status != 0
    if failed:
        print(f"linecov: the tests failed (pytest exit {status})")
    for key, where in unrun.items():
        reason = REASONED.get(key)
        for line in where:
            print(line if reason is None else f"{line}  [reasoned: {reason}]")
        failed |= reason is None
    for module, text in REASONED.keys() - unrun.keys():
        print(f"linecov: reasoned entry matches no unrun line: {module}: {text}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
