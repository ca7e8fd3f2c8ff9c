"""Per-layer tracing from outside the package.

The tracer replaces public functions at the module attribute their caller
looks them up through (``v2xsustain.sim.establish_session`` is the name
``run_simulation`` calls, not ``v2xsustain.keychain.establish_session``).
Each wrapper records a span (key, start, end, parent) and, for a few
targets, a count taken from the arguments or the result. Spans of one
operation stay in memory and are folded into per-layer figures after the
operation ends, outside its timed region.

Nothing is wrapped unless ``install`` is called, and ``uninstall`` puts
every original back, so untraced operations run the package untouched.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from time import perf_counter

# (module the caller looks the name up in, attribute, span key).
# The layer of a span is the part of its key before the dot.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("v2xsustain.cli", "main", "cli.main"),
    ("v2xsustain.cli", "load_config", "config.load"),
    ("v2xsustain.cli", "merge_config", "config.merge"),
    ("v2xsustain.cli", "build_bundle", "config.build"),
    ("v2xsustain.cli", "run_simulation", "sim.run"),
    ("v2xsustain.sim", "run_simulation", "sim.run"),
    ("v2xsustain.cli", "compare_to_model", "sim.compare"),
    ("v2xsustain.sim", "compare_to_model", "sim.compare"),
    ("v2xsustain.sim", "establish_session", "keychain.session"),
    ("v2xsustain.cli", "write_csv", "csvio.write"),
    ("v2xsustain.sim", "write_csv", "csvio.write"),
    ("v2xsustain.predict", "integrate", "specfun.integrate"),
    ("v2xsustain.sustain", "integrate", "specfun.integrate"),
    # predict imports expint_ei inside a function body, so it reaches the
    # specfun attribute at call time; sustain bound its own name at import.
    ("v2xsustain.specfun", "expint_ei", "specfun.ei"),
    ("v2xsustain.sustain", "expint_ei", "specfun.ei"),
    ("v2xsustain.cli", "failsafe_likelihood", "predict.failsafe"),
    ("v2xsustain.cli", "predicted_message_overhead", "predict.overhead"),
    ("v2xsustain.cli", "scale_param", "predict.scale"),
    ("v2xsustain.cli", "connectivity_prob", "predict.connectivity"),
    ("v2xsustain.cli", "sustainability_window", "sustain.window"),
    ("v2xsustain.sim", "sustainability_window", "sustain.window"),
    ("v2xsustain.predict", "sustainability_window", "sustain.window"),
    ("v2xsustain.cli", "decide", "decision.decide"),
)


def _count_sim_run(counts: Counter, args, kwargs, result) -> None:
    counts["sim.events"] += len(result.events)
    counts["sim.arrivals"] += result.arrivals_total
    counts["sim.key_updates"] += result.key_updates_total
    counts["sim.passes"] += result.passes_total
    counts["sim.slots"] += len(result.slots)


def _count_csv(counts: Counter, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    counts["csvio.rows"] += len(rows)
    counts["csvio.bytes"] += os.path.getsize(path)


def _count_integrate(counts: Counter, args, kwargs, result) -> None:
    counts["specfun.integrate_evals"] += result.evaluations


def _count_decision(counts: Counter, args, kwargs, result) -> None:
    counts[f"decision.{result.decision}"] += 1


POST = {
    "sim.run": _count_sim_run,
    "csvio.write": _count_csv,
    "specfun.integrate": _count_integrate,
    "decision.decide": _count_decision,
}


class Tracer:
    """Span recorder for one process; install around traced operations only."""

    def __init__(self):
        self.spans: list[list] = []  # [key, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.unreadable: set[str] = set()
        self._stack: list[int] = []
        self._active: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for mod_name, attr, key in TARGETS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            fn = getattr(mod, attr, None)
            if not callable(fn):
                # A later change removed this call site; its layer counts 0.
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(key, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, key: str, fn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        unreadable = self.unreadable
        post = POST.get(key)
        fn_id = id(fn)

        def traced(*args, **kwargs):
            if fn_id in active:
                # Re-entry into a function already on the stack (through a
                # second binding or recursion) belongs to the outer span.
                return fn(*args, **kwargs)
            index = len(spans)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            active.add(fn_id)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                active.discard(fn_id)
                stack.pop()
            counts[key + "_calls"] += 1
            if post is not None:
                try:
                    post(counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    # The call's signature or result changed shape; its
                    # extra counts read 0 and the run names the target.
                    unreadable.add(key)
            return result

        return traced

    def fold(self, op_wall: float, scale: float) -> dict[str, float]:
        """Per-layer figures of the operation just traced; clears its spans.

        Span times are multiplied by ``scale``, the operation's reference
        seconds per wall second, so that they add up to its ``wall_s``.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for key, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Counter = Counter(self.counts)
        covered = 0.0
        for i, (key, start, end, parent) in enumerate(spans):
            dur = end - start
            layer = key.split(".", 1)[0]
            out[key + "_s"] += dur * scale
            out[layer + ".self_s"] += (dur - child_time[i]) * scale
            if layer != "cli" and (parent < 0 or spans[parent][0].split(".", 1)[0] == "cli"):
                covered += dur
        out["trace.coverage"] = covered / op_wall
        self.spans.clear()
        self.counts.clear()
        return dict(out)
