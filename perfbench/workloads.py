"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed (``prepare``),
imports the package and builds its scenario (``setup``, the part timed as
``setup_s``), runs one operation through a public entry point (``op``, the
timed part) and checks that operation's outputs (``check``, untimed). The
checks use invariants that a correct rewrite keeps even when it changes
the order of random draws.

The package is imported inside ``setup`` so that a fresh process pays the
import there, as a user of the command line does.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

KINDS = ("arrival", "auth_pass", "key_update", "departure")


def package_present() -> bool:
    return (SRC / "v2xsustain" / "__init__.py").is_file()


def _write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")


def _run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _take_rows(path: Path) -> list[list[str]]:
    """Data rows of an output CSV, which is then removed so that an
    operation that fails to write cannot pass on its predecessor's file."""
    try:
        return _csv_rows(path)
    finally:
        path.unlink(missing_ok=True)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _print_resolution(x: float) -> float:
    """Largest rounding error of x printed with 9 significant digits."""
    if x == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


class SimulateHeavy:
    """``v2xsustain simulate`` at beta=20, alpha=10: about 415k events."""

    name = "simulate_heavy"
    item = "events"
    # Defaults the overrides leave alone.
    T_S = 110.0
    SLOTS = 22  # T_s / tx_step_s
    Q = 1
    E0 = 10

    def __init__(self, seed: int, workdir: Path):
        self.overrides = {"beta": 20.0, "alpha": 10.0, "seed": seed}
        self.config = workdir / "simulate_heavy.json"
        self.out = workdir / "simulate_heavy"
        self.reference: tuple[tuple[str, ...], int] | None = None

    def inputs(self) -> dict:
        return dict(self.overrides)

    def prepare(self) -> None:
        _write_json(self.config, self.overrides)

    def setup(self) -> None:
        from v2xsustain import cli, config

        config.build_bundle(config.load_config(self.config))
        self.cli = cli

    def op(self):
        return _run_cli(self.cli, ["simulate", str(self.config), "--out", str(self.out)])

    def check(self, result) -> tuple[int, list[str]]:
        paths = [self.out / f"run0_{part}.csv" for part in ("events", "metrics", "comparison")]
        try:
            return self._check(result, paths)
        finally:
            for path in paths:
                path.unlink(missing_ok=True)

    def _check(self, result, paths: list[Path]) -> tuple[int, list[str]]:
        code, stdout, _ = result
        if code != 0:
            return 0, [f"exit code {code}, expected 0"]
        digests = tuple(_digest(p) for p in paths)
        if self.reference is not None:
            ref_digests, n_events = self.reference
            if digests != ref_digests:
                return n_events, ["CSV bytes differ from the first operation of this run"]
            return n_events, []
        problems = []
        for path in paths[1:]:
            rows = len(_csv_rows(path))
            if rows != self.SLOTS:
                problems.append(f"{path.name}: {rows} rows, expected {self.SLOTS}")
        n_events, kinds, order_problems = self._check_events(paths[0])
        problems += order_problems
        arrivals = kinds["arrival"]
        if kinds["auth_pass"] != self.Q * (arrivals + kinds["key_update"]):
            problems.append(
                f"passes {kinds['auth_pass']} != Q x (arrivals {arrivals} + "
                f"key updates {kinds['key_update']})"
            )
        expected = self.overrides["beta"] * self.T_S
        if abs(arrivals - self.E0 - expected) > 4.0 * math.sqrt(expected):
            problems.append(
                f"{arrivals - self.E0} Poisson arrivals, outside 4 sigma of {expected:g}"
            )
        if f"arrivals={arrivals} passes={kinds['auth_pass']} " not in stdout:
            problems.append("printed arrival and pass totals disagree with the events CSV")
        if not problems:
            self.reference = (digests, n_events)
        return n_events, problems

    @staticmethod
    def _check_events(path: Path):
        """Time order, and per entity the arrival first and the departure last.

        Times are printed with 9 significant digits, so events a few 1e-7 s
        apart can print the same time; their kind and id order is then set
        by the unprinted digits and is not checked across entities.
        """
        kinds = dict.fromkeys(KINDS, 0)
        seen: set[str] = set()
        departed: set[str] = set()
        problems: list[str] = []
        prev_t = -math.inf
        n = 0
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader) != ["t_s", "kind", "entity_id"]:
                problems.append("events CSV header changed")
            for t_text, kind, entity in reader:
                n += 1
                t = float(t_text)
                if t < prev_t:
                    problems.append(f"row {n}: time {t_text} goes backwards")
                    break
                prev_t = t
                kinds[kind] += 1
                if entity in departed:
                    problems.append(f"row {n}: entity {entity} has an event after departing")
                    break
                if kind == "arrival":
                    if entity in seen:
                        problems.append(f"row {n}: entity {entity} arrives twice")
                        break
                    seen.add(entity)
                elif entity not in seen:
                    problems.append(f"row {n}: entity {entity} has an event before arriving")
                    break
                if kind == "departure":
                    departed.add(entity)
        return n, kinds, problems


class Cohort:
    """Library run of the acceptance criterion 05 cohort: 1e5 entities."""

    name = "cohort_1e5"
    item = "events"
    MAD_BOUND = 0.02  # acceptance criterion 05

    def __init__(self, seed: int, workdir: Path):
        self.overrides = {
            "E": 100_000, "E0": 100_000, "alpha": 0.0, "beta": 2.0,
            "gamma_prime": 0.1, "seed": seed,
        }

    def inputs(self) -> dict:
        return dict(self.overrides)

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        from v2xsustain import config, sim

        self.scenario = config.build_bundle(config.merge_config(self.overrides)).scenario
        self.sim = sim

    def op(self):
        # Looked up on the module at call time, so the tracer's spans apply.
        trace = self.sim.run_simulation(self.scenario)
        return trace, self.sim.compare_to_model(trace, self.scenario)

    def check(self, result) -> tuple[int, list[str]]:
        trace, report = result
        problems = []
        if not report.pass_identity_ok:
            problems.append(
                f"pass identity broken: {report.passes_observed} observed, "
                f"{report.passes_expected} expected"
            )
        if report.survivor_mad is None or not report.survivor_mad <= self.MAD_BOUND:
            problems.append(f"survivor MAD {report.survivor_mad!r} above {self.MAD_BOUND}")
        return len(trace.events), problems


class SweepBeta:
    """``v2xsustain sweep --param beta``: 200 rows on the published range.

    The seed shifts the grid start inside (2.0, 2.04], so every seed keeps
    200 rows with step 0.04 inside the published beta range [2, 10].
    """

    name = "sweep_beta200"
    item = "rows"
    ROWS = 200
    STEP = 0.04
    SAMPLED = (0, 57, 113, 171, 199)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.start = 2.0 + self.STEP * (1.0 - random.Random(seed).random())
        self.stop = self.start + (self.ROWS - 1) * self.STEP
        self.config = workdir / "sweep_beta200.json"
        self.out = workdir / "sweep_beta200.csv"
        self.expected_s_n: dict[int, float] = {}

    def inputs(self) -> dict:
        return {"param": "beta", "start": self.start, "stop": self.stop,
                "step": self.STEP, "seed": self.seed}

    def prepare(self) -> None:
        _write_json(self.config, {"seed": self.seed})

    def setup(self) -> None:
        from v2xsustain import cli, config

        config.build_bundle(config.load_config(self.config))
        self.cli = cli

    def op(self):
        return _run_cli(self.cli, [
            "sweep", str(self.config), "--param", "beta",
            "--start", repr(self.start), "--stop", repr(self.stop),
            "--step", repr(self.STEP), "--out", str(self.out),
        ])

    def _quadrature_s_n(self, k: int) -> float:
        """S_N of grid point k by the quadrature route, the closed form's oracle."""
        if k not in self.expected_s_n:
            from v2xsustain import config, sustain

            beta = self.start + k * self.STEP  # the grid rule of the sweep command
            scn = config.build_bundle(
                config.merge_config({"beta": beta, "alpha": beta / 2.0, "seed": self.seed})
            ).scenario
            self.expected_s_n[k] = sustain.sustainability_window_quadrature(
                scn.rates, scn.net, scn.window
            )
        return self.expected_s_n[k]

    def check(self, result) -> tuple[int, list[str]]:
        code, _, stderr = result
        if code != 0:
            return 0, [f"exit code {code}, expected 0"]
        rows = _take_rows(self.out)
        problems = []
        if len(rows) != self.ROWS:
            problems.append(f"{len(rows)} rows, expected {self.ROWS}")
        if any(cell == "" for row in rows for cell in row):
            problems.append("empty cells in the sweep")
        if stderr:
            problems.append(f"warnings on stderr: {stderr.splitlines()[0]}")
        for k in self.SAMPLED:
            if k >= len(rows) or rows[k][2] == "":
                continue
            got = float(rows[k][2])
            want = self._quadrature_s_n(k)
            if abs(got - want) > 1e-9 * abs(want) + _print_resolution(want):
                problems.append(f"row {k}: S_N {got!r} != quadrature {want!r}")
        return len(rows), problems


class FailsafeFine:
    """``v2xsustain failsafe`` at A1 with 0.1 s slots: 1100 decisions."""

    name = "failsafe_fine"
    item = "slots"
    SLOTS = 1100
    SCALE_FLOOR = 2.0

    def __init__(self, seed: int, workdir: Path):
        self.overrides = {"tx_step_s": 0.1, "seed": seed}
        self.config = workdir / "failsafe_fine.json"
        self.out = workdir / "failsafe_fine.csv"

    def inputs(self) -> dict:
        return dict(self.overrides)

    def prepare(self) -> None:
        _write_json(self.config, self.overrides)

    def setup(self) -> None:
        from v2xsustain import cli, config

        config.build_bundle(config.load_config(self.config))
        self.cli = cli

    def op(self):
        return _run_cli(self.cli, ["failsafe", str(self.config), "--out", str(self.out)])

    def check(self, result) -> tuple[int, list[str]]:
        code, stdout, _ = result
        if not self.out.exists():
            return 0, [f"exit code {code} and no CSV written"]
        rows = _take_rows(self.out)
        problems = []
        if len(rows) != self.SLOTS:
            problems.append(f"{len(rows)} rows, expected {self.SLOTS}")
        for i, row in enumerate(rows):
            mu, decision = row[3], row[6]
            if decision not in ("reconfigure", "update_keys", "continue"):
                problems.append(f"row {i}: unknown decision {decision!r}")
                break
            if mu != "" and float(mu) <= self.SCALE_FLOOR and decision != "reconfigure":
                problems.append(f"row {i}: mu {mu} <= {self.SCALE_FLOOR:g} but {decision}")
                break
        last = rows[-1][6] if rows else None
        expected_code = 0 if last == "continue" else 1
        if code != expected_code:
            problems.append(f"exit code {code} with final decision {last}")
        if f"final decision: {last}" not in stdout:
            problems.append("printed final decision disagrees with the CSV")
        return len(rows), problems


WORKLOADS = {w.name: w for w in (SimulateHeavy, Cohort, SweepBeta, FailsafeFine)}
