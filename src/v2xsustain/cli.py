"""Command-line front end.

Subcommands:

    validate [config]                      admissibility check, exit 0 iff clean
    sweep    [config] --param N --out CSV  closed-form metrics across a grid
    simulate [config] --out DIR            Monte Carlo runs + model comparison
    table3   --out CSV                     structural checks on the embedded
                                           fail-safe fixture table
    failsafe [config] --out CSV            simulate, score each slot, decide

The config argument is a JSON file; when omitted, the path in
$V2XSUSTAIN_CONFIG is used, and failing that the embedded defaults.
Exit codes: 0 success, 1 check failure, 2 usage or parse error or an
output path that cannot be written.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    ENV_CONFIG_PATH,
    FIELD_KINDS,
    ScenarioBundle,
    build_bundle,
    default_config,
    load_config,
    merge_config,
)
from .csvio import write_csv
from .decision import (
    CONTINUE,
    FailsafeTable,
    check_constraints,
    score_failsafe_slots,
)
from .errors import (
    ConfigError,
    DomainError,
    OverflowRangeError,
    SimulationTruncated,
)
from .fixtures import run_structural_checks
from .predict import (
    connectivity_prob,
    failsafe_tau,
    predicted_message_overhead,
    resolve_alpha_prime,
    scale_param,
)
from .sustain import (
    loss_probability_model,
    message_overhead,
    signaling_overhead,
    sustainability_window,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# Default sweep grids; ranges with steps as published, five points each.
SWEEP_GRIDS: dict[str, list[float]] = {
    "beta": [2.0, 4.0, 6.0, 8.0, 10.0],
    "alpha": [1.0, 2.0, 3.0, 4.0, 5.0],
    "E": [10, 20, 30, 40, 50],
    "Q": [1, 2, 3, 4, 5],
    "N": [2, 4, 6, 8, 10],
    "gamma_prime": [0.1, 0.3, 0.5, 0.7, 0.9],
    "p_x": [0.1, 0.3, 0.5, 0.7, 0.9],
    "omega_x": [0.1, 0.3, 0.5, 0.7, 0.9],
}

# Largest grid a --start/--stop/--step range may give.
MAX_SWEEP_POINTS = 100_000

SWEEP_HEADER = (
    "param", "value", "S_N", "O_S", "M_O", "M_O_pred", "M_O_pred_printed",
    "P_c", "mu", "tau",
)


def _resolve_config(path: str | None) -> tuple[dict, str]:
    """The config and the source its errors name."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None
    if path is None:
        return default_config(), "<config>"
    return load_config(path), path


def _bundle(args) -> ScenarioBundle:
    return build_bundle(*_resolve_config(args.config))


def _cell(fn, warnings: list[str], name: str):
    """Evaluate one sweep cell; domain failures become empty cells."""
    try:
        return fn()
    except (DomainError, OverflowRangeError) as e:
        warnings.append(f"{name}: {e}")
        return None


def cmd_validate(args) -> int:
    b = _bundle(args)
    scn = b.scenario
    violations = check_constraints(scn.net, scn.window, b.U_k, b.D, scn.thresholds)
    if not violations:
        print("ok: all constraints satisfied")
        return EXIT_OK
    for v in violations:
        print(f"violated: {v.constraint}: {v.detail}")
    return EXIT_CHECK_FAILED


def _sweep_values(args) -> list[float]:
    if args.values is not None:
        try:
            raw = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError as e:
            raise ConfigError(f"--values: {e}") from e
        if not raw:
            raise ConfigError("--values: empty list")
        return raw
    if args.start is not None or args.stop is not None or args.step is not None:
        bounds = (args.start, args.stop, args.step)
        if None in bounds:
            raise ConfigError("--start/--stop/--step must be given together")
        if not all(math.isfinite(x) for x in bounds):
            raise ConfigError(f"--start/--stop/--step must be finite, got {bounds!r}")
        if args.step <= 0:
            raise ConfigError(f"--step must be positive, got {args.step!r}")
        if args.start + args.step == args.start:
            raise ConfigError(f"--step {args.step!r} does not move --start {args.start!r}")
        # counted up to the loop's bound, which overflows to inf when stop
        # lies within 1e-12 of the largest float
        if not (args.stop * (1.0 + 1e-12) - args.start) / args.step < MAX_SWEEP_POINTS:
            raise ConfigError(f"--start/--stop/--step give over {MAX_SWEEP_POINTS} points")
        values = []
        v = args.start
        while v <= args.stop * (1.0 + 1e-12):
            values.append(v)
            v = args.start + len(values) * args.step
        if not values:
            raise ConfigError("--start/--stop/--step produced no values")
        return values
    if args.param in SWEEP_GRIDS:
        return list(SWEEP_GRIDS[args.param])
    raise ConfigError(
        f"no default grid for parameter {args.param!r}; pass --values or "
        f"--start/--stop/--step"
    )


def _sweep_row(param: str, value: float, base: dict, warnings: list[str]) -> tuple:
    integer = FIELD_KINDS[param] == "int"
    if integer and not (math.isfinite(value) and value == int(value)):
        raise ConfigError(f"parameter {param!r} takes integer values, got {value!r}")
    overrides: dict = {param: int(value) if integer else value}
    if param == "beta":
        # the published grid ties the update rate to half the arrival rate
        overrides["alpha"] = value / 2.0
    if param == "E":
        overrides.setdefault("E0", min(base["E0"], int(value)))
    source = f"sweep {param}={value:g}"
    # base is checked once by _resolve_config; a row checks only its overrides
    checked = merge_config(overrides, source=source)
    b = build_bundle({**base, **{k: checked[k] for k in overrides}}, source=source)
    scn = b.scenario
    net, rates, window = scn.net, scn.rates, scn.window
    alpha_prime = resolve_alpha_prime(rates, window, b.alpha_prime)

    s_n = _cell(
        lambda: sustainability_window(rates, net, window), warnings, "S_N"
    )
    o_s = (
        _cell(
            lambda: signaling_overhead(scn.thresholds.O_b, alpha_prime, net, window),
            warnings,
            "O_S",
        )
        if alpha_prime is not None
        else None
    )
    m_o = (
        _cell(
            lambda: message_overhead(o_s, loss_probability_model(net), net.E),
            warnings,
            "M_O",
        )
        if o_s is not None
        else None
    )
    pred = _cell(
        lambda: predicted_message_overhead(
            rates, net, window, scn.range_params, scn.thresholds.O_b,
            alpha_prime=alpha_prime,
        ),
        warnings,
        "M_O_pred",
    )
    p_c = _cell(
        lambda: connectivity_prob(net, rates.gamma_prime, window.t1),
        warnings,
        "P_c",
    )
    mu = _cell(lambda: scale_param(b.availabilities()), warnings, "mu")
    tau = None if mu is None else failsafe_tau(mu, b.bounds, window.T)
    return (
        param, value, s_n, o_s, m_o,
        None if pred is None else pred.composed,
        None if pred is None else pred.printed,
        p_c, mu, tau,
    )


def cmd_sweep(args) -> int:
    base, _ = _resolve_config(args.config)
    if args.param not in FIELD_KINDS:
        raise ConfigError(f"unknown sweep parameter {args.param!r}")
    values = _sweep_values(args)
    warnings: list[str] = []
    rows = [_sweep_row(args.param, v, base, warnings) for v in values]
    write_csv(args.out, SWEEP_HEADER, list(zip(*rows, strict=True)))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .sim import compare_to_model, run_simulation  # loads numpy

    base = _bundle(args).scenario
    seed = base.seed if args.seed is None else args.seed
    if args.runs < 1:
        raise ConfigError(f"--runs must be positive, got {args.runs}")
    if not 0 <= seed <= 2**64 - args.runs:
        raise ConfigError(f"seeds {seed}..{seed + args.runs - 1} of --runs {args.runs} "
                          f"pass the 64-bit seed range")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.runs):
        scn = replace(base, seed=seed + i)
        try:
            trace = run_simulation(scn)
        except SimulationTruncated as e:
            print(f"run {i}: truncated at event cap: {e}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        trace.export_events_csv(out / f"run{i}_events.csv")
        trace.export_metrics_csv(out / f"run{i}_metrics.csv")
        report = compare_to_model(trace, scn)
        report.export_csv(out / f"run{i}_comparison.csv")
        if errors := report.s_n_model_errors:
            print(f"warning: run {i}: S_N_model empty in {len(errors)} slots: {errors[0]}",
                  file=sys.stderr)
        mad = "" if report.survivor_mad is None else f"{report.survivor_mad:.4f}"
        print(
            f"run {i}: seed={scn.seed} arrivals={trace.arrivals_total} "
            f"passes={trace.passes_total} survivor_mad={mad}"
        )
    return EXIT_OK


def cmd_table3(args) -> int:
    rows = run_structural_checks()
    write_csv(
        args.out,
        ("case_index", "group", "check", "detail", "passed"),
        list(zip(*rows, strict=True)),
    )
    failed = [r for r in rows if not r.passed]
    print(f"{len(rows) - len(failed)}/{len(rows)} checks passed")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_failsafe(args) -> int:
    from .sim import run_simulation, slot_count  # loads numpy

    config, source = _resolve_config(args.config)
    b = build_bundle(config, source)
    try:  # an omega_x list too short for the slots fails before any draw
        compliance = b.omega_compliance(slot_count(b.scenario))
    except ConfigError as e:
        raise ConfigError(f"{source}: {e}") from None
    try:
        trace = run_simulation(b.scenario)
    except SimulationTruncated as e:
        print(f"simulation truncated at event cap: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    table = score_failsafe_slots(trace, compliance, b.bounds)
    write_csv(args.out, FailsafeTable._fields, table)
    last_decision = table.decision[-1] if table.decision else None
    print(f"wrote {len(table.t_s)} rows to {args.out}; final decision: {last_decision}")
    return EXIT_OK if last_decision == CONTINUE else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xsustain",
        description="Sustainability analysis and simulation for backhaul-aware "
        "vehicular network security management.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check scenario admissibility")
    p.add_argument("config", nargs="?", help="JSON scenario file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("sweep", help="closed-form metrics across a parameter grid")
    p.add_argument("config", nargs="?", help="JSON scenario file")
    p.add_argument("--param", required=True, help="config field to sweep")
    p.add_argument("--values", help="comma-separated sweep values")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--step", type=float)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo runs with model comparison")
    p.add_argument("config", nargs="?", help="JSON scenario file")
    p.add_argument("--seed", type=int, help="base seed (default: config seed)")
    p.add_argument("--runs", type=int, default=1, help="number of runs")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("table3", help="structural checks on embedded fixtures")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_table3)

    p = sub.add_parser("failsafe", help="simulate, score slots, decide")
    p.add_argument("config", nargs="?", help="JSON scenario file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_failsafe)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError) as e:  # OSError: an --out that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, OverflowRangeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
