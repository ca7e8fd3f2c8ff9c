"""Configuration and command-line tests.

The CLI contract under test: exit 0 on success, 1 when a check fails,
2 on usage or parse errors; CSV outputs are byte-stable across reruns of
the same seed.
"""

import csv
import dataclasses
import filecmp
import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import v2xsustain
from v2xsustain import (
    ENV_CONFIG_PATH,
    LikelihoodBounds,
    NetworkParams,
    RangeParams,
    RateParams,
    Scenario,
    Thresholds,
    TimeWindow,
    build_bundle,
    compare_to_model,
    default_config,
    failsafe_tau,
    load_config,
    loss_probability_model,
    merge_config,
    message_overhead,
    run_simulation,
    signaling_overhead,
)
from v2xsustain import config as config_module
from v2xsustain import predict as predict_module
from v2xsustain import sustain as sustain_module
from v2xsustain.cli import SWEEP_GRIDS, main
from v2xsustain.config import FIELDS
from v2xsustain.csvio import fmt
from v2xsustain.errors import ConfigError
from v2xsustain.sustain import _ei_window

SRC = str(Path(v2xsustain.__file__).resolve().parents[1])
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, name="scenario.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(overrides))
    return str(path)


def test_default_config_is_admissible():
    bundle = build_bundle(default_config())
    assert bundle.scenario.net.E == 10
    assert bundle.scenario.rates.beta == 2.0
    assert bundle.scenario.seed == 1234
    assert bundle.U_k == 1.0 and bundle.D == 10.0
    assert bundle.alpha_prime is None


def test_merge_rejects_unknown_and_mistyped_fields():
    assert merge_config({"beta": 4})["beta"] == 4.0
    # gamma, c1, c2: no command reads an incoming rate or a connection bound;
    # label, count_reauth_passes: nothing read the tag, and every key update
    # re-authenticates
    for name in ("bandwidth", "gamma", "c1", "c2", "label", "count_reauth_passes"):
        with pytest.raises(ConfigError, match="unknown field"):
            merge_config({name: 1.0})
    with pytest.raises(ConfigError):
        merge_config({"N": 2.5})
    with pytest.raises(ConfigError):
        merge_config({"N": True})
    with pytest.raises(ConfigError, match="expected a number"):
        merge_config({"beta": True})  # a JSON boolean is not 1.0
    with pytest.raises(ConfigError):
        merge_config({"p_x": []})


def test_load_config_reports_position(tmp_path, monkeypatch, capsys):
    good = tmp_path / "good.json"
    good.write_text('{"beta": 4.0}')
    assert load_config(good)["beta"] == 4.0
    bad = tmp_path / "bad.json"
    bad.write_text('{"beta": 4.0,\n "oops}')
    with pytest.raises(ConfigError, match=r"bad\.json:2"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(arr)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match=r"utf16\.json: not UTF-8 text"):
        load_config(utf16)
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert main(["validate", str(utf16)]) == 2
    monkeypatch.setenv(ENV_CONFIG_PATH, str(utf16))
    assert main(["validate"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {utf16}: not UTF-8 text: invalid start byte at byte 0"] * 2


def test_load_config_rejects_non_finite_numbers(tmp_path, capsys):
    path = tmp_path / "nonfinite.json"
    for text in ('{"beta": Infinity}', '{"alpha": -Infinity}', '{"T_s": NaN}'):
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite number"):
            load_config(path)
        assert main(["validate", str(path)]) == 2
    # 1e400 parses as a float infinity, past the JSON constants
    path.write_text('{"tx_step_s": 1e400}')
    with pytest.raises(ConfigError, match="tx_step_s"):
        load_config(path)
    with pytest.raises(ConfigError, match="finite"):
        merge_config({"T_s": float("nan")})
    capsys.readouterr()


def test_load_config_rejects_huge_integers(tmp_path, capsys):
    path = tmp_path / "huge.json"
    # overflows the float conversion of a numeric field
    path.write_text('{"beta": 1' + "0" * 400 + "}")
    with pytest.raises(ConfigError, match="beta"):
        load_config(path)
    assert main(["validate", str(path)]) == 2
    # past the interpreter's integer digit limit, so json.loads refuses it
    path.write_text('{"beta": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="digits"):
        load_config(path)
    assert main(["validate", str(path)]) == 2
    # nested deeper than the decoder's recursion limit
    path.write_text('{"beta": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ConfigError, match="recursion"):
        load_config(path)
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()


def test_bundle_broadcasts_probability_lists(tmp_path):
    path = write_config(tmp_path, p_x=[0.1, 0.2], omega_x=0.25, E=2, E0=2)
    bundle = build_bundle(load_config(path), source=path)
    assert bundle.availabilities() == (0.9, 0.8)
    path = write_config(tmp_path, "s.json", p_x=0.25, E=1000, E0=10)
    assert build_bundle(load_config(path), source=path).availabilities() == (0.75,)
    assert bundle.omega_compliance(3) == (0.75, 0.75, 0.75)
    path = write_config(tmp_path, "w.json", omega_x=[0.1, 0.2])
    with pytest.raises(ConfigError, match="omega_x list"):
        build_bundle(load_config(path), source=path).omega_compliance(3)


def test_bundle_rejects_structural_breaches(tmp_path):
    # p_x and omega_x lie strictly inside (0, 1): both endpoints are breaches
    breaches = [(name, {name: value}) for name, value in (
        ("p_x", 0.0), ("p_x", 1.0), ("omega_x", 0.0), ("omega_x", 1.0))]
    breaches += [("E_zero", {"E0": 20}), ("t1", {"t1_s": 200.0}),
                 ("t_min_hold=60.0 exceeds t_attack=50.0", {"t_attack_s": 50, "t_prime_s": 60})]
    for message, overrides in breaches:
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError, match=message):
            build_bundle(load_config(path), source=path)


def test_minimum_hold_defaults_to_the_attack_time(tmp_path):
    path = write_config(tmp_path, t_attack_s=50)
    window = build_bundle(load_config(path), source=path).scenario.window
    assert window.t_attack == window.t_min_hold == 50.0
    window = build_bundle(default_config()).scenario.window
    assert window.t_attack == window.t_min_hold == window.T
    assert window.t_use == window.t_x_step


def test_cli_config_errors_name_their_file(tmp_path, capsys):
    path = write_config(tmp_path, t1_s=200)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: window requires 0 < t1 < t2, got t1=200.0 t2=105.0\n"
    )


def test_readme_configuration_table_is_the_field_table():
    # one README row per field, in table order: name, default (JSON, or
    # "none" for an optional field) and meaning
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.*?) \| (.*?) \|$", section, re.M)
    assert rows == [
        (f.name, "none" if f.default is None else json.dumps(f.default), f.meaning)
        for f in FIELDS
    ]


def test_dataclass_defaults_are_the_field_table_defaults():
    # library callers that build these objects directly get the config's
    # defaults: (dataclass, attribute) -> config field
    table = {f.name: f.default for f in FIELDS}
    pairs = {
        (Scenario, "event_cap"): "event_cap",
        (TimeWindow, "t_x_step"): "tx_step_s",
        (Thresholds, "U_prime_N"): "U_prime_N",
        (Thresholds, "O_b"): "O_b",
    }
    for (cls, attr), name in pairs.items():
        default = {f.name: f.default for f in dataclasses.fields(cls)}[attr]
        assert default == table[name], (cls.__name__, attr)


def test_validate_exit_codes(tmp_path, capsys):
    clean = write_config(tmp_path, "clean.json")
    assert main(["validate", clean]) == 0
    assert "ok" in capsys.readouterr().out
    breached = write_config(tmp_path, "breached.json", n_inv=10)
    assert main(["validate", breached]) == 1
    assert "n_inv != E" in capsys.readouterr().out
    missing = str(tmp_path / "nope.json")
    assert main(["validate", missing]) == 2


def test_validate_uses_env_config(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path, "env.json", n_inv=10)
    monkeypatch.setenv(ENV_CONFIG_PATH, path)
    assert main(["validate"]) == 1
    capsys.readouterr()
    monkeypatch.delenv(ENV_CONFIG_PATH)
    assert main(["validate"]) == 0


def test_sweep_default_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--param", "E", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,value,S_N,O_S,M_O,M_O_pred,M_O_pred_printed,P_c,mu,tau"
    assert len(lines) == 1 + len(SWEEP_GRIDS["E"])
    assert all(line.startswith("E,") for line in lines[1:])
    capsys.readouterr()


def test_sweep_q_column_scaling(tmp_path):
    out = tmp_path / "q.csv"
    assert main(["sweep", "--param", "Q", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    s_n = [float(r[2]) for r in rows]
    q = [float(r[1]) for r in rows]
    # S_N scales as 1/Q along the grid; cells carry 9 significant digits
    for qi, si in zip(q, s_n):
        assert qi * si == pytest.approx(q[0] * s_n[0], rel=1e-7, abs=0.0)


def test_sweep_explicit_values_and_range(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["sweep", "--param", "beta", "--values", "3,5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    out2 = tmp_path / "r.csv"
    code = main(
        ["sweep", "--param", "alpha", "--start", "1", "--stop", "2", "--step", "0.5",
         "--out", str(out2)]
    )
    assert code == 0
    values = [line.split(",")[1] for line in out2.read_text().splitlines()[1:]]
    assert values == ["1", "1.5", "2"]


def test_sweep_domain_failures_become_empty_cells(tmp_path, capsys):
    out = tmp_path / "a.csv"
    # alpha = 5 exceeds beta = 2: the closed forms lose their domain
    assert main(["sweep", "--param", "alpha", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err
    last = out.read_text().splitlines()[-1].split(",")
    assert last[1] == "5" and last[2] == ""


@pytest.mark.parametrize(
    "param,value,cell",
    [("beta", "1e308", "S_N"), ("N", "100000000", "S_N"), ("beta", "1e-300", "O_S"),
     ("N", "1040", "M_O")],
    ids=["alpha-squared-overflows", "P-underflows", "log-vanishes", "M_O-overflows"],
)
def test_sweep_out_of_range_cells_are_typed(tmp_path, capsys, param, value, cell):
    # each value once raised a bare OverflowError or ZeroDivisionError
    out = tmp_path / "edge.csv"
    assert main(["sweep", "--param", param, "--values", value, "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    assert row[header.index(cell)] == ""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count(f"warning: {cell}: ") == 1


@pytest.mark.parametrize(
    "command,overrides",
    [("failsafe", {"N": 745}), ("failsafe", {"N": 800}),
     ("failsafe", {"N": 700, "omega_x": 1e-16})],
    ids=["failsafe-M_O-overflows", "failsafe-P-underflows", "failsafe-mu-overflows"],
)
def test_out_of_range_runs_exit_one_with_one_line(tmp_path, capsys, command, overrides):
    # each once printed inf cells or ended in a ZeroDivisionError or
    # OverflowRangeError traceback
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "out"
    assert main([command, cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: ") == 1 and err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("E", [2**63, 2**64, 10**30], ids=["2**63", "2**64", "10**30"])
@pytest.mark.parametrize("command", ["simulate", "failsafe"])
def test_hub_capacity_past_int64_runs_without_a_traceback(tmp_path, capsys, command, E):
    # E = 2**63 once ended in an OverflowError traceback at the slot metrics'
    # min(D, E); a hub this large is never full, so E' = D and P_emp rounds
    # to 1 in every slot.
    out = tmp_path / "out"
    code = main([command, write_config(tmp_path, E=E), "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if err.startswith("error: "):
        assert code in (1, 2) and err.count("\n") == 1
        return
    assert code in (0, 1)
    path = out / "run0_metrics.csv" if command == "simulate" else out
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    assert len(rows) == 22
    if command == "simulate":
        column = dict(zip(header, zip(*rows)))
        assert column["E_active"] == column["D"]
        assert set(column["P_empirical"]) == {"1"}


@pytest.mark.parametrize("command", ["validate", "sweep", "simulate", "failsafe"])
def test_an_event_cap_past_int64_is_rejected(tmp_path, capsys, command):
    # Q = 10**30 under a cap of 10**40 once ended simulate and failsafe in an
    # OverflowError traceback at the slot metrics' Q * counts
    cfg = write_config(tmp_path, Q=10**30, event_cap=10**40)
    argv = {"validate": [], "sweep": ["--param", "beta", "--out", str(tmp_path / "x.csv")]}
    assert main([command, cfg, *argv.get(command, ["--out", str(tmp_path / "out")])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"event_cap must be below 2**63, got {10**40}\n")


@pytest.mark.parametrize("command", ["simulate", "failsafe"])
def test_a_q_past_int64_with_no_vehicle_ends_cleanly(tmp_path, capsys, command):
    # n = 0 vehicles passes the n * (1 + Q) cap check at any Q; the slot
    # metrics' Q * counts and the events' pass block once raised OverflowError
    cfg = write_config(tmp_path, Q=10**30, E0=0, beta=1e-6, alpha=1e-7)
    out = tmp_path / "out"
    code = main([command, cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    assert err.count("error: ") <= 1
    metrics = out / "run0_metrics.csv" if command == "simulate" else out
    rows = [line.split(",") for line in metrics.read_text().splitlines()[1:]]
    assert len(rows) == 22
    if command == "simulate":
        assert {r[5] for r in rows} == {"0"}  # no vehicle, no pass
        assert (out / "run0_events.csv").read_text() == "t_s,kind,entity_id\n"


def test_sweep_names_the_config_file_of_a_failing_base(tmp_path, capsys):
    # the base is checked field by field on load and as a Scenario per row,
    # so a row's error names the file, then the row; a base that the swept
    # field repairs is accepted
    cfg = write_config(tmp_path, "cap.json", event_cap=10**40)
    out = str(tmp_path / "x.csv")
    assert main(["sweep", cfg, "--param", "beta", "--out", out]) == 2
    want = f"{cfg}: sweep beta=2: event_cap must be below 2**63, got {10**40}\n"
    assert capsys.readouterr().err == f"error: {want}"
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
    cfg = write_config(tmp_path, "zero.json", event_cap=0)
    assert main(["sweep", cfg, "--param", "event_cap", "--values", "100000", "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_sweep_accepts_a_base_that_its_rows_make_valid(tmp_path, capsys):
    # E0 > E fails alone, but each row's E0 follows its E, so every row is
    # valid: the rows are built, never the base alone
    cfg = write_config(tmp_path, E=5, E0=10)
    out = tmp_path / "e.csv"
    assert main(["sweep", cfg, "--param", "E", "--values", "10,20", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 2 rows to {out}\n"
    digest = "c154d629d1230824af1b906623d6d49beafa30b284813dc36c1a440625d833da"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: E_zero=10 exceeds capacity E=5\n"


def test_simulate_keeps_the_run_when_the_model_leaves_double_range(tmp_path, capsys):
    # A slot whose model value leaves double range gets empty S_N_model and
    # S_N_rel_dev cells and one warning line per run; the run still writes
    # all three files and exits 0.
    cases = [
        # the slot window [0.1, 0.2] gives (beta - alpha)/t1 = 19990, past Ei's range
        ({"T_s": 0.3, "t2_s": 0.25, "t1_s": 0.05, "tx_step_s": 0.1, "gamma_prime": 5,
          "E": 1000, "E0": 500, "beta": 2000, "alpha": 1},
         3, "2 slots: expint_ei(19990.0) exceeds double-precision range"),
        # every slot past the first: the window form gives inf
        ({"N": 1040}, 22, "21 slots: window form gives inf, outside double range"),
    ]
    for k, (overrides, slots, warning) in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert main(["simulate", write_config(tmp_path, **overrides), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"warning: run 0: S_N_model empty in {warning}\n"
        assert captured.out.startswith("run 0: seed=1234 ")
        assert sorted(p.name for p in out.iterdir()) == [
            "run0_comparison.csv", "run0_events.csv", "run0_metrics.csv"]
        assert len((out / "run0_metrics.csv").read_text().splitlines()) == 1 + slots
        rows = [line.split(",") for line in
                (out / "run0_comparison.csv").read_text().splitlines()[1:]]
        assert len(rows) == slots and all(r[2] == r[3] == "" for r in rows)


@pytest.mark.parametrize("route", ["--seed", "config", "--runs=0", "--seed=-1"])
def test_seed_range_past_64_bits_exits_two_before_any_run(tmp_path, capsys, route):
    # the seeds top..top+1 of two runs, no run at all, or a negative seed
    top = 2**64 - 1
    if route == "--seed":
        argv = ["--seed", str(top), "--runs", "2"]
    elif route == "config":
        argv = [write_config(tmp_path, seed=top), "--runs", "2"]
    else:
        argv = route.split("=")
    out = tmp_path / "out"
    assert main(["simulate", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_every_field_error_names_its_file(tmp_path, capsys):
    # one wrong value of each field kind, and a bad entry of a prob list
    cases = {"beta": "x", "N": 2.5, "p_x": 1.5, "omega_x": [0.5, 1.0]}
    for name, value in cases.items():
        path = write_config(tmp_path, f"{name}.json", **{name: value})
        assert main(["validate", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: field {name!r}")
        assert captured.err.count("\n") == 1


def test_sweep_alpha_prime_default_lives_in_the_library(tmp_path, capsys):
    # a configured alpha_prime (not the alpha/t2 = 1/105 default) prices O_S
    cfg = write_config(tmp_path, alpha_prime=0.05)
    out = tmp_path / "ap.csv"
    assert main(["sweep", cfg, "--param", "alpha", "--values", "1", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    scn = build_bundle(default_config()).scenario
    o_s = signaling_overhead(1.0, 0.05, scn.net, scn.window)
    m_o = message_overhead(o_s, loss_probability_model(scn.net), scn.net.E)
    assert row[3:5] == [fmt(o_s), fmt(m_o)]
    capsys.readouterr()
    # alpha = 0 with no alpha_prime: no signaling rate, so O_S and M_O stay
    # empty without a domain warning of their own
    assert main(["sweep", "--param", "alpha", "--values", "0", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[3:5] == ["", ""]
    cells = [line.split(": ")[1] for line in capsys.readouterr().err.splitlines()]
    assert "S_N" in cells  # the window closed form needs alpha > 0
    assert "O_S" not in cells and "M_O" not in cells


# (--start, --stop, --step, message): ranges whose grid loop would never end
# or would build millions of points, and step signs, which have their own check
SWEEP_RANGE_REJECTS = [
    ("2", "inf", "1", "finite"),
    ("nan", "3", "1", "finite"),
    ("2", "3", "inf", "finite"),
    ("2", "3", "1e-300", "does not move --start"),
    ("2", "3", "1e-9", "over 100000 points"),
    # finite, but the loop's bound stop * (1 + 1e-12) overflows to inf
    ("1.79e308", "1.7976931348623157e308", "1e305", "over 100000 points"),
    # finite, but stop - start overflows to inf
    ("-1e308", "1e308", "1e300", "over 100000 points"),
    ("2", "3", "0", "--step must be positive"),
    ("2", "3", "-1", "--step must be positive"),
]


def _limit_child_memory():
    limit = 512 * 2**20  # address space; numpy's import fits in it
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_in_child(args: list[str], cwd) -> subprocess.CompletedProcess:
    """python args in a fresh interpreter with the package on PYTHONPATH. The
    timeout and the memory limit turn a grid loop that never ends into a
    failure instead of a hang."""
    env = {k: v for k, v in os.environ.items() if k != ENV_CONFIG_PATH}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=5, preexec_fn=_limit_child_memory,
    )


def run_main_in_child(argv: list[str], cwd, after: str = "") -> subprocess.CompletedProcess:
    """main(argv) in a fresh interpreter, then the statements in after."""
    code = f"import sys\nfrom v2xsustain.cli import main\ncode = main({argv!r})\n{after}"
    return run_in_child(["-c", code + "sys.exit(code)\n"], cwd)


def test_the_cli_module_runs_as_a_script(tmp_path):
    # the README times this entry point
    proc = run_in_child(["-m", "v2xsustain.cli", "validate"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok: all constraints satisfied\n", "")


@pytest.mark.parametrize("start,stop,step,message", SWEEP_RANGE_REJECTS)
def test_sweep_range_rejected_before_the_grid_is_built(tmp_path, start, stop, step, message):
    argv = ["sweep", "--param", "beta", f"--start={start}", f"--stop={stop}",
            f"--step={step}", "--out", "x.csv"]
    proc = run_main_in_child(argv, tmp_path)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_sweep_over_a_huge_hub_ends_in_bounded_time_and_memory(tmp_path):
    # a scalar p_x is one credential availability, not an E-long tuple
    argv = ["sweep", "--param", "E", "--values", "100000000", "--out", "x.csv"]
    proc = run_main_in_child(argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = (tmp_path / "x.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["mu"] == fmt(1.0 / math.log(2.0))  # p_x = 0.5 at A1


TRUNCATED = "truncated at event cap: event cap 2000000 exceeded"
# Accepted configs whose draws would need GiB to EiB, exceed what
# Generator.poisson accepts, or wrap an int64 event count; each run must end
# at once with a truncation or a DomainError.
RUN_BUDGET_PROBES = [
    pytest.param({"beta": 1e7}, TRUNCATED, id="beta=1e7"),
    pytest.param({"beta": 1e16}, TRUNCATED, id="beta=1e16"),
    pytest.param({"T_s": 1e12, "tx_step_s": 1e7, "t2_s": 1e11}, TRUNCATED, id="T=1e12"),
    pytest.param({"alpha": 1e12}, TRUNCATED, id="alpha=1e12"),
    pytest.param({"alpha": 4e16}, TRUNCATED, id="alpha=4e16"),
    pytest.param({"alpha": 8e16}, TRUNCATED, id="alpha=8e16"),
    pytest.param({"alpha": 1e19}, "error: alpha * T = 1.1e+21", id="alpha=1e19"),
    pytest.param({"beta": 1e17}, "error: beta * T = 1.1e+19", id="beta=1e17"),
    pytest.param({"tx_step_s": 1e-9}, "error: 1.1e+11 slots", id="tx_step=1e-9"),
]


@pytest.mark.parametrize("overrides,message", RUN_BUDGET_PROBES)
def test_runs_beyond_the_budget_end_at_once(tmp_path, overrides, message):
    # One fresh process under the memory limit runs simulate, then
    # run_simulation under tracemalloc, then failsafe.
    cfg = write_config(tmp_path, **overrides)
    after = (
        "import tracemalloc\n"
        "from v2xsustain import build_bundle, load_config, run_simulation\n"
        f"scenario = build_bundle(load_config({cfg!r}), source={cfg!r}).scenario\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    run_simulation(scenario)\n"
        "except Exception as e:\n"
        "    print(code, type(e).__name__, tracemalloc.get_traced_memory()[1])\n"
        "tracemalloc.stop()\n"
        f"code = main(['failsafe', {cfg!r}, '--out', 'x.csv'])\n"
    )
    proc = run_main_in_child(["simulate", cfg, "--out", "out"], tmp_path, after=after)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 2 and all(message in line for line in lines), proc.stderr
    code, error, peak = proc.stdout.split()
    assert code == "1"
    assert error == ("SimulationTruncated" if message == TRUNCATED else "DomainError")
    assert int(peak) < 2**20


# Modules that a command may load only when it runs them.
ON_DEMAND = ("numpy", "v2xsustain.sim", "v2xsustain.fixtures", "v2xsustain.quadrature",
             "v2xsustain.arraycsv")
COMMAND_LOADS = [  # argv at the A1 defaults, exit code, what it loads
    (["validate"], 0, set()),
    (["sweep", "--param", "beta", "--out", "sweep.csv"], 0, set()),
    (["table3", "--out", "table3.csv"], 0, {"v2xsustain.fixtures"}),
    (["failsafe", "--out", "failsafe.csv"], 1, {"numpy", "v2xsustain.sim"}),  # 22 rows, by value
    (["simulate", "--out", "out"], 0, {"numpy", "v2xsustain.sim", "v2xsustain.arraycsv"}),
]


@pytest.mark.parametrize("argv,code,loads", COMMAND_LOADS,
                         ids=[argv[0] for argv, _, _ in COMMAND_LOADS])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, code, loads):
    after = f"print(sorted(m for m in {ON_DEMAND!r} if m in sys.modules))\n"
    proc = run_main_in_child(argv, tmp_path, after=after)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(sorted(loads))


def test_sweep_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--param", "nope", "--out", out]) == 2
    assert capsys.readouterr().err == "error: unknown sweep parameter 'nope'\n"
    assert main(["sweep", "--param", "gamma", "--values", "1", "--out", out]) == 2
    assert capsys.readouterr().err == "error: unknown sweep parameter 'gamma'\n"
    assert main(["sweep", "--param", "label", "--values", "1", "--out", out]) == 2
    assert capsys.readouterr().err == "error: unknown sweep parameter 'label'\n"
    assert main(["sweep", "--param", "event_cap", "--values", "0", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: sweep event_cap=0: event_cap must be positive, got 0\n"
    )
    for value in ("inf", "nan"):
        assert main(["sweep", "--param", "N", "--values", value, "--out", out]) == 2
        assert "takes integer values" in capsys.readouterr().err
    assert main(["sweep", "--param", "E", "--values", "12.5", "--out", out]) == 2
    assert main(["sweep", "--param", "beta", "--values", "oops", "--out", out]) == 2
    assert main(["sweep", "--param", "beta", "--start", "1", "--out", out]) == 2
    capsys.readouterr()
    for values in ("", ","):
        assert main(["sweep", "--param", "beta", "--values", values, "--out", out]) == 2
        assert capsys.readouterr().err == "error: --values: empty list\n"
    range_argv = ["--start", "3", "--stop", "2", "--step", "1"]
    assert main(["sweep", "--param", "beta", *range_argv, "--out", out]) == 2
    assert capsys.readouterr().err == "error: --start/--stop/--step produced no values\n"
    assert main(["sweep", "--param", "d1", "--out", out]) == 2  # no default grid


def test_sweep_accepts_every_table_field(tmp_path, capsys):
    # alpha_prime has no default, so it is absent from the default config
    out = tmp_path / "ap.csv"
    argv = ["sweep", "--param", "alpha_prime", "--values", "0.05,0.1", "--out", str(out)]
    assert main(argv) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["alpha_prime", "0.05"], ["alpha_prime", "0.1"]]
    assert rows[0][3] != rows[1][3]  # O_S follows the signaling rate
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["failsafe", "--out", "{dir}"], ["table3", "--out", "{dir}"],
     ["sweep", "--param", "beta", "--out", "{missing}/x.csv"],
     ["simulate", "--out", "{file}"]],
    ids=["failsafe-dir", "table3-dir", "sweep-missing-dir", "simulate-file"],
)
def test_unwritable_out_ends_in_one_error_line(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    paths = {"dir": tmp_path, "missing": tmp_path / "missing", "file": tmp_path / "file"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_writes_run_files(tmp_path, capsys):
    out = tmp_path / "sims"
    assert main(["simulate", "--out", str(out), "--runs", "2"]) == 0
    for i in range(2):
        for kind in ("events", "metrics", "comparison"):
            assert (out / f"run{i}_{kind}.csv").is_file()
    printed = capsys.readouterr().out
    assert "run 0: seed=1234" in printed and "run 1: seed=1235" in printed


def test_simulate_byte_stable(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--out", str(a), "--seed", "7"]) == 0
    assert main(["simulate", "--out", str(b), "--seed", "7"]) == 0
    capsys.readouterr()
    for kind in ("events", "metrics", "comparison"):
        assert filecmp.cmp(a / f"run0_{kind}.csv", b / f"run0_{kind}.csv", shallow=False)


# SHA-256 of the simulate CSVs at the A1 defaults, seed 1234. A change in
# the random draws, their order or the CSV format shows here; update the
# digests only together with such a change.
GOLDEN_A1_SEED_1234 = {
    "events": "faec8a9ceb798024a4f192c08a1449e29266253bbaaf86e684aa35a92063893e",
    "metrics": "d8cc6fe449b9cfce8cc0c9e1bf5ca9169d5bbe51eb3e17f61d9a8af7a38510a9",
    "comparison": "ba32ee48fa909a7dd0598762a7c541386606149b00995c9c23b8ee615f76759b",
}


def test_simulate_golden_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert main(["simulate", "--out", str(tmp_path), "--seed", "1234"]) == 0
    capsys.readouterr()
    for kind, digest in GOLDEN_A1_SEED_1234.items():
        data = (tmp_path / f"run0_{kind}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, kind


# SHA-256 of the comparison CSV at E=100, E0=10, seed 1234. The hub is not
# full there, so S_N_rel_dev is defined in 21 of the 22 slots (in 1 at A1).
GOLDEN_E100_COMPARISON_SEED_1234 = (
    "eba8f2bcb9f984bf298be2e3bf70317a31b2a7aa0195bfa8384222995c43c9ab"
)


def test_simulate_comparison_digest_where_s_n_is_defined(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    cfg = write_config(tmp_path, E=100, E0=10)
    assert main(["simulate", cfg, "--out", str(tmp_path / "sims"), "--seed", "1234"]) == 0
    capsys.readouterr()
    data = (tmp_path / "sims" / "run0_comparison.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_E100_COMPARISON_SEED_1234
    scn = build_bundle(load_config(cfg), source=cfg).scenario
    report = compare_to_model(run_simulation(scn), scn)
    table = report.table
    devs = [abs((e - m) / abs(m)) for e, m in zip(table.S_N_emp.tolist(), table.S_N_model.tolist())
            if not (math.isnan(e) or math.isnan(m))]
    assert len(devs) == 21
    assert devs == [abs(v) for v in table.S_N_rel_dev.tolist() if not math.isnan(v)]
    assert report.s_n_mean_rel_dev == sum(devs) / len(devs)  # slot order, bit for bit


# SHA-256 of the events CSV at the heavy point beta=20, alpha=10, seed 7:
# 405,283 rows, so the writer crosses six 65536-row chunk boundaries, which
# the A1 run (about 4k rows) never reaches.
GOLDEN_HEAVY_EVENTS_SEED_7 = "d8ccda4b1a1a4f5690e87b003954fb78a56146759c20da213718b7a0b1f97341"


def test_simulate_heavy_events_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    cfg = write_config(tmp_path, beta=20, alpha=10)
    assert main(["simulate", cfg, "--out", str(tmp_path / "sims"), "--seed", "7"]) == 0
    capsys.readouterr()
    data = (tmp_path / "sims" / "run0_events.csv").read_bytes()
    assert data.count(b"\n") == 1 + 405283
    assert hashlib.sha256(data).hexdigest() == GOLDEN_HEAVY_EVENTS_SEED_7


# SHA-256 of the simulate CSVs at a zero update rate, seed 7: a 1000-vehicle
# cohort with arrivals and departures and no key update. run_simulation
# draws no update counts when alpha is not above 0; a zero Poisson mean
# takes nothing from the update stream, so these are also the digests of a
# run that draws every count. alpha -0.0 passes the config and prints the same.
GOLDEN_ALPHA_0_SEED_7 = {
    "events": "60cfbadfeb5abf7fe612b19d7e7a578e4023585c5e07994983e645329081055b",
    "metrics": "6c71d885af385e248117099e30391dcbcfd6c98d4b65da29e82460e416c1e65b",
    "comparison": "7f9c86aee513af1dd4e6d1a5a8fa4ac004dc208be3d06915622b15f53d41edac",
}


@pytest.mark.parametrize("alpha", [0, -0.0], ids=["zero", "minus_zero"])
def test_simulate_zero_update_rate_digests(alpha, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    cfg = write_config(tmp_path, E=1000, E0=1000, alpha=alpha, beta=2, gamma_prime=0.1)
    assert main(["simulate", cfg, "--out", str(tmp_path / "sims"), "--seed", "7"]) == 0
    capsys.readouterr()
    for kind, digest in GOLDEN_ALPHA_0_SEED_7.items():
        data = (tmp_path / "sims" / f"run0_{kind}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, kind


# SHA-256 of the analytic command outputs at the A1 defaults: the default
# beta and p_x sweep grids (mu > 2 on part of the p_x grid, so tau is
# nonzero there) and the failsafe table (nonzero tau in every row), plus the
# failsafe table at 0.1 s slots (1100 rows, seed 1234), at Q = 2 (S_N
# divides by Q) and with a list omega_x of 22 distinct values (mu sums
# ln(1/(1 - omega_x))). The sweeps add the benchmark's 200-point beta grid,
# an E grid whose first row clamps E0 to E = 5, and the default alpha grid,
# whose alpha >= beta rows leave S_N and M_O_pred empty. A change of route
# for any quantity these print shows here; update the digests only together
# with a change of the printed values.
#
# The sweeps after the failsafe tables change one field of each scenario
# part (N, T_s, d2, r2_m, O_b), a field that another resolves from
# (U_prime_N for U_k, alpha_prime, T_s for t_attack_s), the p_x of mu (200
# points, a 1000-entry list, and 1e-17, whose 1 - p_x rounds to 1 so that
# every row warns) and the seed, whose -1 row ends the sweep with exit 2 and
# no CSV (digest None). No sweep column reads t_attack_s, so both T_s
# sweeps print the same bytes. GOLDEN_STREAMS pins their stdout and stderr.
BETA_200 = ["sweep", "--param", "beta", "--start", "2", "--stop", "9.96", "--step", "0.04"]
P_X_200 = ["sweep", "--param", "p_x", "--start", "0.004", "--stop", "0.8", "--step", "0.004"]
# SHA-256 of the 200-point beta sweep over a per-entity p_x list of 1000
# values: mu sums ln(1/(1 - p_x)) over the list
P_X_LIST = [round(0.05 + 0.0009 * k, 4) for k in range(1000)]
GOLDEN_P_X_LIST_BETA_200 = "162628ffaa2a7d6cb5fe7addcee6447aaf97c81dd74e4a89eab6ce4a624dec3d"
GOLDEN_T_S = "8a218c874feab850f4e223b180c48eefc159b1a3975fe9edf2d19793a6dd0467"
GOLDEN_ANALYTIC = [
    (["sweep", "--param", "beta"], {}, 0,
     "167b6496d49ee5f1409f560dc21d023400d111f081870a33823c6ebdc692531f"),
    (["sweep", "--param", "p_x"], {}, 0,
     "dc53a686da74b75a1f09a0838dbe0fc8b45b1dbfdae36010c403233c7ecc6636"),
    (BETA_200, {}, 0,
     "53fadc64fce71adf99b88a378774980a2c568abe1048f129ae0ccc19aed14cdd"),
    (["sweep", "--param", "E", "--values", "5,10,40"], {}, 0,
     "d6a09f020dee012c8809beac89f8e1be2da4cec97aa19572a5e863ba73e70b2e"),
    (["sweep", "--param", "alpha"], {}, 0,
     "eabde5ac06984118cf47f8e56403faf55c823d4322f18a2debed97a21362b407"),
    (["failsafe"], {}, 1,
     "cccb0f351c5375871b1fd422fecf7326b44e72aabd809f5026188119821f59f1"),
    (["failsafe"], {"tx_step_s": 0.1}, 1,
     "998a90b88ae0527848848443a21744654ba356c0df85cf7d8509f3da6a163960"),
    (["failsafe"], {"Q": 2}, 1,
     "afcecbbd86e4b72d4e7209b9251e7b7a2153241f4589015e23df2e0a30fa8837"),
    (["failsafe"], {"omega_x": [round(0.05 + 0.04 * k, 2) for k in range(22)]}, 1,
     "c2d2c0ab43437f48fa9068a5a12f4e3957631ee1dd9f711e9b9ce6b3131be6f0"),
    (["sweep", "--param", "N", "--values", "2,5,40"], {}, 0,
     "e75ddbf5f96b3852f75d35a7428b88845359283907dae7c1515b7910df04c831"),
    (["sweep", "--param", "T_s", "--values", "105,110,200"], {"t_attack_s": 300.0}, 0,
     GOLDEN_T_S),
    (["sweep", "--param", "d2", "--values", "0.5,0.9,0.99"], {}, 0,
     "0760a171a797d1e9d4744096dc8789c36c4a67b7ec6128ecaeb876fb8071f545"),
    (["sweep", "--param", "r2_m", "--values", "200,500,1000"], {}, 0,
     "6e13dda5a51b3ea6d4a2a3c1d48e7a4e2cb081354a7f15535e6defe7bff81e1c"),
    (["sweep", "--param", "O_b", "--values", "0.5,1,2"], {}, 0,
     "378ba0dd55a147bbaf2e720c5e70a0c75da42ce46f79dcc3c17b40b994d8f500"),
    (["sweep", "--param", "U_prime_N", "--values", "1,2,3"], {}, 0,
     "3494e759aece754a4b406aa798074466ab6833c88a85a58a1d4b18e56fafe3b1"),
    (["sweep", "--param", "alpha_prime", "--values", "0.005,0.01,0.02"], {}, 0,
     "439b41ca59e4ca54e448abb497a4f005ec1706faadd64d3dfb6f3476f68bebee"),
    (["sweep", "--param", "T_s", "--values", "105,110,200"], {}, 0, GOLDEN_T_S),
    (P_X_200, {}, 0, "90309aad5506a9a0fa5d440dad62323e6f7fe1d96474f6fedb393844fe4aebbe"),
    (BETA_200, {"p_x": P_X_LIST}, 0, GOLDEN_P_X_LIST_BETA_200),
    (["sweep", "--param", "beta"], {"p_x": 1e-17}, 0,
     "ce8c783f147df6fe32dd09ef5d85ecd3ea0b56a847c482b82cb022da11de6592"),
    (["sweep", "--param", "seed", "--values", "1,-1"], {}, 2, None),
    (["sweep", "--param", "gamma_prime", "--values", "1e-12,1e-9,1e-6"], {}, 0,
     "b8a334de0a668c4a9b608f051f3c81238cb52221860a691d01d779ca51cfb1b3"),
]
GOLDEN_ANALYTIC_IDS = [
    "sweep_beta", "sweep_p_x", "sweep_beta200", "sweep_E_clamp", "sweep_alpha",
    "failsafe", "failsafe_fine", "failsafe_q2", "failsafe_omega_list",
    "sweep_N", "sweep_T_s", "sweep_d2", "sweep_r2_m", "sweep_O_b",
    "sweep_U_prime_N", "sweep_alpha_prime", "sweep_T_s_derived_t_attack",
    "sweep_p_x200", "sweep_beta200_p_x_list", "sweep_beta_p_x_1e-17", "sweep_seed_negative",
    "sweep_gamma_prime_small",
]
MU_UNDEFINED = "warning: mu: availability must lie strictly in (0, 1), got 1.0"
GOLDEN_STREAMS = {  # id: (rows reported on stdout, or None for no CSV; stderr lines)
    **{name: (3, []) for name in GOLDEN_ANALYTIC_IDS[9:17]},
    "sweep_p_x200": (200, []),
    "sweep_beta200_p_x_list": (200, []),
    "sweep_beta_p_x_1e-17": (5, [MU_UNDEFINED] * 5),
    "sweep_seed_negative": (
        None, ["error: sweep seed=-1: seed must be a 64-bit unsigned integer, got -1"]
    ),
}


def assert_golden_output(tmp_path, argv, overrides, code, digest):
    if overrides:
        argv = argv + [write_config(tmp_path, **overrides)]
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == code
    if digest is None:
        assert not out.exists()
    else:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,overrides,code,digest", GOLDEN_ANALYTIC, ids=GOLDEN_ANALYTIC_IDS
)
def test_analytic_golden_digest(
    tmp_path, monkeypatch, capsys, argv, overrides, code, digest
):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert_golden_output(tmp_path, argv, overrides, code, digest)
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,overrides,code,digest", GOLDEN_ANALYTIC, ids=GOLDEN_ANALYTIC_IDS
)
def test_analytic_commands_never_integrate(
    tmp_path, monkeypatch, capsys, argv, overrides, code, digest
):
    # production routes are closed forms; quadrature runs only in the twins
    def refuse(*args, **kwargs):
        raise AssertionError("a production path called specfun.integrate")

    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert not hasattr(predict_module, "integrate")  # predict has no quadrature route
    assert not hasattr(sustain_module, "integrate")  # the twin imports it when called
    monkeypatch.setattr("v2xsustain.quadrature.integrate", refuse)
    assert_golden_output(tmp_path, argv, overrides, code, digest)
    capsys.readouterr()


@pytest.mark.parametrize("name", GOLDEN_STREAMS)
def test_sweep_golden_streams(tmp_path, monkeypatch, capsys, name):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    argv, overrides, code, digest = GOLDEN_ANALYTIC[GOLDEN_ANALYTIC_IDS.index(name)]
    assert_golden_output(tmp_path, argv, overrides, code, digest)
    rows, err = GOLDEN_STREAMS[name]
    captured = capsys.readouterr()
    wrote = f"wrote {rows} rows to {tmp_path / 'out.csv'}\n"
    assert captured.out == ("" if rows is None else wrote)
    assert captured.err.splitlines() == err


# P_c, M_O_pred and M_O_pred_printed of sweep_gamma_prime_small: the closed
# forms at 50 mpmath digits on the A1 doubles, alpha' = alpha / t2 among
# them. Both connectivity forms once printed 1.8e-5 (P_c) and 8e-8
# (M_O_pred) relative off at gamma' = 1e-12.
SMALL_GAMMA_PRIME_MPMATH = {
    "1e-12": ("4.9999999999874998994e-12", "-235021393.54503303437", "15386597.274926041773"),
    "1e-09": ("4.9999999875000003322e-9", "-235021380.50134614987", "15386596.420969922951"),
    "1e-06": ("4.999987500020833081e-6", "-235008337.27196638539", "15385742.494803442006"),
}


def test_sweep_small_gamma_prime_prints_the_mpmath_digits(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    name = "sweep_gamma_prime_small"
    assert_golden_output(tmp_path, *GOLDEN_ANALYTIC[GOLDEN_ANALYTIC_IDS.index(name)])
    capsys.readouterr()
    with open(tmp_path / "out.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["value"] for row in rows] == list(SMALL_GAMMA_PRIME_MPMATH)
    for row in rows:
        cells = [row["P_c"], row["M_O_pred"], row["M_O_pred_printed"]]
        assert cells == [fmt(float(v)) for v in SMALL_GAMMA_PRIME_MPMATH[row["value"]]]


def test_sweep_alpha_grid_warnings(tmp_path, monkeypatch, capsys):
    # one line per empty cell, in row order: S_N first, then M_O_pred
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    argv, overrides, code, digest = GOLDEN_ANALYTIC[GOLDEN_ANALYTIC_IDS.index("sweep_alpha")]
    assert_golden_output(tmp_path, argv, overrides, code, digest)
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {cell}: window form requires beta > alpha, got beta=2.0 alpha={a}"
        for a in ("2.0", "3.0", "4.0", "5.0") for cell in ("S_N", "M_O_pred")
    ]


def test_sweep_rows_check_only_their_overrides(tmp_path, monkeypatch, capsys):
    # The config is checked once when it is loaded; each beta row checks its
    # beta and alpha, and not the other fields or the list again.
    calls = []
    check = config_module._check_scalar

    def counting(source, name, kind, value):
        calls.append(name)
        return check(source, name, kind, value)

    monkeypatch.setattr(config_module, "_check_scalar", counting)
    assert_golden_output(tmp_path, BETA_200, {"p_x": P_X_LIST}, 0, GOLDEN_P_X_LIST_BETA_200)
    capsys.readouterr()
    assert calls == ["p_x"] * len(P_X_LIST) + ["beta", "alpha"] * 200


def test_sweep_row_evaluates_its_ei_window_once(tmp_path, monkeypatch, capsys):
    # S_N, the unit-pass S_N of M_O_pred and the printed expansion share one
    # Ei(d/t1) - Ei(d/t2) per row, one window series each. The grid's 200
    # windows are distinct, so no row finds another's in the memo, and all
    # lie on the series branch, so no row takes expint_ei.
    calls = []
    series = sustain_module._window_series

    def counting(x1, x2, h, terms):
        calls.append((x1, x2))
        return series(x1, x2, h, terms)

    def no_ei(x):
        raise AssertionError(f"expint_ei({x!r}) on the series branch")

    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    _ei_window.cache_clear()  # an earlier A1 window would serve the first row
    monkeypatch.setattr(sustain_module, "_window_series", counting)
    monkeypatch.setattr(sustain_module, "expint_ei", no_ei)
    index = GOLDEN_ANALYTIC_IDS.index("sweep_beta200")
    assert_golden_output(tmp_path, *GOLDEN_ANALYTIC[index])
    capsys.readouterr()
    assert len(calls) == 200 and len(set(calls)) == len(calls)


@pytest.mark.parametrize(
    "name,calls", [("sweep_beta200", 1), ("sweep_beta200_p_x_list", 1), ("sweep_p_x200", 200)]
)
def test_sweep_computes_mu_once_per_p_x(tmp_path, monkeypatch, capsys, name, calls):
    # mu depends on p_x alone: the rows of a beta sweep share the base's
    # mu, and each row of a p_x sweep has its own
    from v2xsustain import cli

    seen = []
    scale = cli.scale_param

    def counting(availabilities):
        seen.append(availabilities)
        return scale(availabilities)

    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    monkeypatch.setattr(cli, "scale_param", counting)
    assert_golden_output(tmp_path, *GOLDEN_ANALYTIC[GOLDEN_ANALYTIC_IDS.index(name)])
    capsys.readouterr()
    assert len(seen) == calls


# One valid change per config field, all valid together, with distinct
# values inside each scenario part so that a field passed to the wrong
# parameter shows.
CHANGED = {
    "beta": 3.0, "alpha": 0.5, "gamma_prime": 0.2, "alpha_prime": 0.02,
    "N": 14, "E": 12, "E0": 5, "n_inv": 4, "Q": 2,
    "t1_s": 4.0, "t2_s": 100.0, "T_s": 120.0, "tx_step_s": 2.5,
    "t_attack_s": 90.0, "t_prime_s": 60.0, "t_u_s": 3.0, "r1_m": 50.0, "r2_m": 400.0,
    "d1": 0.2, "d2": 0.8, "p_x": [0.2, 0.3], "omega_x": 0.3, "S_N_TH": 40.0,
    "M_O_TH": 900.0, "U_prime_N": 2, "O_b": 1.5, "U_k": 3.0, "D": 4.0,
    "seed": 7, "event_cap": 1000,
}


def test_changed_values_cover_every_field():
    assert list(CHANGED) == [f.name for f in FIELDS]


def test_build_bundle_gives_each_part_its_fields():
    c = merge_config(CHANGED)
    b = build_bundle(c)
    scn = b.scenario
    want = [
        NetworkParams(N=c["N"], E=c["E"], E_zero=c["E0"], n_inv=c["n_inv"], Q=c["Q"]),
        RateParams(alpha=c["alpha"], beta=c["beta"], gamma_prime=c["gamma_prime"]),
        TimeWindow(t1=c["t1_s"], t2=c["t2_s"], T=c["T_s"], t_x_step=c["tx_step_s"],
                   t_attack=c["t_attack_s"], t_min_hold=c["t_prime_s"], t_use=c["t_u_s"]),
        RangeParams(r1=c["r1_m"], r2=c["r2_m"]),
        Thresholds(S_N_TH=c["S_N_TH"], M_O_TH=c["M_O_TH"], U_prime_N=c["U_prime_N"],
                   O_b=c["O_b"]),
        LikelihoodBounds(d1=c["d1"], d2=c["d2"]),
    ]
    got = [scn.net, scn.rates, scn.window, scn.range_params, scn.thresholds, b.bounds]
    assert list(map(repr, got)) == list(map(repr, want))


# What an absent field without a default resolves to at the A1 defaults
RESOLVED = {"alpha_prime": 1.0 / 105.0, "t_attack_s": 110.0, "t_prime_s": 110.0,
            "t_u_s": 5.0, "U_k": 1.0, "D": 10.0}


@pytest.mark.parametrize("name", [f.name for f in FIELDS])
def test_reused_parts_match_fresh_builds(name):
    # Sweep rows at the default, a changed value and the default again: each
    # row's parts equal a fresh build of its merged config, and a later row
    # builds anew only the part that takes the field (none for p_x, seed and
    # the other fields no part takes).
    from v2xsustain import cli

    base = default_config()
    changed = 0.2 if name == "p_x" else CHANGED[name]
    owner = [attr for attr, _, names in config_module.PARTS if name in names]
    default = base.get(name, RESOLVED.get(name))
    parts: dict = {}
    for k, value in enumerate([default, changed, default]):
        before = dict(parts)
        cli._sweep_row(name, float(value), base, "<config>", [], parts, [None, None, []])
        overrides = {name: value}
        if name == "beta":
            overrides["alpha"] = value / 2.0
        if name == "E":
            overrides["E0"] = min(base["E0"], value)
        fresh = build_bundle(merge_config(overrides))
        want = {attr: getattr(fresh.scenario, attr) for attr, _, _ in config_module.PARTS[:-1]}
        want["bounds"] = fresh.bounds
        assert parts == want and repr(parts) == repr(want)
        if k:
            assert [attr for attr in parts if parts[attr] is not before[attr]] == owner


def test_beta_sweep_builds_no_bundle(tmp_path, monkeypatch, capsys):
    # a row builds only its parts, never a whole bundle
    from v2xsustain import cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_bundle(*args, **kwargs)

    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    monkeypatch.setattr(cli, "build_bundle", counting)
    monkeypatch.setattr(config_module, "build_bundle", counting)
    assert_golden_output(tmp_path, *GOLDEN_ANALYTIC[GOLDEN_ANALYTIC_IDS.index("sweep_beta200")])
    capsys.readouterr()
    assert len(calls) <= 1


def test_reuse_keeps_zero_signs_types_and_failures_apart():
    # 0.0 == -0.0 and 10 == 10.0, but each build keeps its own sign and type;
    # a part whose checks raise raises again on the next build
    assert math.copysign(1.0, build_bundle(merge_config({"alpha": 0.0})).scenario.rates.alpha) > 0
    assert math.copysign(1.0, build_bundle(merge_config({"alpha": -0.0})).scenario.rates.alpha) < 0
    build_bundle(default_config())
    with pytest.raises(ConfigError, match="N must be a positive integer, got 10.0"):
        build_bundle({**default_config(), "N": 10.0})
    for _ in range(2):
        with pytest.raises(ConfigError, match="r2=50.0 must exceed r1=100.0"):
            build_bundle(merge_config({"r2_m": 50.0}))


def test_failsafe_never_calls_the_batch_scale_estimate(tmp_path, monkeypatch, capsys):
    # slot k's mu comes from running sums; a per-slot scale_param over the
    # k-slot prefix would make scoring quadratic in the slot count
    def refuse(*args, **kwargs):
        raise AssertionError("failsafe called the batch scale_param")

    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    monkeypatch.setattr("v2xsustain.cli.scale_param", refuse)
    monkeypatch.setattr("v2xsustain.predict.scale_param", refuse)
    fine = GOLDEN_ANALYTIC_IDS.index("failsafe_fine")
    argv, overrides, code, digest = GOLDEN_ANALYTIC[fine]
    assert_golden_output(tmp_path, argv, overrides, code, digest)
    capsys.readouterr()


def test_failsafe_calls_tau_only_on_operable_slots(tmp_path, monkeypatch, capsys):
    # tau is 0 at mu <= 2 and NaN where mu is; the closed form runs only
    # on the slots where the network is operable
    calls = []

    def counting(mu, bounds, T):
        calls.append(mu)
        return failsafe_tau(mu, bounds, T)

    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    monkeypatch.setattr("v2xsustain.decision.failsafe_tau", counting)
    fine = GOLDEN_ANALYTIC_IDS.index("failsafe_fine")
    argv, overrides, code, digest = GOLDEN_ANALYTIC[fine]
    assert_golden_output(tmp_path, argv, overrides, code, digest)
    capsys.readouterr()
    with open(tmp_path / "out.csv", newline="") as fh:
        mu = [float(row["mu"]) for row in csv.DictReader(fh) if row["mu"]]
    assert len(calls) == sum(m > 2.0 for m in mu) == 18
    assert all(m > 2.0 for m in calls)


def test_failsafe_builds_no_report_per_slot(tmp_path, monkeypatch, capsys):
    # the scorer shares decide()'s rule and failsafe_point's F_S, but builds
    # no FailSafeReport
    def refuse(*args, **kwargs):
        raise AssertionError("failsafe built a FailSafeReport")

    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    monkeypatch.setattr("v2xsustain.decision.FailSafeReport", refuse)
    fine = GOLDEN_ANALYTIC_IDS.index("failsafe_fine")
    argv, overrides, code, digest = GOLDEN_ANALYTIC[fine]
    assert_golden_output(tmp_path, argv, overrides, code, digest)
    capsys.readouterr()


def test_simulate_truncation_fails(tmp_path, capsys):
    # the smallest cap that the 22 slots at A1 pass
    cfg = write_config(tmp_path, event_cap=22)
    out = tmp_path / "sims"
    assert main(["simulate", cfg, "--out", str(out)]) == 1
    assert "truncated" in capsys.readouterr().err


def test_table3_checks_pass(tmp_path, capsys):
    out = tmp_path / "table3.csv"
    assert main(["table3", "--out", str(out)]) == 0
    assert "58/58" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "case_index,group,check,detail,passed"
    assert len(lines) == 59


def test_failsafe_rows_and_exit(tmp_path, capsys):
    out = tmp_path / "failsafe.csv"
    code = main(["failsafe", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,S_N,M_O,mu,tau,F_S,decision,rationale"
    assert len(lines) == 23
    printed = capsys.readouterr().out
    assert "final decision:" in printed
    decisions = {line.split(",")[6] for line in lines[1:]}
    assert decisions <= {"continue", "update_keys", "reconfigure"}
    assert code in (0, 1)
    final = lines[-1].split(",")[6]
    assert code == (0 if final == "continue" else 1)


def test_failsafe_point_holds_after_first_breach(tmp_path, capsys):
    # at seed 1 the third slot's S_N (about 754) is the first below 760
    cfg = write_config(tmp_path, seed=1, S_N_TH=760.0)
    out = tmp_path / "failsafe.csv"
    assert main(["failsafe", cfg, "--out", str(out)]) == 1
    f_s = [line.split(",")[5] for line in out.read_text().splitlines()[1:]]
    assert f_s == ["5", "10"] + ["10"] * 20
    capsys.readouterr()


def test_failsafe_scale_floor_outranks_missing_observations(tmp_path, capsys):
    # the last slot has no S_N or M_O, but its mu 1.668 is at or below 2
    cfg = write_config(tmp_path, E0=10, beta=0.1, gamma_prime=0.02, alpha=0.05,
                       omega_x=0.9, seed=1)
    out = tmp_path / "failsafe.csv"
    assert main(["failsafe", cfg, "--out", str(out)]) == 1
    last = out.read_text().splitlines()[-1].split(",")
    assert last[:4] == ["110", "", "", "1.66793928"] and last[6] == "reconfigure"
    assert "final decision: reconfigure" in capsys.readouterr().out


@pytest.mark.parametrize("name", GOLDEN_ANALYTIC_IDS[5:9])
def test_failsafe_goldens_reconfigure_at_the_scale_floor(tmp_path, monkeypatch, capsys, name):
    # no pinned row has mu <= 2 without reconfigure, so the decision order
    # (scale floor before missing observations) moves none of these pins
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert_golden_output(tmp_path, *GOLDEN_ANALYTIC[GOLDEN_ANALYTIC_IDS.index(name)])
    capsys.readouterr()
    rows = [line.split(",") for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
    assert rows and all(r[6] == "reconfigure" for r in rows if r[3] and float(r[3]) <= 2.0)


def test_failsafe_without_slots(tmp_path, capsys):
    # a slot wider than the span T leaves no slot to score; t_u_s keeps the
    # key-use time under the hold floor, which the wide slot would breach
    cfg = write_config(tmp_path, tx_step_s=500.0, t_u_s=1.0)
    out = tmp_path / "failsafe.csv"
    assert main(["failsafe", cfg, "--out", str(out)]) == 1
    assert out.read_text() == "t_s,S_N,M_O,mu,tau,F_S,decision,rationale\n"
    assert "final decision: None" in capsys.readouterr().out


def test_failsafe_compliance_of_one_empties_every_mu(tmp_path, capsys):
    # 1 - 1e-17 rounds to a compliance of exactly 1.0, outside (0, 1), so
    # no prefix has a scale estimate
    cfg = write_config(tmp_path, omega_x=[1e-17] + [0.5] * 21)
    out = tmp_path / "failsafe.csv"
    assert main(["failsafe", cfg, "--out", str(out)]) == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 22
    assert all(row[3] == "" and row[4] == "" for row in rows)
    assert {row[6] for row in rows} == {"update_keys"}
    capsys.readouterr()


def test_failsafe_short_omega_list_fails_before_any_draw(tmp_path, monkeypatch, capsys):
    # T_s and tx_step_s fix the slot count, so a list too short for it is an
    # error of its file, found before the simulation runs
    def refuse(*args, **kwargs):
        raise AssertionError("failsafe simulated with a short omega_x list")

    monkeypatch.setattr("v2xsustain.sim.run_simulation", refuse)
    cfg = write_config(tmp_path, omega_x=[0.5, 0.5])
    out = tmp_path / "failsafe.csv"
    assert main(["failsafe", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: omega_x list has 2 entries, 22 slots requested\n"
    )
    assert not out.exists()


def test_main_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    out = tmp_path / "x"
    assert main(["simulate", "--out", str(out), "--runs", "0"]) == 2
    assert main(["simulate", "--out", str(out), "--seed", "-3"]) == 2
    assert not out.exists()
    capsys.readouterr()
