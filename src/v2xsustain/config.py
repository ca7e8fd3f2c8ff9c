"""Scenario configuration: JSON ingestion with embedded defaults.

`FIELDS` lists every config field once, in resolved-config order: its name
(the model symbol), kind, default and meaning. A config file only needs the
overrides. An absent field without a default (None) takes the fallback its
meaning names; a "prob" field takes a scalar or a per-entity or per-slot list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

from .decision import Thresholds
from .errors import ConfigError, DomainError
from .predict import LikelihoodBounds
from .sustain import NetworkParams, RangeParams, RateParams, TimeWindow

ENV_CONFIG_PATH = "V2XSUSTAIN_CONFIG"


class Field(NamedTuple):
    name: str
    kind: str  # "float", "int", or "prob": a value in (0, 1) or a list of them
    default: float | int | None
    meaning: str


FIELDS = (
    Field("beta", "float", 2.0, "vehicle arrival rate (per s)"),
    Field("alpha", "float", 1.0, "per-vehicle key-update rate (per s)"),
    Field("gamma_prime", "float", 0.1, "outgoing (departure) rate (per s)"),
    Field("alpha_prime", "float", None, "signaling update rate (per s); when absent, "
          "`alpha / t2_s`, or none when `alpha` is 0 (the sweep's `O_S` and `M_O` stay empty)"),
    Field("N", "int", 10, "backhaul hop budget"),
    Field("E", "int", 10, "hub capacity (vehicles)"),
    Field("E0", "int", 10, "initially connected cohort"),
    Field("n_inv", "int", 5, "hop count whose inverse weighs updates"),
    Field("Q", "int", 1, "authentication passes per session"),
    Field("t1_s", "float", 5.0, "integration window start (s)"),
    Field("t2_s", "float", 105.0, "integration window end (s)"),
    Field("T_s", "float", 110.0, "observation span (s)"),
    Field("tx_step_s", "float", 5.0, "reporting slot width (s)"),
    Field("t_attack_s", "float", None, "estimated key-recovery time (s); when absent, `T_s`"),
    Field("t_prime_s", "float", None, "minimum key hold (s); when absent, `t_attack_s`"),
    Field("t_u_s", "float", None, "key time in use (s); when absent, `tx_step_s`"),
    Field("r1_m", "float", 100.0, "short coverage range (m)"),
    Field("r2_m", "float", 500.0, "long coverage range (m)"),
    Field("d1", "float", 0.1, "lower fail-safe checkpoint bound"),
    Field("d2", "float", 0.9, "upper fail-safe checkpoint bound"),
    Field("p_x", "prob", 0.5, "credential non-availability, scalar or list"),
    Field("omega_x", "prob", 0.5, "per-slot non-compliance, scalar or list"),
    Field("S_N_TH", "float", 50.0, "sustainability floor"),
    Field("M_O_TH", "float", 1000.0, "message-overhead ceiling"),
    Field("U_prime_N", "int", 1, "mandatory update quota"),
    Field("O_b", "float", 1.0, "initial authentication overhead"),
    Field("U_k", "float", None, "observed key updates for `validate`; when absent, `U_prime_N`"),
    Field("D", "float", None, "observed vehicles in range for `validate`; when absent, `N`"),
    Field("seed", "int", 1234, "base RNG seed"),
    Field("event_cap", "int", 2_000_000, "simulator event budget"),
)
FIELD_KINDS = {f.name: f.kind for f in FIELDS}
_DEFAULTS = {f.name: f.default for f in FIELDS if f.default is not None}


def default_config() -> dict:
    """Reference scenario settings (the A1 point of the evaluation grid)."""
    return dict(_DEFAULTS)


def _check_scalar(source: str, name: str, kind: str, value) -> float | int:
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{source}: field {name!r}: expected an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{source}: field {name!r}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{source}: field {name!r}: integer beyond the float range") from None
    if not math.isfinite(number):
        raise ConfigError(f"{source}: field {name!r}: expected a finite number, got {value!r}")
    if kind == "prob" and not 0.0 < number < 1.0:
        raise ConfigError(
            f"{source}: field {name!r} values must lie strictly in (0, 1), got {number!r}"
        )
    return number


def merge_config(overrides: dict, source: str = "<dict>") -> dict:
    """Defaults overlaid with the provided fields; unknown names rejected."""
    config = default_config()
    for name, value in overrides.items():
        kind = FIELD_KINDS.get(name)
        if kind is None:
            raise ConfigError(f"{source}: unknown field {name!r}")
        if kind == "prob" and isinstance(value, list):
            if not value:
                raise ConfigError(f"{source}: field {name!r} list is empty")
            config[name] = [_check_scalar(source, name, kind, v) for v in value]
        else:
            config[name] = _check_scalar(source, name, kind, value)
    return config


def load_config(path: str | Path) -> dict:
    """Parse a JSON config file and merge it over the defaults."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from e
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:
        # integers past the interpreter's digit limit, nesting past the stack
        raise ConfigError(f"{path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return merge_config(data, source=str(path))


@dataclass(frozen=True)
class Scenario:
    """One simulated scenario: the model parameters, the seed and the
    simulator's event budget."""

    net: NetworkParams
    rates: RateParams
    window: TimeWindow
    range_params: RangeParams
    thresholds: Thresholds
    seed: int
    event_cap: int = 2_000_000

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.event_cap, int) or self.event_cap < 1:
            raise DomainError(f"event_cap must be positive, got {self.event_cap!r}")


@dataclass(frozen=True)
class ScenarioBundle:
    """Everything a command needs, assembled from one config."""

    scenario: Scenario
    bounds: LikelihoodBounds
    p_x: float | tuple[float, ...]
    omega_x: float | tuple[float, ...]
    U_k: float
    D: float
    alpha_prime: float | None

    def availabilities(self) -> tuple[float, ...]:
        """Credential availabilities 1 - p_x, one per entity for a list.

        A scalar p_x gives one availability: E equal terms give the
        credentials estimator E / (E ln(1/a)) = 1 / ln(1/a), so the E-long
        copy would only cost time and memory linear in E.
        """
        if isinstance(self.p_x, tuple):
            return tuple(1.0 - p for p in self.p_x)
        return (1.0 - self.p_x,)

    def omega_compliance(self, slots: int) -> tuple[float, ...]:
        """Per-slot compliance probabilities 1 - omega_x for `slots` slots."""
        if isinstance(self.omega_x, tuple):
            if len(self.omega_x) < slots:
                raise ConfigError(
                    f"omega_x list has {len(self.omega_x)} entries, "
                    f"{slots} slots requested"
                )
            return tuple(1.0 - w for w in self.omega_x[:slots])
        return tuple(1.0 - self.omega_x for _ in range(slots))


@lru_cache(maxsize=16, typed=True)
def _recent_part(cls, *values):
    return cls(*values)


def build_bundle(config: dict, source: str = "<config>") -> ScenarioBundle:
    """Turn a merged config dict into typed scenario objects.

    Structural invariant breaches (reversed windows, E0 > E) surface as
    ConfigError naming the source; admissibility violations are left to
    check_constraints, which treats them as data.

    Each part takes its config values in its field order. The parts are
    frozen, so one built from the same values (and types) by a recent call
    is reused: a sweep row builds only the parts its overrides change. A
    part whose checks raised is never kept.
    """
    # 0.0 == -0.0 would share an entry, so a config holding a zero builds afresh
    part = _recent_part.__wrapped__ if 0 in config.values() else _recent_part
    try:
        net = part(
            NetworkParams, config["N"], config["E"], config["E0"], config["n_inv"], config["Q"]
        )
        rates = part(RateParams, config["alpha"], config["beta"], config["gamma_prime"])
        window = part(
            TimeWindow, config["t1_s"], config["t2_s"], config["T_s"], config["tx_step_s"],
            config.get("t_attack_s"), config.get("t_prime_s"), config.get("t_u_s"),
        )
        rp = part(RangeParams, config["r1_m"], config["r2_m"])
        thresholds = part(
            Thresholds, config["S_N_TH"], config["M_O_TH"],
            config["U_prime_N"], config["O_b"],
        )
        bounds = part(LikelihoodBounds, config["d1"], config["d2"])
        scenario = Scenario(
            net=net, rates=rates, window=window, range_params=rp,
            thresholds=thresholds, seed=config["seed"], event_cap=config["event_cap"],
        )
    except DomainError as e:
        raise ConfigError(f"{source}: {e}") from e
    p_x = config["p_x"]
    omega_x = config["omega_x"]
    return ScenarioBundle(
        scenario=scenario,
        bounds=bounds,
        p_x=tuple(p_x) if isinstance(p_x, list) else p_x,
        omega_x=tuple(omega_x) if isinstance(omega_x, list) else omega_x,
        U_k=config.get("U_k", float(thresholds.U_prime_N)),
        D=config.get("D", float(net.N)),
        alpha_prime=config.get("alpha_prime"),
    )

