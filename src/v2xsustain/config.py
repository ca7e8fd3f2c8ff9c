"""Scenario configuration: JSON ingestion with embedded defaults.

Field names mirror the model symbols one to one (beta, alpha, N, E, E0,
n_inv, Q, t1_s, t2_s, T_s, tx_step_s, gamma, gamma_prime, r1_m, r2_m, c1,
c2, d1, d2, p_x, omega_x, S_N_TH, M_O_TH, U_prime_N, O_b, seed). Every
field has a default from the reference settings, so a config file only
needs the overrides. A few additional optional fields cover inputs the
constraint checker needs (t_u_s, t_prime_s, t_attack_s, U_k, D) plus
alpha_prime, event_cap, count_reauth_passes, and label.

p_x and omega_x accept a scalar (broadcast per entity or per slot) or an
explicit list.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .decision import Thresholds
from .errors import ConfigError, DomainError
from .predict import LikelihoodBounds
from .sustain import NetworkParams, RangeParams, RateParams, TimeWindow

ENV_CONFIG_PATH = "V2XSUSTAIN_CONFIG"

_FLOAT_FIELDS = {
    "beta", "alpha", "gamma", "gamma_prime",
    "t1_s", "t2_s", "T_s", "tx_step_s",
    "r1_m", "r2_m", "c1", "c2", "d1", "d2",
    "S_N_TH", "M_O_TH", "O_b",
    "t_u_s", "t_prime_s", "t_attack_s", "U_k", "D", "alpha_prime",
}
INT_FIELDS = {"N", "E", "E0", "n_inv", "Q", "U_prime_N", "seed", "event_cap"}
_BOOL_FIELDS = {"count_reauth_passes"}
_STR_FIELDS = {"label"}
_LIST_OK_FIELDS = {"p_x", "omega_x"}
_ALL_FIELDS = _FLOAT_FIELDS | INT_FIELDS | _BOOL_FIELDS | _STR_FIELDS | _LIST_OK_FIELDS


def default_config() -> dict:
    """Reference scenario settings (the A1 point of the evaluation grid)."""
    return {
        "beta": 2.0,
        "alpha": 1.0,
        "N": 10,
        "E": 10,
        "E0": 10,
        "n_inv": 5,
        "Q": 1,
        "t1_s": 5.0,
        "t2_s": 105.0,
        "T_s": 110.0,
        "tx_step_s": 5.0,
        "gamma": 1.0,
        "gamma_prime": 0.1,
        "r1_m": 100.0,
        "r2_m": 500.0,
        "c1": 0.1,
        "c2": 0.9,
        "d1": 0.1,
        "d2": 0.9,
        "p_x": 0.5,
        "omega_x": 0.5,
        "S_N_TH": 50.0,
        "M_O_TH": 1000.0,
        "U_prime_N": 1,
        "O_b": 1.0,
        "seed": 1234,
        "event_cap": 2_000_000,
        "count_reauth_passes": True,
        "label": "A1",
    }


def _check_scalar(name: str, value) -> float | int | bool | str:
    if name in _BOOL_FIELDS:
        if not isinstance(value, bool):
            raise ConfigError(f"field {name!r}: expected a boolean, got {value!r}")
        return value
    if name in _STR_FIELDS:
        if not isinstance(value, str):
            raise ConfigError(f"field {name!r}: expected a string, got {value!r}")
        return value
    if name in INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field {name!r}: expected an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {name!r}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"field {name!r}: integer beyond the float range") from None
    if not math.isfinite(number):
        raise ConfigError(f"field {name!r}: expected a finite number, got {value!r}")
    return number


def merge_config(overrides: dict, source: str = "<dict>") -> dict:
    """Defaults overlaid with the provided fields; unknown names rejected."""
    config = default_config()
    for name, value in overrides.items():
        if name not in _ALL_FIELDS:
            raise ConfigError(f"{source}: unknown field {name!r}")
        if name in _LIST_OK_FIELDS:
            if isinstance(value, list):
                if not value:
                    raise ConfigError(f"{source}: field {name!r} list is empty")
                config[name] = [
                    _check_scalar(name, v) for v in value
                ]
            else:
                config[name] = _check_scalar(name, value)
        else:
            config[name] = _check_scalar(name, value)
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
    count_reauth_passes: bool = True
    label: str = ""

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


def build_bundle(config: dict, source: str = "<config>") -> ScenarioBundle:
    """Turn a merged config dict into typed scenario objects.

    Structural invariant breaches (reversed windows, E0 > E, probabilities
    off range) surface as ConfigError naming the source; admissibility
    violations are left to check_constraints, which treats them as data.
    """
    for name in ("p_x", "omega_x"):
        values = config[name] if isinstance(config[name], list) else [config[name]]
        for v in values:
            if not 0.0 < v < 1.0:
                raise ConfigError(
                    f"{source}: field {name!r} values must lie strictly in (0, 1), "
                    f"got {v!r}"
                )
    try:
        net = NetworkParams(
            N=config["N"], E=config["E"], E_prime=0, E_zero=config["E0"],
            n_inv=config["n_inv"], Q=config["Q"],
        )
        rates = RateParams(
            alpha=config["alpha"], beta=config["beta"],
            gamma=config["gamma"], gamma_prime=config["gamma_prime"],
        )
        window = TimeWindow(
            t1=config["t1_s"], t2=config["t2_s"], T=config["T_s"],
            t_x_step=config["tx_step_s"],
            t_attack=config.get("t_attack_s", config["T_s"]),
            t_min_hold=config.get("t_prime_s", config["T_s"]),
            t_use=config.get("t_u_s", config["tx_step_s"]),
        )
        rp = RangeParams(r1=config["r1_m"], r2=config["r2_m"])
        thresholds = Thresholds(
            S_N_TH=config["S_N_TH"], M_O_TH=config["M_O_TH"],
            U_prime_N=config["U_prime_N"], O_b=config["O_b"],
        )
        bounds = LikelihoodBounds(
            d1=config["d1"], d2=config["d2"], c1=config["c1"], c2=config["c2"],
        )
        scenario = Scenario(
            net=net, rates=rates, window=window, range_params=rp,
            thresholds=thresholds, seed=config["seed"],
            event_cap=config["event_cap"],
            count_reauth_passes=config["count_reauth_passes"],
            label=config["label"],
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
        U_k=config.get("U_k", float(config["U_prime_N"])),
        D=config.get("D", float(config["N"])),
        alpha_prime=config.get("alpha_prime"),
    )


def load_bundle(path: str | Path) -> ScenarioBundle:
    return build_bundle(load_config(path), source=str(path))
