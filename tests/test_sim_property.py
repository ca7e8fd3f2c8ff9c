"""Property test: every scenario the config layer accepts either simulates
within its event cap or fails with a typed error, in bounded memory.

Every field of config.FIELDS is drawn by its kind, so a new field is drawn
without a change here. Floats (rates, windows, thresholds) are drawn
log-uniform over many decades, so the draws include Poisson means past what
numpy accepts and runs whose events exceed the cap by many orders of
magnitude. Derandomized, so Tier-1 stays deterministic. Skipped when
Hypothesis is not installed.
"""

import tracemalloc

import pytest

from v2xsustain import build_bundle, merge_config, run_simulation
from v2xsustain.config import FIELDS
from v2xsustain.errors import (
    ConfigError,
    DomainError,
    OverflowRangeError,
    SimulationTruncated,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EVENT_CAP = 10_000
# A run of near EVENT_CAP events and slots peaks at about 1.3 MiB (2 MiB on
# the first call); a peak that grew with the rates would pass this by far.
PEAK_BOUND = 4 * 2**20


def log_uniform(lo: float, hi: float):
    """10**e for e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


PROBABILITY = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
BY_KIND = {
    "float": log_uniform(-6, 20),
    "int": st.integers(1, 16),
    "bool": st.booleans(),
    "str": st.text(max_size=8),
    "prob": st.one_of(PROBABILITY, st.lists(PROBABILITY, min_size=1, max_size=4)),
}


def increasing(values, n: int = 2):
    """n distinct draws of values, in increasing order."""
    return st.lists(values, min_size=n, max_size=n, unique=True).map(sorted)


@st.composite
def configs(draw) -> dict:
    """Every field of config.FIELDS drawn by its kind; a field without a
    default may also stay absent. The fields that must be ordered or
    coupled to give an admissible scenario are then drawn together."""
    config = {}
    for f in FIELDS:
        by_kind = BY_KIND[f.kind]
        value = draw(by_kind if f.default is not None else st.none() | by_kind)
        if value is not None:
            config[f.name] = value
    T = draw(log_uniform(-3, 12))
    t2 = T * draw(log_uniform(-3, 0))
    E = draw(st.integers(3, 16))
    config.update(
        T_s=T,
        t2_s=t2,
        t1_s=t2 * draw(st.floats(1e-3, 0.999)),
        tx_step_s=T * draw(log_uniform(-4.5, -0.01)),  # below T, as t_use < t_min_hold needs
        # zero rates: no key updates, no departures
        alpha=draw(st.just(0.0) | BY_KIND["float"]),
        gamma_prime=draw(st.just(0.0) | BY_KIND["float"]),
        E=E,
        E0=draw(st.integers(0, E)),
        n_inv=draw(st.integers(2, E - 1)),  # 1 < n_inv < E, as check_constraints needs
        event_cap=draw(st.integers(1, EVENT_CAP)),
    )
    # key timing t_u_s < t_prime_s <= t_attack_s, or the fallbacks
    timing = ("t_u_s", "t_prime_s", "t_attack_s")
    if draw(st.booleans()):
        config.update(zip(timing, draw(increasing(st.floats(0.0, T, exclude_min=True), 3))))
    else:
        for name in timing:
            config.pop(name, None)
    unit = st.floats(0.0, 1.0, exclude_max=True)
    config["r1_m"], config["r2_m"] = draw(increasing(BY_KIND["float"]))
    config["c1"], config["c2"] = draw(increasing(unit))
    config["d1"], config["d2"] = draw(increasing(unit))
    return config


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(config=configs())
def test_accepted_scenarios_end_typed_in_bounded_memory(config):
    try:
        scenario = build_bundle(merge_config(config)).scenario
    except ConfigError:
        # a rejected config raises ConfigError and nothing else; the
        # examples go to configs the config layer accepts
        hypothesis.reject()
    tracemalloc.start()
    try:
        trace = run_simulation(scenario)
        assert len(trace.events) <= scenario.event_cap
    except (DomainError, OverflowRangeError, SimulationTruncated):
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    hypothesis.target(peak / 2**20, label="peak MiB")
    assert peak < PEAK_BOUND
