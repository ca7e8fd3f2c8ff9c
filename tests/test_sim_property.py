"""Property tests of the simulator.

Every scenario the config layer accepts either simulates within its event
cap or fails with a typed error, in bounded memory; and sim._time_order is
numpy's stable argsort on times that tie or differ only in their low bits.

Every field of config.FIELDS is drawn by its kind, so a new field is drawn
without a change here. Floats (rates, windows, thresholds) are drawn
log-uniform over many decades, so the draws include Poisson means past what
numpy accepts and runs whose events exceed the cap by many orders of
magnitude. Derandomized, so Tier-1 stays deterministic. Skipped when
Hypothesis is not installed.
"""

import tracemalloc

import numpy as np
import pytest

from v2xsustain import build_bundle, merge_config, run_simulation, sim
from v2xsustain.config import FIELDS
from v2xsustain.errors import (
    ConfigError,
    DomainError,
    OverflowRangeError,
    SimulationTruncated,
)

from oracles import log_uniform

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EVENT_CAP = 10_000
# A run of near EVENT_CAP events and slots peaks at about 1.3 MiB (2 MiB on
# the first call); a peak that grew with the rates would pass this by far.
PEAK_BOUND = 4 * 2**20


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


@st.composite
def near_tied_times(draw) -> np.ndarray:
    """Up to 4 base times >= 0 with 0 to 2**w - 1 added to their bit
    patterns, so many times differ only in their low bits, mixed with runs
    of +0.0 and +inf; 0 to 3000 times, the bulk drawn from a numpy seed."""
    bases = np.array(draw(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=4)))
    n = draw(st.integers(0, 3000) | st.integers(0, 8))
    width, run = draw(st.integers(0, 16)), draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = np.abs(bases).view(np.int64)[rng.integers(0, len(bases), n)]
    t = (bits + rng.integers(0, 2**width, n)).view(np.float64)
    for special in (0.0, np.inf):
        starts = rng.integers(0, n, rng.integers(0, 4)) if n else []
        for lo in starts:
            t[lo : lo + run] = special
    return t


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(t=near_tied_times())
def test_time_order_is_the_stable_argsort(t):
    order = sim._time_order(t)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(t, kind="stable"))
