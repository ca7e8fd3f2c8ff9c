"""Property test: every scenario the config layer accepts either simulates
within its event cap or fails with a typed error, in bounded memory.

Rates and windows are drawn log-uniform over many decades, so the draws
include Poisson means past what numpy accepts and runs whose events exceed
the cap by many orders of magnitude. Derandomized, so Tier-1 stays
deterministic. Skipped when Hypothesis is not installed.
"""

import tracemalloc

import pytest

from v2xsustain import build_bundle, merge_config, run_simulation
from v2xsustain.errors import DomainError, OverflowRangeError, SimulationTruncated

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EVENT_CAP = 10_000
# A run of near EVENT_CAP events and slots peaks at about 1.3 MiB (2 MiB on
# the first call); a peak that grew with the rates would pass this by far.
PEAK_BOUND = 4 * 2**20


def log_uniform(lo: float, hi: float):
    """10**e for e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def configs(draw) -> dict:
    T = draw(log_uniform(-3, 12))
    t2 = T * draw(log_uniform(-3, 0))
    return {
        "T_s": T,
        "t2_s": t2,
        "t1_s": t2 * draw(st.floats(1e-3, 0.999)),
        "tx_step_s": T * draw(log_uniform(-4.5, -0.01)),  # below T, as t_use < t_min_hold needs
        "beta": draw(log_uniform(-6, 20)),
        "alpha": draw(st.one_of(st.just(0.0), log_uniform(-6, 20))),
        "gamma_prime": draw(st.one_of(st.just(0.0), log_uniform(-6, 6))),
        "E0": draw(st.integers(0, 10)),
        "Q": draw(st.integers(1, 4)),
        "count_reauth_passes": draw(st.booleans()),
        "event_cap": draw(st.integers(1, EVENT_CAP)),
        "seed": draw(st.integers(0, 2**32)),
    }


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(config=configs())
def test_accepted_scenarios_end_typed_in_bounded_memory(config):
    scenario = build_bundle(merge_config(config)).scenario
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
