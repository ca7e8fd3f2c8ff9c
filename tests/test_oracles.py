"""Property test: each production closed form agrees with its quadrature
twin over random admissible inputs.

The twins are `sustain.sustainability_window_quadrature` and the two in
`oracles.py`. They run at `rel_tol=1e-12`, because at the default 1e-10
the S_N twin itself drifts past 1e-9 on wide windows. Rates and windows
are drawn log-uniform over many decades. Derandomized, so Tier-1 stays
deterministic. Skipped when Hypothesis is not installed.
"""

import pytest

from v2xsustain import (
    SCALE_FLOOR,
    LikelihoodBounds,
    NetworkParams,
    RateParams,
    TimeWindow,
    failsafe_tau,
    predicted_key_updates,
    sustainability_window,
    sustainability_window_quadrature,
)
from v2xsustain.errors import DomainError, OverflowRangeError

from oracles import failsafe_likelihood, predicted_key_updates_quadrature

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TWIN_TOL = 1e-12
# integrate scales its tolerance by max(|estimate|, 1e-300), so a twin
# value below that floor no longer carries TWIN_TOL relative accuracy
TWIN_FLOOR = 1e-300


def log_uniform(lo: float, hi: float):
    """10**e for e uniform in [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def scenarios(draw):
    alpha = draw(log_uniform(-8, 2))
    t1 = draw(log_uniform(-2, 6))
    t2 = t1 * (1.0 + draw(log_uniform(-3, 3)))
    E = draw(st.integers(2, 200))
    net = NetworkParams(
        N=draw(st.integers(1, 50)), E=E, n_inv=draw(st.integers(1, E - 1)),
        Q=draw(st.integers(1, 10)),
    )
    rates = RateParams(alpha=alpha, beta=alpha * (1.0 + draw(log_uniform(-3, 3))))
    return rates, net, TimeWindow(t1=t1, t2=t2, T=t2)


@st.composite
def likelihoods(draw):
    d1 = draw(st.floats(0.0, 0.99))
    d2 = draw(st.floats(d1, 0.999, exclude_min=True))
    return draw(log_uniform(-2, 3.3)), LikelihoodBounds(d1=d1, d2=d2)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(case=scenarios(), fail_safe=likelihoods())
@hypothesis.example(
    # (a/2)(e^{-a/t2} - e^{-a/t1}) subtracts two numbers near 1 here and
    # was 1.1e-8 off in relative terms
    case=(
        RateParams(alpha=6.162321956722076e-05, beta=2.0),
        NetworkParams(N=10, E=10, n_inv=5, Q=1),
        TimeWindow(t1=972.0881573981684, t2=1059.5528089545692, T=1059.5528089545692),
    ),
    fail_safe=(3.0, LikelihoodBounds(d1=0.1, d2=0.9)),
)
@hypothesis.example(
    # (1-d1)^mu - (1-d2)^mu subtracts two close powers here and was
    # 3.9e-8 off in relative terms
    case=(
        RateParams(alpha=1.0, beta=2.0),
        NetworkParams(N=10, E=10, n_inv=5, Q=1),
        TimeWindow(t1=5.0, t2=105.0, T=110.0),
    ),
    fail_safe=(10.0, LikelihoodBounds(d1=0.25, d2=0.2500000001)),
)
def test_closed_forms_match_their_quadrature_twins(case, fail_safe):
    rates, net, window = case
    try:
        s_n = sustainability_window(rates, net, window)
    except (DomainError, OverflowRangeError):
        hypothesis.assume(False)
    twin = sustainability_window_quadrature(rates, net, window, rel_tol=TWIN_TOL)
    assert s_n == pytest.approx(twin, rel=1e-9, abs=0.0)

    twin = predicted_key_updates_quadrature(rates, window, rel_tol=TWIN_TOL)
    hypothesis.assume(twin >= TWIN_FLOOR)
    assert predicted_key_updates(rates, window) == pytest.approx(twin, rel=1e-9, abs=0.0)

    mu, bounds = fail_safe
    twin = failsafe_likelihood(mu, bounds, window.T).tau
    hypothesis.assume(mu <= SCALE_FLOOR or twin >= TWIN_FLOOR)
    assert failsafe_tau(mu, bounds, window.T) == pytest.approx(twin, rel=1e-9, abs=0.0)
