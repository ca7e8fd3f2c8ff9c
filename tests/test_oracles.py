"""Property tests: each production closed form agrees with its quadrature
twin over random admissible inputs, and scale_param and both connectivity
forms with 50-digit mpmath, within the bounds their docstrings state.

The twins are `sustain.sustainability_window_quadrature` and the two in
`oracles.py`. They run at `rel_tol=1e-12`, because at the default 1e-10
the S_N twin itself drifts past 1e-9 on wide windows. Rates and windows
are drawn log-uniform over many decades. Derandomized, so Tier-1 stays
deterministic. Skipped when Hypothesis is not installed.
"""

import math

import pytest

from v2xsustain import (
    SCALE_FLOOR,
    LikelihoodBounds,
    NetworkParams,
    RateParams,
    TimeWindow,
    connectivity_prob,
    connectivity_window_factor,
    failsafe_tau,
    predicted_key_updates,
    scale_param,
    sustainability_window,
    sustainability_window_quadrature,
)
from v2xsustain.errors import DomainError, OverflowRangeError

from oracles import failsafe_likelihood, log_uniform, predicted_key_updates_quadrature

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TWIN_TOL = 1e-12
# integrate scales its tolerance by max(|estimate|, 1e-300), so a twin
# value below that floor no longer carries TWIN_TOL relative accuracy
TWIN_FLOOR = 1e-300


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


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(a=st.one_of(
    st.floats(5e-324, 1.0 - 2.0**-53),
    st.integers(1, 53).map(lambda k: 1.0 - 2.0**-k),
    st.floats(1.0, 15.9).map(lambda e: 1.0 - 10.0**-e),
))
@hypothesis.example(a=5e-324)
@hypothesis.example(a=1.0 - 2.0**-53)
@hypothesis.example(a=1.0 - 1e-8)
@hypothesis.example(a=1.0 - 1e-12)
@hypothesis.example(a=1.0 - 1e-15)  # 0.10 off while the sum took ln(1/a)
def test_scale_param_one_entry_within_its_bound(a):
    # the bound its docstring states, against 1 / ln(1/a) on the float a
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = 1 / -mpmath.log(mpmath.mpf(a))
        assert abs((scale_param([a]) - ref) / ref) <= 1e-15, a


# E0 in {0, E/2, E} of an even E
COHORTS = st.integers(1, 10**9).flatmap(
    lambda h: st.sampled_from([(2 * h, 0), (2 * h, h), (2 * h, 2 * h)])
)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(x=log_uniform(-15, math.log10(50.0)), t=log_uniform(-3, 6),
                  cohort=COHORTS)
@hypothesis.example(x=5e-12, t=5.0, cohort=(10, 10))  # 1.8e-5 off as (E - E0 e^{-x}) / E
@hypothesis.example(x=5e-9, t=5.0, cohort=(10, 10))  # 2.4e-9 off
@hypothesis.example(x=50.0, t=5.0, cohort=(10, 5))
def test_connectivity_prob_within_its_bound(x, t, cohort):
    # gamma' t = x in [1e-15, 50]; the bound against the floats gamma' and t
    mpmath = pytest.importorskip("mpmath")
    E, E0 = cohort
    g = x / t
    with mpmath.workdps(50):
        ref = (E - E0 * mpmath.exp(-mpmath.mpf(g) * t)) / E
        got = connectivity_prob(NetworkParams(N=10, E=E, E_zero=E0), g, t)
        assert abs((got - ref) / ref) <= 1e-15, (g, t, E0)


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(x=log_uniform(-15, math.log10(50.0)), t1=log_uniform(-3, 6),
                  width=log_uniform(-12, 3), cohort=COHORTS)
@hypothesis.example(x=105e-12, t1=5.0, width=20.0, cohort=(10, 10))  # 8.4e-8 off by subtraction
@hypothesis.example(x=105e-9, t1=5.0, width=20.0, cohort=(10, 10))
@hypothesis.example(x=1e-3, t1=5.0, width=2e-7, cohort=(10, 10))  # a 1e-6 s window
def test_connectivity_window_factor_within_its_bound(x, t1, width, cohort):
    # rate t2 = x in [1e-15, 50]; the error against 1 + |(E0 / (E rate)) decay|
    mpmath = pytest.importorskip("mpmath")
    E, E0 = cohort
    t2 = t1 * (1.0 + width)
    rate = x / t2
    with mpmath.workdps(50):
        r = mpmath.mpf(rate)
        term = E0 / (E * r) * (mpmath.exp(-r * t1) - mpmath.exp(-r * t2))
        got = connectivity_window_factor(
            NetworkParams(N=10, E=E, E_zero=E0), rate, TimeWindow(t1, t2, t2)
        )
        assert abs(got - (1 - term)) <= 1e-14 * (1 + abs(term)), (rate, t1, t2, E0)
