"""Prediction-side tests.

Oracles: the predicted update mass has closed form
(alpha/2)(e^{-alpha/t2} - e^{-alpha/t1}), and the fail-safe likelihood has
antiderivative (1/T)((1-d1)^mu - (1-d2)^mu). Both are frozen here
independently of the implementations they check; the production closed
forms failsafe_tau and predicted_key_updates are also checked against
their quadrature twins in oracles.py.
"""

import math
import sys

import numpy as np
import pytest

from v2xsustain import (
    SCALE_FLOOR,
    LikelihoodBounds,
    NetworkParams,
    RangeParams,
    RateParams,
    TimeWindow,
    connectivity_prob,
    connectivity_window_factor,
    failsafe_tau,
    predicted_key_updates,
    predicted_message_overhead,
    resolve_alpha_prime,
    scale_param,
    signaling_overhead,
    sustainability_window,
)
from v2xsustain.errors import DomainError

from oracles import (
    failsafe_likelihood,
    predicted_key_updates_quadrature,
    scale_param_sustainability,
)

NET = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=1)
RATES = RateParams(alpha=1.0, beta=2.0, gamma_prime=0.1)
WINDOW = TimeWindow(t1=5.0, t2=105.0, T=110.0)
RANGE = RangeParams(r1=100.0, r2=500.0)

U_K_PRED_REF = 0.08589532262067583  # (1/2)(e^-1/105 - e^-1/5)
CONN_FACTOR_REF = -5.065031232632837  # 1 - 10 (e^-0.5 - e^-10.5), as printed


def test_likelihood_bounds_validation():
    with pytest.raises(DomainError):
        LikelihoodBounds(d1=0.9, d2=0.1)
    with pytest.raises(DomainError):
        LikelihoodBounds(d1=0.1, d2=1.0)
    with pytest.raises(DomainError):
        LikelihoodBounds(d1=0.5, d2=0.5)
    LikelihoodBounds(d1=0.0, d2=0.5)  # closed lower end is fine


def test_scale_param_credentials():
    # four entities at availability 1/e: mu = 4 / (4 * 1) = 1
    assert scale_param([math.exp(-1.0)] * 4) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert scale_param([0.5] * 10) == pytest.approx(1.0 / math.log(2.0), rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        scale_param([])
    with pytest.raises(DomainError):
        scale_param([0.5, 1.0])


def test_scale_param_outgoing():
    # the outgoing-rate estimator 1 / ln(1/(1-gamma')) is the one-entry case
    assert scale_param([1.0 - (1.0 - math.exp(-1.0))]) == pytest.approx(
        1.0, rel=1e-12, abs=0.0
    )
    assert scale_param([1.0 - 0.9]) == pytest.approx(1.0 / math.log(10.0), rel=1e-12, abs=0.0)
    for gamma_prime in (0.0, 1.0):
        with pytest.raises(DomainError):
            scale_param([1.0 - gamma_prime])
    # 1 - 1e-17 rounds to 1: a typed error, not a division by ln(1) = 0
    with pytest.raises(DomainError, match="strictly in"):
        scale_param([1.0 - 1e-17])


def test_scale_param_outgoing_decreasing_in_rate():
    vals = [scale_param([1.0 - g]) for g in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_scale_param_sustainability():
    got = scale_param_sustainability(mean_sustainability=100.0, omegas=[0.5] * 4)
    assert got == pytest.approx(100.0 / (4.0 * math.log(2.0)), rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        scale_param_sustainability(mean_sustainability=0.0, omegas=[0.5])
    with pytest.raises(DomainError):
        scale_param_sustainability(mean_sustainability=1.0, omegas=[])


def test_connectivity_prob_values_and_monotonicity():
    net = NetworkParams(N=10, E=50, E_zero=50, n_inv=5)
    assert connectivity_prob(net, 0.1, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert connectivity_prob(net, 0.1, 5.0) == pytest.approx(
        1.0 - math.exp(-0.5), rel=1e-12, abs=0.0
    )
    ts = np.linspace(0.0, 200.0, 300)
    vals = [connectivity_prob(net, 0.1, float(t)) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v < 1.0 for v in vals)
    # partial initial cohort starts above zero
    half = NetworkParams(N=10, E=50, E_zero=25, n_inv=5)
    assert connectivity_prob(half, 0.1, 0.0) == pytest.approx(0.5, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        connectivity_prob(net, -0.1, 1.0)
    with pytest.raises(DomainError):
        connectivity_prob(net, 0.1, -1.0)


def test_connectivity_window_factor_reference():
    assert connectivity_window_factor(NET, 0.1, WINDOW) == pytest.approx(
        CONN_FACTOR_REF, rel=1e-12, abs=0.0
    )
    # E * rate = 4 here (it is 1 above): E0 / (E rate) = 8 / 4
    net = NetworkParams(N=10, E=20, E_zero=8, n_inv=5, Q=1)
    assert connectivity_window_factor(net, 0.2, WINDOW) == pytest.approx(
        0.26424111917362747, rel=1e-12, abs=0.0  # 1 - 2 (e^-1 - e^-21)
    )
    with pytest.raises(DomainError):
        connectivity_window_factor(NET, 0.0, WINDOW)


def test_predicted_key_updates_closed_form():
    got = predicted_key_updates(RATES, WINDOW)
    closed = 0.5 * (math.exp(-1.0 / 105.0) - math.exp(-1.0 / 5.0))
    assert got == pytest.approx(closed, rel=1e-10, abs=0.0)
    assert got == pytest.approx(U_K_PRED_REF, rel=1e-10, abs=0.0)
    with pytest.raises(DomainError):
        predicted_key_updates(RateParams(alpha=0.0, beta=1.0), WINDOW)


def test_predicted_key_updates_closed_form_random_rates():
    rng = np.random.default_rng(5150)
    for _ in range(25):
        a = float(rng.uniform(0.05, 4.9))
        rates = RateParams(alpha=a, beta=a + 1.0)
        closed = (a / 2.0) * (math.exp(-a / 105.0) - math.exp(-a / 5.0))
        twin = predicted_key_updates_quadrature(rates, WINDOW)
        assert twin == pytest.approx(closed, rel=1e-9, abs=0.0)
        assert predicted_key_updates(rates, WINDOW) == pytest.approx(twin, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("width", [1e-3, 1e-5, 1e-9, 1e-12])
def test_predicted_key_updates_on_narrow_windows(width):
    # (a/2)(e^{-a/t2} - e^{-a/t1}) at 50 digits, on the floats t1 and t2
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for a in (0.05, 1.0, 4.9):
            for t1 in (5.0, 37.3, 1000.0):
                t2 = t1 * (1.0 + width)
                ref = (mpmath.mpf(a) / 2) * (
                    mpmath.exp(-mpmath.mpf(a) / t2) - mpmath.exp(-mpmath.mpf(a) / t1)
                )
                rates = RateParams(alpha=a, beta=a + 1.0)
                got = predicted_key_updates(rates, TimeWindow(t1, t2, t2))
                assert abs((got - ref) / ref) < 1e-13, (a, t1)


def test_predicted_key_updates_far_from_unit_time_scales():
    # t1 * t2 would underflow to 0 here (a ZeroDivisionError) and overflow
    # to inf below (a result of 0); the exponent a (t1 - t2) / (t1 t2) does not
    tiny = predicted_key_updates(
        RateParams(alpha=1e-200, beta=1.0), TimeWindow(1e-200, 2e-200, 1.0)
    )
    assert tiny == pytest.approx(
        0.5e-200 * math.exp(-0.5) * -math.expm1(-0.5), rel=1e-14, abs=0.0
    )
    huge = predicted_key_updates(RateParams(alpha=1.0, beta=2.0), TimeWindow(1e200, 2e200, 2e200))
    assert huge == pytest.approx(2.5e-201, rel=1e-14, abs=0.0)


def composed_from_components(net):
    """Q / U_K^pred * (unit-pass S_N * O_S * (r2 - r1) * connectivity factor),
    rebuilt from the public component functions at O_b = 1."""
    alpha_prime = resolve_alpha_prime(RATES, WINDOW)
    return net.Q / predicted_key_updates(RATES, WINDOW) * (
        sustainability_window(RATES, NET, WINDOW)  # NET has Q = 1
        * signaling_overhead(1.0, alpha_prime, net, WINDOW)
        * (RANGE.r2 - RANGE.r1)
        * connectivity_window_factor(net, RATES.gamma_prime, WINDOW)
    )


def test_predicted_overhead_components():
    pred = predicted_message_overhead(RATES, NET, WINDOW, RANGE, 1.0)
    assert resolve_alpha_prime(RATES, WINDOW) == pytest.approx(1.0 / 105.0, rel=1e-15, abs=0.0)
    assert predicted_key_updates(RATES, WINDOW) == pytest.approx(
        U_K_PRED_REF, rel=1e-10, abs=0.0
    )
    assert connectivity_window_factor(NET, RATES.gamma_prime, WINDOW) == pytest.approx(
        CONN_FACTOR_REF, rel=1e-12, abs=0.0
    )
    assert pred.composed == pytest.approx(composed_from_components(NET), rel=1e-14, abs=0.0)


def test_a1_composed_overhead_is_negative():
    # At the A1 defaults the composed M_O_pred is negative, because the
    # connectivity factor 1 - 10 (e^-0.5 - e^-10.5) is. A window average
    # would carry 1/(t2 - t1); which form the paper means is open (README,
    # "Composed overhead at A1"). This pins the current sign and values.
    pred = predicted_message_overhead(RATES, NET, WINDOW, RANGE, 1.0)
    assert connectivity_window_factor(NET, RATES.gamma_prime, WINDOW) < 0.0
    assert pred.composed == pytest.approx(-1.2024148e7, rel=1e-7, abs=0.0)
    assert pred.printed == pytest.approx(7.872080e5, rel=1e-6, abs=0.0)
    relative_difference = abs(pred.composed - pred.printed) / max(
        abs(pred.composed), abs(pred.printed)
    )
    assert relative_difference == pytest.approx(1.0654689, rel=1e-7, abs=0.0)


def test_predicted_overhead_q_linearity():
    base = predicted_message_overhead(RATES, NET, WINDOW, RANGE, 1.0).composed
    for q in range(2, 6):
        net = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=q)
        got = predicted_message_overhead(RATES, net, WINDOW, RANGE, 1.0).composed
        assert got == pytest.approx(q * base, rel=1e-12, abs=0.0)


def test_predicted_overhead_o_b_linearity():
    base = predicted_message_overhead(RATES, NET, WINDOW, RANGE, 1.0).composed
    for k in (0.5, 2.0, 7.25):
        got = predicted_message_overhead(RATES, NET, WINDOW, RANGE, k).composed
        assert got == pytest.approx(k * base, rel=1e-12, abs=0.0)


def test_predicted_overhead_printed_form_is_q_free():
    p1 = predicted_message_overhead(RATES, NET, WINDOW, RANGE, 1.0).printed
    net5 = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=5)
    p5 = predicted_message_overhead(RATES, net5, WINDOW, RANGE, 1.0).printed
    assert p5 == pytest.approx(p1, rel=1e-14, abs=0.0)


def test_predicted_overhead_builds_no_network_params(monkeypatch):
    # the unit-pass S_N takes Q = 1 as a number, not from a copy of net
    net3 = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=3)
    composed = composed_from_components(net3)  # before NetworkParams is refused

    def refuse(self):
        raise AssertionError("predicted_message_overhead built a NetworkParams")

    monkeypatch.setattr(NetworkParams, "__post_init__", refuse)
    pred = predicted_message_overhead(RATES, net3, WINDOW, RANGE, 1.0)
    assert pred.composed == pytest.approx(composed, rel=1e-14, abs=0.0)


def test_predicted_overhead_alpha_prime_domain():
    hot = RateParams(alpha=200.0, beta=300.0, gamma_prime=0.1)
    with pytest.raises(DomainError):
        predicted_message_overhead(hot, NET, WINDOW, RANGE, 1.0)
    # update rate above the short window end breaks the printed expansion
    fast = RateParams(alpha=6.0, beta=8.0, gamma_prime=0.1)
    with pytest.raises(DomainError):
        predicted_message_overhead(fast, NET, WINDOW, RANGE, 1.0)


def test_predicted_overhead_rejects_a_negative_o_b():
    # signaling_overhead makes the one O_b check on the way
    with pytest.raises(DomainError, match="O_b must be >= 0"):
        predicted_message_overhead(RATES, NET, WINDOW, RANGE, -1.0)


def test_predicted_overhead_vanishing_divisors_are_typed():
    # each case once raised a bare ZeroDivisionError
    def predict(alpha, net=NET):
        rates = RateParams(alpha=alpha, beta=2.0, gamma_prime=0.1)
        return predicted_message_overhead(rates, net, WINDOW, RANGE, 1.0, alpha_prime=0.1)

    with pytest.raises(DomainError, match="key updates round to 0"):
        predict(1e-170)  # U_k = alpha^2 (1/t1 - 1/t2) / 2 underflows
    with pytest.raises(DomainError, match="divisor rounds to 0"):
        predict(1e-15)  # ln(1 - alpha/t2) is 0
    with pytest.raises(DomainError, match=r"P\^2 underflows"):
        predict(1.0, NetworkParams(N=1000, E=10))  # P = 2^-1000 is still nonzero


def test_failsafe_likelihood_antiderivative():
    b = LikelihoodBounds(d1=0.1, d2=0.9)
    for mu in (0.5, 1.0, 2.5, 3.0, 7.0, 20.0, 50.0):
        r = failsafe_likelihood(mu, b, 110.0)
        expected = ((1.0 - b.d1) ** mu - (1.0 - b.d2) ** mu) / 110.0
        assert r.integral == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_failsafe_likelihood_floor():
    b = LikelihoodBounds(d1=0.1, d2=0.9)
    for mu in (0.5, 1.0, 2.0):
        r = failsafe_likelihood(mu, b, 110.0)
        assert r.tau == 0.0
        assert r.integral > 0.0
        assert r.closed_full is None and r.closed_reduced is None
    r = failsafe_likelihood(2.0 + 1e-9, b, 110.0)
    assert r.tau > 0.0


def test_failsafe_likelihood_reference_values():
    b = LikelihoodBounds(d1=0.1, d2=0.9)
    assert failsafe_likelihood(1.0, b, 110.0).integral == pytest.approx(
        0.8 / 110.0, rel=1e-10, abs=0.0
    )
    assert failsafe_likelihood(3.0, b, 110.0).tau == pytest.approx(
        0.728 / 110.0, rel=1e-10, abs=0.0
    )


def test_failsafe_likelihood_closed_variants():
    b = LikelihoodBounds(d1=0.1, d2=0.9)
    r = failsafe_likelihood(3.0, b, 110.0)
    base = 0.9 * 0.1
    assert r.closed_reduced == pytest.approx(3.0 * base**2, rel=1e-9, abs=0.0)
    assert r.closed_full == pytest.approx(3.0 / base, rel=1e-9, abs=0.0)
    # the full variant overflows to inf for large mu instead of raising
    assert failsafe_likelihood(300.0, b, 110.0).closed_full == math.inf


def test_failsafe_likelihood_domain():
    b = LikelihoodBounds(d1=0.1, d2=0.9)
    with pytest.raises(DomainError):
        failsafe_likelihood(0.0, b, 110.0)
    with pytest.raises(DomainError):
        failsafe_likelihood(3.0, b, 0.0)


def test_failsafe_tau_matches_quadrature_twin():
    b = LikelihoodBounds(d1=0.1, d2=0.9)
    for mu in (0.5, 1.0, 2.0):
        assert failsafe_tau(mu, b, 110.0) == 0.0
        assert failsafe_likelihood(mu, b, 110.0).tau == 0.0
    assert failsafe_tau(3.0, b, 110.0) == pytest.approx(0.728 / 110.0, rel=1e-12, abs=0.0)
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(200):
        mu = float(rng.uniform(SCALE_FLOOR, 2000.0))
        d1, d2 = sorted(float(x) for x in rng.uniform(0.0, 0.999, size=2))
        bounds = LikelihoodBounds(d1=d1, d2=d2)
        twin = failsafe_likelihood(mu, bounds, 110.0).tau
        if twin < sys.float_info.min:
            continue  # subnormal results lose precision on both routes
        assert failsafe_tau(mu, bounds, 110.0) == pytest.approx(twin, rel=1e-9, abs=0.0)
        checked += 1
    assert checked >= 100
    with pytest.raises(DomainError):
        failsafe_tau(0.0, b, 110.0)
    with pytest.raises(DomainError):
        failsafe_tau(3.0, b, 0.0)


def test_scale_floor_constant():
    assert SCALE_FLOOR == 2.0
