"""Sustainability metric tests.

Frozen expected values were derived independently before implementation:
the loss probability at reference settings is exactly 2^-10, the window
sustainability reduces to 25.6 (Ei(1/5) - Ei(1/105)), and the signaling
time factor has the antiderivative ((1-a')^t2 - (1-a')^t1)/ln(1-a').
"""

import math
import random

import numpy as np
import pytest

from v2xsustain import (
    NetworkParams,
    QuadSpec,
    RangeParams,
    RateParams,
    TimeWindow,
    expint_ei,
    integrate,
    loss_probability_model,
    message_overhead,
    signaling_overhead,
    signaling_time_factor,
    sustainability_window,
    sustainability_window_quadrature,
)
from v2xsustain.errors import DomainError, OverflowRangeError
from v2xsustain.sustain import _ei_window

NET = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=1)
RATES = RateParams(alpha=1.0, beta=2.0, gamma_prime=0.1)
WINDOW = TimeWindow(t1=5.0, t2=105.0, T=110.0)

# frozen reference values at the settings above
P_REF = 0.0009765625  # (1 - 5/10)^10 = 2^-10 exactly
S_N_REF = 83.08320163880992
O_S_REF = 6.1357619589261425
M_O_REF = 627.6884483981444


def test_network_params_validation():
    with pytest.raises(DomainError):
        NetworkParams(N=0, E=10)
    with pytest.raises(DomainError):
        NetworkParams(N=10, E=-1)
    with pytest.raises(DomainError):
        NetworkParams(N=10, E=10, E_zero=11)
    with pytest.raises(DomainError, match="E_zero must be a non-negative integer"):
        NetworkParams(N=1, E=1, E_zero=-1)
    with pytest.raises(DomainError):
        NetworkParams(N=10, E=10, Q=0)
    # n_inv == E is data for the constraint checker, not a construction error
    NetworkParams(N=10, E=5, n_inv=5)


def test_rate_params_validation():
    with pytest.raises(DomainError):
        RateParams(alpha=1.0, beta=0.0)
    with pytest.raises(DomainError):
        RateParams(alpha=-0.1, beta=1.0)
    with pytest.raises(DomainError):
        RateParams(alpha=0.0, beta=1.0, gamma_prime=math.inf)
    RateParams(alpha=0.0, beta=1.0)  # zero update rate is a valid regime


def test_time_window_validation():
    with pytest.raises(DomainError):
        TimeWindow(t1=5.0, t2=5.0, T=10.0)
    with pytest.raises(DomainError):
        TimeWindow(t1=0.0, t2=5.0, T=10.0)
    with pytest.raises(DomainError):
        TimeWindow(t1=5.0, t2=105.0, T=100.0)
    with pytest.raises(DomainError):
        TimeWindow(t1=1.0, t2=2.0, T=3.0, t_min_hold=4.0)  # exceeds t_attack=T
    # the config layer rejects these first; a library caller reaches the checks
    with pytest.raises(DomainError, match="t_attack must be positive"):
        TimeWindow(t1=5.0, t2=105.0, T=110.0, t_attack=0.0)
    with pytest.raises(DomainError, match="t_use must be >= 0"):
        TimeWindow(t1=5.0, t2=105.0, T=110.0, t_use=-1.0)
    w = TimeWindow(t1=5.0, t2=105.0, T=110.0)
    assert w.t_attack == 110.0
    assert w.t_min_hold == 110.0
    assert w.t_use == w.t_x_step
    # t_use >= t_min_hold is admissibility data, not a construction error
    TimeWindow(t1=1.0, t2=2.0, T=5.0, t_use=4.0, t_min_hold=3.0)


def test_non_finite_rates_and_windows_rejected():
    # an unbounded arrival rate or window would never finish a simulation
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="beta"):
            RateParams(alpha=1.0, beta=bad)
        with pytest.raises(DomainError, match="T="):
            TimeWindow(t1=5.0, t2=105.0, T=bad)
        with pytest.raises(DomainError, match="t_x_step"):
            TimeWindow(t1=5.0, t2=105.0, T=110.0, t_x_step=bad)


def test_range_params_validation():
    with pytest.raises(DomainError):
        RangeParams(r1=500.0, r2=100.0)
    with pytest.raises(DomainError):
        RangeParams(r1=-1.0, r2=100.0)


def test_loss_probability_reference_value():
    assert loss_probability_model(NET) == P_REF


def test_loss_probability_matches_repeated_multiplication():
    rng = np.random.default_rng(7101)
    for _ in range(50):
        e = int(rng.integers(6, 60))
        n = int(rng.integers(1, 25))
        n_inv = int(rng.integers(1, min(e, 10)))
        net = NetworkParams(N=n, E=e, n_inv=n_inv)
        acc = 1.0
        for _ in range(n):
            acc *= 1.0 - n_inv / e
        assert loss_probability_model(net) == pytest.approx(acc, rel=1e-14, abs=0.0)


def test_loss_probability_monotonicity():
    # the per-hop delivery chance n_inv/E dilutes as capacity grows, so the
    # all-hops-miss product rises with E and falls with the hop budget N
    e_vals = [10, 20, 30, 40, 50]
    p_by_e = [loss_probability_model(NetworkParams(N=10, E=e, n_inv=5)) for e in e_vals]
    assert all(b > a for a, b in zip(p_by_e, p_by_e[1:]))
    n_vals = [1, 5, 10, 20, 40]
    p_by_n = [loss_probability_model(NetworkParams(N=n, E=10, n_inv=5)) for n in n_vals]
    assert all(b < a for a, b in zip(p_by_n, p_by_n[1:]))


def test_loss_probability_requires_spare_capacity():
    with pytest.raises(DomainError):
        loss_probability_model(NetworkParams(N=10, E=5, n_inv=5))
    with pytest.raises(DomainError):
        loss_probability_model(NetworkParams(N=10, E=5, n_inv=7))


def test_sustainability_window_reference_value():
    assert sustainability_window(RATES, NET, WINDOW) == pytest.approx(
        S_N_REF, rel=1e-12, abs=0.0
    )


def test_sustainability_window_expint_form():
    # alpha^2/(2 beta N P Q) = 25.6 at the reference settings
    expected = 25.6 * (expint_ei(0.2) - expint_ei(1.0 / 105.0))
    assert sustainability_window(RATES, NET, WINDOW) == pytest.approx(
        expected, rel=1e-14, abs=0.0
    )


def test_sustainability_window_closed_form_vs_quadrature():
    rng = np.random.default_rng(1417)
    for _ in range(40):
        beta = float(rng.uniform(0.5, 12.0))
        alpha = beta * float(rng.uniform(0.05, 0.95))
        e = int(rng.integers(6, 60))
        q = int(rng.integers(1, 6))
        net = NetworkParams(N=10, E=e, n_inv=5, Q=q)
        rates = RateParams(alpha=alpha, beta=beta)
        closed = sustainability_window(rates, net, WINDOW)
        quad = sustainability_window_quadrature(rates, net, WINDOW)
        assert closed == pytest.approx(quad, rel=1e-9, abs=0.0)


def test_sustainability_window_domain():
    with pytest.raises(DomainError):
        sustainability_window(RateParams(alpha=0.0, beta=2.0), NET, WINDOW)
    with pytest.raises(DomainError):
        sustainability_window(RateParams(alpha=2.0, beta=2.0), NET, WINDOW)
    with pytest.raises(DomainError):
        sustainability_window_quadrature(RateParams(alpha=3.0, beta=2.0), NET, WINDOW)


def test_sustainability_window_out_of_range_is_typed():
    # alpha^2 overflows a double once alpha exceeds about 1.3e154
    with pytest.raises(OverflowRangeError, match="alpha"):
        sustainability_window(RateParams(alpha=5e307, beta=1e308), NET, WINDOW)
    # a subnormal P = 2^-1040 leaves the prefactor finite but S_N infinite
    with pytest.raises(OverflowRangeError, match="double range"):
        sustainability_window(RATES, NetworkParams(N=1040, E=10), WINDOW)
    # P = 2^-N underflows to 0, and both closed forms divide by it
    huge_n = NetworkParams(N=100_000_000, E=10)
    with pytest.raises(DomainError, match="underflows"):
        sustainability_window(RATES, huge_n, WINDOW)
    with pytest.raises(DomainError, match="underflows"):
        signaling_overhead(1.0, 0.5, huge_n, WINDOW)


def test_ei_window_memo_returns_the_uncached_difference():
    # derandomized windows, each taken twice in a row: a miss, then a hit
    rng = random.Random(19)
    _ei_window.cache_clear()
    for _ in range(200):
        d = 10.0 ** rng.uniform(-3.0, 1.5)
        t1 = 10.0 ** rng.uniform(-1.0, 2.0)
        t2 = t1 * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0))
        uncached = _ei_window.__wrapped__(d, t1, t2)
        assert _ei_window(d, t1, t2).hex() == uncached.hex()
        assert _ei_window(d, t1, t2).hex() == uncached.hex()
    assert _ei_window.cache_info().hits == 200


@pytest.mark.parametrize(
    "d,t1,t2,error,message",
    [(0.0, 5.0, 105.0, DomainError, "expint_ei requires x > 0, got 0.0"),
     (1e-290, 1.0, 1e20, DomainError, "below the domain floor"),
     (1e4, 1.0, 2.0, OverflowRangeError, "expint_ei(10000.0) exceeds double-precision range")],
    ids=["zero-argument", "second-argument-below-floor", "overflow"],
)
def test_ei_window_raises_again_and_stores_no_error(d, t1, t2, error, message):
    _ei_window.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(error) as info:
            _ei_window(d, t1, t2)
        texts.append(str(info.value))
    assert texts[0] == texts[1] and message in texts[0]
    assert _ei_window.cache_info().currsize == 0


def test_ei_window_memo_is_bounded():
    # a row needs one entry; the bound keeps a long sweep from growing it
    maxsize = _ei_window.cache_info().maxsize
    assert maxsize is not None and 1 <= maxsize <= 64


def test_sustainability_scales_inversely_with_q():
    base = sustainability_window(RATES, NET, WINDOW)
    for q in range(2, 6):
        net = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=q)
        assert sustainability_window(RATES, net, WINDOW) * q == pytest.approx(
            base, rel=1e-14, abs=0.0
        )


def test_signaling_time_factor_antiderivative():
    w = TimeWindow(t1=1.0, t2=3.0, T=3.0)
    expected = (0.5**3 - 0.5) / math.log(0.5)
    assert signaling_time_factor(0.5, w) == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert signaling_time_factor(0.5, w) == pytest.approx(0.5410106403333613, rel=1e-13, abs=0.0)


def test_signaling_time_factor_rejects_vanishing_log():
    # below about 1.1e-16, 1 - alpha' rounds to 1 and ln(1 - alpha') to 0
    with pytest.raises(DomainError, match="rounds"):
        signaling_time_factor(1e-17, WINDOW)
    assert signaling_time_factor(1e-15, WINDOW) == pytest.approx(100.0, rel=1e-3, abs=0.0)


def test_signaling_time_factor_is_within_its_bound_of_mpmath():
    # the power difference (1-a')^t2 - (1-a')^t1 gave -0.0 at a' = 1e-8 on
    # a window with t2/t1 = 1 + 1e-9, a relative error of 1
    mpmath = pytest.importorskip("mpmath")

    def exact(a_prime, w):
        with mpmath.workdps(50):
            L = mpmath.log1p(-mpmath.mpf(a_prime))
            return (mpmath.exp(w.t2 * L) - mpmath.exp(w.t1 * L)) / L

    narrow = TimeWindow(t1=5.0, t2=5.0 * (1 + 1e-9), T=6.0)
    assert signaling_time_factor(1e-8, narrow) == pytest.approx(
        float(exact(1e-8, narrow)), rel=1e-15, abs=0.0
    )
    rng = random.Random(15)
    for _ in range(2000):
        a_prime = 10.0 ** rng.uniform(-15.9, -1e-9)
        t1 = 10.0 ** rng.uniform(-3.0, 5.0)
        t2 = t1 * (1.0 + 10.0 ** rng.uniform(-15.0, 3.0))
        if t2 == t1:
            continue
        w = TimeWindow(t1=t1, t2=t2, T=t2)
        L = -math.log1p(-a_prime)
        if t1 * L > 708.0:  # e^{t1 L} below the normal range
            continue
        bound = (8.0 + 2.0 * t1 * L) * 2.0**-52
        got, want = signaling_time_factor(a_prime, w), exact(a_prime, w)
        assert abs(got - want) <= bound * want, (a_prime, t1, t2)


def test_signaling_time_factor_matches_quadrature():
    for a_prime in (0.01, 0.2, 0.5, 0.9):
        for t1, t2 in ((1.0, 3.0), (5.0, 105.0)):
            w = TimeWindow(t1=t1, t2=t2, T=t2)
            quad = integrate(lambda t: (1.0 - a_prime) ** t, QuadSpec(t1, t2))
            assert signaling_time_factor(a_prime, w) == pytest.approx(
                quad.value, rel=1e-9, abs=0.0
            )


def test_signaling_overhead_composition():
    o_s = signaling_overhead(1.0, 1.0 / 105.0, NET, WINDOW)
    assert o_s == pytest.approx(O_S_REF, rel=1e-12, abs=0.0)
    ratio = (NET.n_inv / NET.E) ** NET.N / (NET.E * loss_probability_model(NET))
    assert o_s == pytest.approx(
        ratio * signaling_time_factor(1.0 / 105.0, WINDOW), rel=1e-14, abs=0.0
    )
    # linear in the baseline load
    assert signaling_overhead(3.0, 1.0 / 105.0, NET, WINDOW) == pytest.approx(
        3.0 * o_s, rel=1e-14, abs=0.0
    )


def test_message_overhead_hand_values():
    assert message_overhead(5.0, 0.5, 10) == pytest.approx(0.5, rel=1e-15, abs=0.0)
    assert message_overhead(O_S_REF, P_REF, NET.E) == pytest.approx(
        M_O_REF, rel=1e-12, abs=0.0
    )
    assert message_overhead(0.0, 0.5, 10) == 0.0
    # no loss means nothing is retransmitted (this reads P as the delivery
    # chance; which reading is meant is open, see loss_probability_model)
    assert message_overhead(5.0, 1.0, 10) == 0.0


def test_message_overhead_linearity_in_o_s():
    rng = np.random.default_rng(88)
    for _ in range(20):
        o_s = float(rng.uniform(0.1, 50.0))
        k = float(rng.uniform(0.1, 9.0))
        p = float(rng.uniform(0.01, 0.99))
        assert message_overhead(k * o_s, p, 10) == pytest.approx(
            k * message_overhead(o_s, p, 10), rel=1e-12, abs=0.0
        )


def test_message_overhead_domain():
    with pytest.raises(DomainError):
        message_overhead(1.0, 0.0, 10)
    with pytest.raises(DomainError):
        message_overhead(1.0, 1.5, 10)
    with pytest.raises(DomainError):
        message_overhead(-1.0, 0.5, 10)
    with pytest.raises(DomainError):
        message_overhead(1.0, 0.5, 0)


def test_message_overhead_overflow_is_typed():
    # a subnormal P makes 1/(E P) overflow; it once returned inf silently
    with pytest.raises(OverflowRangeError, match="double range"):
        message_overhead(1.0, 5e-320, 10)
