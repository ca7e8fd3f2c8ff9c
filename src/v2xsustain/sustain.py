"""Sustainability of key management under backhaul loss.

The sustainability metric counts key updates that survive hop-by-hop
delivery, normalized by the vehicles served and the passes each session
costs. Closed forms below come from integrating Poisson arrival and
key-update densities over an observation window. Commands run only them;
the quadrature twin of sustainability_window stays here because the
benchmark's sweep check imports it from this module, and it loads the
adaptive Simpson engine (`quadrature`) on its first call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError, OverflowRangeError
from .specfun import _EI_MIN_X, _EI_SERIES_CUTOFF, _series_terms, _window_series, expint_ei

# the positive nodes of the 12-node Gauss-Legendre rule on [-1, 1], and their weights
_GAUSS_RULE = tuple(zip((0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                         0.7699026741943047, 0.9041172563704749, 0.9815606342467192),
                        (0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
                         0.16007832854334622, 0.10693932599531843, 0.04717533638651183)))


@dataclass(frozen=True)
class NetworkParams:
    """Topology and session-count parameters.

    N: backhaul hop budget per delivery path.
    E: edge (hub) capacity in vehicles.
    E_zero: initially connected cohort, 0 <= E0 <= E.
    n_inv: hop count whose inverse n = 1/n_inv weighs the update count.
    Q: authentication passes per session establishment.

    Relations between n_inv and E (the hop-pair bound, n_inv != E) are
    deliberately not enforced here; they are the job of
    decision.check_constraints, which must be able to hold violating
    values as data.
    """

    N: int
    E: int
    E_zero: int = 0
    n_inv: int = 5
    Q: int = 1

    def __post_init__(self):
        for name in ("N", "E", "n_inv", "Q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v <= 0:
                raise DomainError(f"{name} must be a positive integer, got {v!r}")
        v = self.E_zero
        if not isinstance(v, int) or v < 0:
            raise DomainError(f"E_zero must be a non-negative integer, got {v!r}")
        if v > self.E:
            raise DomainError(f"E_zero={v!r} exceeds capacity E={self.E!r}")


@dataclass(frozen=True)
class RateParams:
    """Process rates per unit time.

    alpha: key updates per vehicle, beta: vehicle arrivals, gamma_prime:
    outgoing connection (departure) rate. The window
    closed form additionally needs beta > alpha > 0; that is checked at
    the point of use because the simulator is well defined without it.
    """

    alpha: float
    beta: float
    gamma_prime: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"beta must be finite and positive, got {self.beta!r}")
        for name in ("alpha", "gamma_prime"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class TimeWindow:
    """Observation window and key-timing bounds, in seconds.

    t1/t2 bound the integration window, T is the full observation span,
    t_x_step the reporting slot width. t_attack is the estimated time an
    adversary needs to recover a key, t_min_hold the minimum interval a
    key must be held before rotation, t_use the actual time in use.
    The ordering t_use < t_min_hold is an optimization constraint checked
    by decision.check_constraints, not a structural one, so it is not
    enforced here.
    """

    t1: float
    t2: float
    T: float
    t_x_step: float = 5.0
    t_attack: float | None = None
    t_min_hold: float | None = None
    t_use: float | None = None

    def __post_init__(self):
        if not 0.0 < self.t1 < self.t2:
            raise DomainError(
                f"window requires 0 < t1 < t2, got t1={self.t1!r} t2={self.t2!r}"
            )
        if not (math.isfinite(self.T) and self.T >= self.t2):
            raise DomainError(f"T={self.T!r} must be finite and cover t2={self.t2!r}")
        if not (math.isfinite(self.t_x_step) and self.t_x_step > 0.0):
            raise DomainError(f"t_x_step must be finite and > 0, got {self.t_x_step!r}")
        if self.t_attack is None:
            object.__setattr__(self, "t_attack", self.T)
        if self.t_min_hold is None:
            object.__setattr__(self, "t_min_hold", self.t_attack)
        if self.t_use is None:
            object.__setattr__(self, "t_use", self.t_x_step)
        if self.t_attack <= 0.0:
            raise DomainError(f"t_attack must be positive, got {self.t_attack!r}")
        if self.t_min_hold > self.t_attack:
            raise DomainError(
                f"t_min_hold={self.t_min_hold!r} exceeds t_attack={self.t_attack!r}"
            )
        if self.t_use < 0.0:
            raise DomainError(f"t_use must be >= 0, got {self.t_use!r}")


@dataclass(frozen=True)
class RangeParams:
    """Radio ranges in meters: short-range r1, long-range r2."""

    r1: float
    r2: float

    def __post_init__(self):
        if not (math.isfinite(self.r1) and self.r1 >= 0.0):
            raise DomainError(f"r1 must be finite and >= 0, got {self.r1!r}")
        if not self.r2 > self.r1:
            raise DomainError(f"r2={self.r2!r} must exceed r1={self.r1!r}")


def hop_loss_probability(n_inv: int, E: int, N: int) -> float:
    """Per-delivery loss probability P = (1 - n_inv/E)^N over N hops.

    Each of the N backhaul hops independently fails to shed the update
    with probability 1 - n_inv/E. Requires n_inv < E.

    The value rises with E and falls with N. Whether the source analysis
    means P as the chance of loss or of delivery is not settled here: the
    README and the sustainability forms call it a loss, while the
    (1 - P) / P factor of message_overhead reads it as a delivery chance.
    """
    if n_inv >= E:
        raise DomainError(
            f"loss model requires n_inv < E, got n_inv={n_inv!r} E={E!r}"
        )
    return (1.0 - n_inv / E) ** N


def loss_probability_model(net: NetworkParams) -> float:
    """Per-delivery loss probability at capacity E."""
    return hop_loss_probability(net.n_inv, net.E, net.N)


def _divisor_loss_probability(net: NetworkParams) -> float:
    """P for a closed form that divides by it; P underflows to 0 for large N."""
    P = loss_probability_model(net)
    if P == 0.0:
        raise DomainError(f"loss probability P underflows to 0 at N={net.N!r} E={net.E!r}")
    return P


def sustainability_window(
    rates: RateParams, net: NetworkParams, window: TimeWindow
) -> float:
    """Sustainability integrated over [t1, t2], closed form.

    The window integral of the density ratio has the exponential-integral
    antiderivative -Ei((beta-alpha)/t), giving

        S_N = alpha^2 / (2 beta N (1 - n_inv/E)^N Q)
              * (Ei((beta-alpha)/t1) - Ei((beta-alpha)/t2)).

    Requires beta > alpha > 0 so the Ei arguments stay positive. Within 1e-13
    relative of the form on the doubles alpha, beta, t1, t2 and P while
    (beta - alpha)/t1 <= 40, and within (beta - alpha)/t1 * 2**-51 above.
    """
    return _window_form(rates, net, window.t1, window.t2, net.Q)


def _window_form(
    rates: RateParams, net: NetworkParams, t1: float, t2: float, Q: int
) -> float:
    """sustainability_window over checked bounds 0 < t1 < t2, at Q passes per session."""
    s_n = _window_prefactor(rates, net, Q) * _ei_window(rates.beta - rates.alpha, t1, t2)
    if not math.isfinite(s_n):
        raise OverflowRangeError(f"window form gives {s_n!r}, outside double range")
    return s_n


def _window_prefactor(rates: RateParams, net: NetworkParams, Q: int) -> float:
    """The window form's alpha^2 / (2 beta N P Q), once its rates and P are checked."""
    if not rates.alpha > 0.0:
        raise DomainError(f"window form requires alpha > 0, got {rates.alpha!r}")
    if not rates.beta > rates.alpha:
        raise DomainError(
            f"window form requires beta > alpha, got beta={rates.beta!r} "
            f"alpha={rates.alpha!r}"
        )
    P = _divisor_loss_probability(net)
    try:
        return rates.alpha**2 / (2.0 * rates.beta * net.N * P * Q)
    except OverflowError as e:
        raise OverflowRangeError(
            f"window prefactor alpha^2 overflows at alpha={rates.alpha!r}"
        ) from e


@lru_cache(maxsize=8)
def _ei_window(d: float, t1: float, t2: float) -> float:
    """The window difference Ei(d/t1) - Ei(d/t2), with no cancellation.

    For x1 = d/t1 <= 40 it adds positive terms: log1p((t2 - t1)/t1) + sum_{k>=1}
    (x1^k - x2^k) / (k k!). Above, it subtracts the two Ei values, or integrates
    e^t/t over [x2, x1] once h = x1 - x2 < 1. Errors are expint_ei's.

    A sweep row takes it three times at one (d, t1, t2): for S_N, for the
    unit-pass S_N of the overhead prediction and in its printed expansion.
    A few entries serve a row; an error is raised again on every call,
    since lru_cache stores only returned values.
    """
    x1, x2, w = d / t1, d / t2, t2 - t1
    h = x1 * (w / t2)  # t2 - t1 is exact while t2 <= 2 t1
    if x1 > _EI_SERIES_CUTOFF:
        e1 = expint_ei(x1)  # raises for a non-finite x1, or where Ei(x1) overflows
        if h >= 1.0:
            return e1 - expint_ei(x2)
        # e^x1 times the integral of e^-s / (x1 - s) over [0, h], by Gauss-Legendre;
        # e^x1 is taken in halves, since it overflows from 709.78, before Ei(x1) does
        r, half = h / 2.0, math.exp(x1 / 2.0)
        return sum(weight * math.exp(-s) / (x1 - s) for u, weight in _GAUSS_RULE
                   for s in (r - r * u, r + r * u)) * r * half * half
    if not x2 >= _EI_MIN_X:  # outside the domain: expint_ei raises its error, x1's first
        expint_ei(x1)
        expint_ei(x2)
    return math.log1p(w / t1) + _window_series(x1, x2, h, _series_terms(math.ceil(x1)))


def sustainability_window_quadrature(
    rates: RateParams,
    net: NetworkParams,
    window: TimeWindow,
    rel_tol: float = 1e-10,
) -> float:
    """Same quantity as sustainability_window, via adaptive quadrature.

    Kept as an independent route for cross-validation; the closed form and
    this one must agree to the quadrature tolerance. The integrand is the
    density ratio: at time t the expected surviving updates per vehicle
    follow e^{-alpha/t} (alpha/t)^2 / 2 against arrivals e^{-beta/t} (beta/t),
    and the ratio reduces to e^{(beta-alpha)/t} * alpha^2 / (2 beta t).
    """
    from .quadrature import QuadSpec, integrate  # no command loads the engine

    if not rates.alpha > 0.0 or not rates.beta > rates.alpha:
        raise DomainError("quadrature form requires beta > alpha > 0")
    a, b = rates.alpha, rates.beta
    P = loss_probability_model(net)
    result = integrate(
        lambda t: math.exp((b - a) / t) * a * a / (2.0 * b * t),
        QuadSpec(window.t1, window.t2, rel_tol=rel_tol),
    )
    return result.value / (net.N * P * net.Q)


def signaling_time_factor(alpha_prime: float, window: TimeWindow) -> float:
    """Windowed decay factor: integral of (1-alpha')^t over [t1, t2].

    Antiderivative form ((1-a')^{t2} - (1-a')^{t1}) / L with L = ln(1-a'),
    taken as e^{t1 L} expm1((t2 - t1) L) / L with L = log1p(-a'): neither
    1 - a' is rounded nor the two powers cancel on a narrow window. Within
    (8 + 2 t1 |L|) * 2**-52 relative of the integral for the given doubles
    while e^{t1 L} is a normal double; t1 |L| enters through the rounding
    of e^{t1 L}'s argument.
    """
    if not 0.0 < alpha_prime < 1.0:
        raise DomainError(f"alpha_prime must be in (0, 1), got {alpha_prime!r}")
    if 1.0 - alpha_prime == 1.0:
        raise DomainError(
            f"alpha_prime={alpha_prime!r} rounds 1 - alpha' to 1, so ln(1 - alpha') is 0"
        )
    L = math.log1p(-alpha_prime)
    return math.exp(window.t1 * L) * math.expm1((window.t2 - window.t1) * L) / L


def signaling_overhead(
    O_b: float, alpha_prime: float, net: NetworkParams, window: TimeWindow
) -> float:
    """Signaling overhead of unreceived updates over the window.

    O_S = O_b (n_inv/E)^N / (E (1 - n_inv/E)^N) * time factor. The hop
    prefactor divides by capacity here and the message-overhead composition
    divides through E*P again; that asymmetry is a modeling convention of
    the source analysis and is kept as printed.
    """
    if O_b < 0.0:
        raise DomainError(f"O_b must be >= 0, got {O_b!r}")
    P = _divisor_loss_probability(net)
    ratio = (net.n_inv / net.E) ** net.N
    prefactor = O_b * ratio / (net.E * P)
    return prefactor * signaling_time_factor(alpha_prime, window)


def message_overhead(O_S: float, P: float, E: int) -> float:
    """Per-vehicle message overhead M_O = O_S (1 - P) / (E P)."""
    if O_S < 0.0:
        raise DomainError(f"O_S must be >= 0, got {O_S!r}")
    if not 0.0 < P <= 1.0:
        raise DomainError(f"P must be in (0, 1], got {P!r}")
    if E <= 0:
        raise DomainError(f"E must be positive, got {E!r}")
    m_o = O_S * (1.0 - P) / (E * P)
    if not math.isfinite(m_o):
        raise OverflowRangeError(f"M_O is {m_o!r} at P={P!r}, outside double range")
    return m_o
