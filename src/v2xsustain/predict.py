"""Prediction-side mathematics.

Beta-distributed traffic density, connectivity probability from the
exponential departure model, the predicted message overhead composition,
the fail-safe likelihood, and the scale-parameter asymptotics. These let
the network act before measurements exist: everything here is a function
of rates and window bounds only. Each quantity has one route: a closed
form, whose quadrature twin lives with the tests, or quadrature where no
closed form is known (the Beta mass and the scale asymptote).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DivergenceError, DomainError
from .specfun import QuadSpec, integrate, ln_gamma
from .sustain import (
    NetworkParams,
    RangeParams,
    RateParams,
    TimeWindow,
    _ei_window,
    _window_form,
    hop_loss_probability,
    signaling_overhead,
)

SCALE_FLOOR = 2.0  # scale parameter at or below this marks a non-operable network


@dataclass(frozen=True)
class BetaTraffic:
    """Beta-model traffic parameters.

    shape/scale are the Beta density parameters (shape >= 1 per the model's
    operating assumption).
    """

    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not self.shape >= 1.0:
            raise DomainError(f"shape must be >= 1, got {self.shape!r}")
        if not self.scale > 0.0:
            raise DomainError(f"scale must be positive, got {self.scale!r}")


@dataclass(frozen=True)
class LikelihoodBounds:
    """Probability bounds for the fail-safe likelihood and the scale asymptote.

    (d1, d2) bound the checkpoint integral, (c1, c2) the rate integral of
    the library-only asymptote; no config field sets them. Both pairs live
    inside the unit interval.
    """

    d1: float
    d2: float
    c1: float = 0.1
    c2: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.d1 < self.d2:
            raise DomainError(
                f"bounds require 0 <= d1 < d2, got d1={self.d1!r} d2={self.d2!r}"
            )
        if not self.d2 < 1.0:
            raise DomainError(f"d2 must be < 1, got {self.d2!r}")
        if not 0.0 <= self.c1 < self.c2:
            raise DomainError(
                f"bounds require 0 <= c1 < c2, got c1={self.c1!r} c2={self.c2!r}"
            )
        if not self.c2 < 1.0:
            raise DomainError(f"c2 must be < 1, got {self.c2!r}")


def _beta_density(x: float, shape: float, scale: float, log_norm: float) -> float:
    # Beta density extended to the closed interval by continuity where the
    # exponent allows it; a singular endpoint is a divergence, not a sample.
    # BetaTraffic holds shape >= 1, so only the x = 1 end can diverge.
    if x == 0.0:
        return math.exp(log_norm) if shape == 1.0 else 0.0
    if x == 1.0:
        if scale < 1.0:
            raise DivergenceError("beta density diverges at 1 for scale < 1")
        return math.exp(log_norm) if scale == 1.0 else 0.0
    log_val = log_norm + (shape - 1.0) * math.log(x) + (scale - 1.0) * math.log1p(-x)
    return math.exp(log_val)


def density_beta(
    traffic: BetaTraffic,
    rng: RangeParams,
    normalizer: float | None = None,
) -> float:
    """Expected presence mass: Beta(shape, scale) integrated over the range.

    The meter range [r1, r2] is mapped into the unit interval, either
    directly (when it already lies there) or by dividing through
    `normalizer`. The result is the probability mass the Beta traffic
    model assigns to the range.
    """
    lo, hi = rng.r1, rng.r2
    if normalizer is not None:
        if not normalizer > 0.0:
            raise DomainError(f"normalizer must be positive, got {normalizer!r}")
        lo, hi = lo / normalizer, hi / normalizer
    if not (0.0 <= lo < hi <= 1.0):
        raise DomainError(
            f"mapped interval [{lo!r}, {hi!r}] must lie within [0, 1]"
        )
    log_norm = (
        ln_gamma(traffic.shape + traffic.scale)
        - ln_gamma(traffic.shape)
        - ln_gamma(traffic.scale)
    )

    def pdf(x: float) -> float:
        return _beta_density(x, traffic.shape, traffic.scale, log_norm)

    return integrate(pdf, QuadSpec(lo, hi)).value


def scale_param(
    mode: str,
    *,
    availabilities: Sequence[float] | None = None,
    gamma_prime: float | None = None,
) -> float:
    """Scale parameter mu under one of two estimators.

    credentials:    mu = E / sum_i ln(1/a_i) over per-entity credential
                    availabilities a_i = 1-p_x.
    outgoing:       mu = 1 / ln(1/(1-gamma')) from the departure rate.

    Natural logs throughout. Probabilities at 0 or 1 hit log singularities
    and are rejected; gamma' = 0 makes mu unbounded and is rejected too.
    The fail-safe scorer keeps the compliance estimator as running sums.
    """
    if mode == "credentials":
        if not availabilities:
            raise DomainError("credentials mode requires a nonempty availability list")
        total = 0.0
        for a in availabilities:
            if not 0.0 < a < 1.0:
                raise DomainError(
                    f"availability must lie strictly in (0, 1), got {a!r}"
                )
            total += math.log(1.0 / a)
        return len(availabilities) / total
    if mode == "outgoing":
        if gamma_prime is None:
            raise DomainError("outgoing mode requires gamma_prime")
        if gamma_prime == 0.0:
            raise DomainError("gamma_prime = 0 makes the scale parameter unbounded")
        if not 0.0 < gamma_prime < 1.0:
            raise DomainError(
                f"outgoing mode requires gamma_prime in (0, 1), got {gamma_prime!r}"
            )
        return 1.0 / math.log(1.0 / (1.0 - gamma_prime))
    raise DomainError(f"unknown scale_param mode {mode!r}")


def connectivity_prob(net: NetworkParams, gamma_prime: float, t: float) -> float:
    """Connectivity probability P_c = (E - E0 e^{-gamma' t}) / E.

    Nondecreasing in t; strictly below 1 whenever an initial cohort exists.
    The prediction-side loss probability is its complement 1 - P_c.
    """
    if not (math.isfinite(gamma_prime) and gamma_prime >= 0.0):
        raise DomainError(f"gamma_prime must be finite and >= 0, got {gamma_prime!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    return (net.E - net.E_zero * math.exp(-gamma_prime * t)) / net.E


def connectivity_window_factor(
    net: NetworkParams, rate: float, window: TimeWindow
) -> float:
    """Window form of the predicted connectivity complement.

    1 - (E0 / (E rate)) (e^{-rate t1} - e^{-rate t2}), the final factor of
    the expanded overhead prediction. Requires a positive rate.
    """
    if not rate > 0.0:
        raise DomainError(f"connectivity factor requires a positive rate, got {rate!r}")
    decay = math.exp(-rate * window.t1) - math.exp(-rate * window.t2)
    return 1.0 - (net.E_zero / (net.E * rate)) * decay


def predicted_key_updates(rates: RateParams, window: TimeWindow) -> float:
    """Predicted surviving update mass over the window, closed form.

    Integral of e^{-alpha/t} (alpha/t)^2 / 2 over [t1, t2], which is
    (alpha/2)(e^{-alpha/t2} - e^{-alpha/t1}), with the difference taken
    through expm1 because both terms are near 1 for small alpha/t1.
    """
    if not rates.alpha > 0.0:
        raise DomainError(f"prediction requires alpha > 0, got {rates.alpha!r}")
    a, t1, t2 = rates.alpha, window.t1, window.t2
    return (a / 2.0) * math.exp(-a / t2) * -math.expm1(a / t2 - a / t1)


@dataclass(frozen=True)
class OverheadPrediction:
    """Predicted message overhead, both composition routes.

    composed multiplies the separately predicted components; printed is
    the single expanded expression. They disagree as printed (the
    expansion drops the pass count and the update normalization), so the
    relative difference between them is reported rather than hidden.
    """

    composed: float
    printed: float
    relative_difference: float
    key_updates: float
    sustainability_unit_passes: float
    signaling: float
    density: float
    connectivity_factor: float
    alpha_prime: float


def resolve_alpha_prime(
    rates: RateParams, window: TimeWindow, alpha_prime: float | None = None
) -> float | None:
    """The signaling refresh probability alpha' per unit time.

    A given alpha_prime is returned as is. Otherwise it defaults to alpha/t2,
    the fixed per-unit-time refresh probability at the window end; with
    alpha = 0 no key is refreshed and there is no default (None).
    """
    if alpha_prime is not None:
        return alpha_prime
    return rates.alpha / window.t2 if rates.alpha > 0.0 else None


def predicted_message_overhead(
    rates: RateParams,
    net: NetworkParams,
    window: TimeWindow,
    rng: RangeParams,
    O_b: float,
    *,
    alpha_prime: float | None = None,
) -> OverheadPrediction:
    """Predicted per-vehicle message overhead over the window.

    Composes Q / U_K^pred * (S_N^pred * O_S * D^pred * connectivity factor)
    from the component predictors. The sustainability component is
    evaluated at unit passes so the pass count Q enters exactly once, as
    the leading factor; the expanded printed form carries no Q at all.

    alpha_prime defaults as in resolve_alpha_prime; the connectivity factor
    decays at gamma'. The density component is the unit-shape Beta mass of
    the meter range, which is the plain range width r2 - r1.
    """
    if O_b < 0.0:
        raise DomainError(f"O_b must be >= 0, got {O_b!r}")
    alpha_prime = resolve_alpha_prime(rates, window, alpha_prime)
    if alpha_prime is None or not 0.0 < alpha_prime < 1.0:
        raise DomainError(
            f"alpha_prime must be in (0, 1), got {alpha_prime!r}; pass it "
            "explicitly when alpha/t2 falls outside"
        )

    u_k = predicted_key_updates(rates, window)
    if u_k == 0.0:
        raise DomainError(f"predicted key updates round to 0 at alpha={rates.alpha!r}")
    s_n_unit = _window_form(rates, net, window.t1, window.t2, 1)
    o_s = signaling_overhead(O_b, alpha_prime, net, window)
    density = rng.r2 - rng.r1
    conn = connectivity_window_factor(net, rates.gamma_prime, window)

    composed = net.Q / u_k * (s_n_unit * o_s * density * conn)
    printed = _printed_overhead_expansion(rates, net, window, rng, O_b, conn)
    denom = max(abs(composed), abs(printed), 1e-300)
    return OverheadPrediction(
        composed=composed,
        printed=printed,
        relative_difference=abs(composed - printed) / denom,
        key_updates=u_k,
        sustainability_unit_passes=s_n_unit,
        signaling=o_s,
        density=density,
        connectivity_factor=conn,
        alpha_prime=alpha_prime,
    )


def _printed_overhead_expansion(
    rates: RateParams,
    net: NetworkParams,
    window: TimeWindow,
    rng: RangeParams,
    O_b: float,
    conn: float,
) -> float:
    """The expanded overhead prediction exactly as printed.

    Kept verbatim (with the same decayed-power reading of the time factor
    as the signaling overhead) for comparison against the composition; its
    prefactor differs from the composed route, so values can differ in
    both magnitude and sign. Its last factor is the composition's conn.
    """
    a2 = rates.alpha / window.t2
    a1 = rates.alpha / window.t1
    if not 0.0 < a2 < 1.0:
        raise DomainError(f"alpha/t2 must be in (0, 1), got {a2!r}")
    if a1 > 1.0:
        raise DomainError(f"alpha/t1 must be <= 1, got {a1!r}")
    hop = net.n_inv / net.E
    time_factor = (1.0 - a2) ** window.t2 - (1.0 - a1) ** window.t1
    first_divisor = math.log(1.0 - a2) * net.E * (math.exp(-a2) - math.exp(-a1))
    if first_divisor == 0.0:
        raise DomainError(f"expansion divisor rounds to 0 at alpha/t2={a2!r}")
    first = O_b * hop**net.N * time_factor / first_divisor
    d = rates.beta - rates.alpha
    if not d > 0.0:
        raise DomainError("expansion requires beta > alpha")
    p2 = hop_loss_probability(net.n_inv, net.E, net.N) ** 2
    if p2 == 0.0:
        raise DomainError(f"P^2 underflows to 0 at N={net.N!r} E={net.E!r}")
    second = rates.alpha * (rng.r2 - rng.r1)
    second /= rates.beta * net.N * p2
    second *= _ei_window(d, window.t1, window.t2)
    return first * second * conn


def failsafe_tau(mu: float, bounds: LikelihoodBounds, T: float) -> float:
    """Operational fail-safe likelihood, closed form.

    tau = ((1-d1)^mu - (1-d2)^mu) / T when the network is operable
    (mu > 2) and 0 otherwise, with the difference taken through log1p and
    expm1 because the two powers are close for close bounds.
    """
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    if not T > 0.0:
        raise DomainError(f"T must be positive, got {T!r}")
    if not mu > SCALE_FLOOR:
        return 0.0
    keep = 1.0 - bounds.d1
    drop = -math.expm1(mu * math.log1p((bounds.d1 - bounds.d2) / keep))
    return keep**mu * drop / T


def scale_asymptote(bounds: LikelihoodBounds, T: float) -> float:
    """Asymptote integral of the scale parameter over the rate interval.

    f = int_{c1}^{c2} e^{-rate/T} / ln(1/(1-rate)) d rate. The integrand
    behaves like 1/rate near zero, so c1 = 0 is an explicit divergence.
    """
    if not T > 0.0:
        raise DomainError(f"T must be positive, got {T!r}")
    if bounds.c1 == 0.0:
        raise DivergenceError(
            "the asymptote integral is divergent at c1 = 0 (integrand ~ 1/rate)"
        )

    def f(rate: float) -> float:
        return math.exp(-rate / T) / math.log(1.0 / (1.0 - rate))

    return integrate(f, QuadSpec(bounds.c1, bounds.c2)).value


def scale_growth_diagnostic(T: float, t_x_slots: int) -> float:
    """Reference growth envelope T^(t_x) for the scale parameter.

    Reported for inspection only; no computation in this package consumes
    it.
    """
    if not T > 0.0:
        raise DomainError(f"T must be positive, got {T!r}")
    if not isinstance(t_x_slots, int) or t_x_slots < 0:
        raise DomainError(f"t_x_slots must be a non-negative integer, got {t_x_slots!r}")
    return float(T) ** t_x_slots
