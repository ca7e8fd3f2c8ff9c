"""Prediction-side mathematics.

The scale parameter, connectivity probability from the exponential
departure model, the predicted message overhead composition and the
fail-safe likelihood. These let the network act before measurements exist:
everything here is a function of rates and window bounds only. Each
quantity has one route, a closed form, whose quadrature twin lives with
the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
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
class LikelihoodBounds:
    """Probability bounds (d1, d2) of the fail-safe checkpoint integral,
    inside the unit interval."""

    d1: float
    d2: float

    def __post_init__(self):
        if not 0.0 <= self.d1 < self.d2:
            raise DomainError(
                f"bounds require 0 <= d1 < d2, got d1={self.d1!r} d2={self.d2!r}"
            )
        if not self.d2 < 1.0:
            raise DomainError(f"d2 must be < 1, got {self.d2!r}")


def scale_param(availabilities: Sequence[float]) -> float:
    """Scale parameter mu = E / sum_i ln(1/a_i) over per-entity credential
    availabilities a_i = 1-p_x.

    The outgoing-rate estimator 1 / ln(1/(1-gamma')) is the one-entry case
    a = 1-gamma'. Natural logs throughout. An availability at 0 or 1 hits a
    log singularity and is rejected, and so is a gamma' whose 1-gamma'
    rounds to 1. The fail-safe scorer keeps the compliance estimator as
    running sums. Each term is -ln(a), not ln(1/a), so no rounding of 1/a
    enters it: a one-entry list is within 1e-15 relative of mu for every
    a in [5e-324, 1 - 2**-53].
    """
    if not availabilities:
        raise DomainError("scale parameter requires a nonempty availability list")
    total = 0.0
    for a in availabilities:
        if not 0.0 < a < 1.0:
            raise DomainError(f"availability must lie strictly in (0, 1), got {a!r}")
        total -= math.log(a)
    return len(availabilities) / total


def connectivity_prob(net: NetworkParams, gamma_prime: float, t: float) -> float:
    """Connectivity probability P_c = (E - E0 e^{-gamma' t}) / E.

    Nondecreasing in t; strictly below 1 whenever an initial cohort exists.
    The prediction-side loss probability is its complement 1 - P_c.
    Computed as ((E - E0) - E0 expm1(-gamma' t)) / E: E - E0 is exact and
    both terms are >= 0, so nothing cancels when E0 = E and gamma' t is
    small. Within 1e-15 relative of the exact value on the floats
    gamma' and t.
    """
    if not (math.isfinite(gamma_prime) and gamma_prime >= 0.0):
        raise DomainError(f"gamma_prime must be finite and >= 0, got {gamma_prime!r}")
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    return ((net.E - net.E_zero) - net.E_zero * math.expm1(-gamma_prime * t)) / net.E


def connectivity_window_factor(
    net: NetworkParams, rate: float, window: TimeWindow
) -> float:
    """Window form of the predicted connectivity complement.

    1 - (E0 / (E rate)) (e^{-rate t1} - e^{-rate t2}), the final factor of
    the expanded overhead prediction. Requires a positive rate. The decay
    is taken as e^{-rate t1} (-expm1(-rate (t2 - t1))), which keeps a
    narrow window or a small rate from cancelling. The subtraction from 1
    is the form's own conditioning, so the error is stated against
    1 + |(E0 / (E rate)) decay|: within 1e-14 of it while rate t2 <= 50.
    """
    if not rate > 0.0:
        raise DomainError(f"connectivity factor requires a positive rate, got {rate!r}")
    decay = math.exp(-rate * window.t1) * -math.expm1(-rate * (window.t2 - window.t1))
    return 1.0 - (net.E_zero / (net.E * rate)) * decay


def predicted_key_updates(rates: RateParams, window: TimeWindow) -> float:
    """Predicted surviving update mass over the window, closed form.

    Integral of e^{-alpha/t} (alpha/t)^2 / 2 over [t1, t2], which is
    (alpha/2)(e^{-alpha/t2} - e^{-alpha/t1}), with the difference taken
    through expm1 because both terms are near 1 for small alpha/t1. The
    exponent alpha (t1 - t2) / (t1 t2) keeps a narrow window's width, which
    alpha/t2 - alpha/t1 loses to cancellation; it is grouped so that no
    intermediate leaves double range before the exponent does. Within
    4 (1 + alpha/t1) 2**-52 relative while the result is a normal double.
    """
    if not rates.alpha > 0.0:
        raise DomainError(f"prediction requires alpha > 0, got {rates.alpha!r}")
    a, t1, t2 = rates.alpha, window.t1, window.t2
    return (a / 2.0) * math.exp(-a / t2) * -math.expm1(a / t1 * ((t1 - t2) / t2))


@dataclass(frozen=True)
class OverheadPrediction:
    """Predicted message overhead, both composition routes.

    composed multiplies the separately predicted components; printed is
    the single expanded expression. They disagree as printed (the
    expansion drops the pass count and the update normalization), so both
    are reported rather than one hidden.
    """

    composed: float
    printed: float


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
    decays at gamma'. The density component is the plain range width
    r2 - r1 of the meter range.
    """
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

    return OverheadPrediction(
        composed=net.Q / u_k * (s_n_unit * o_s * density * conn),
        printed=_printed_overhead_expansion(rates, net, window, rng, O_b, conn),
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
    The caller's unit-pass S_N has already required beta > alpha > 0.
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
    p2 = hop_loss_probability(net.n_inv, net.E, net.N) ** 2
    if p2 == 0.0:
        raise DomainError(f"P^2 underflows to 0 at N={net.N!r} E={net.E!r}")
    second = rates.alpha * (rng.r2 - rng.r1)
    second /= rates.beta * net.N * p2
    second *= _ei_window(rates.beta - rates.alpha, window.t1, window.t2)
    return first * second * conn


def failsafe_tau(mu: float, bounds: LikelihoodBounds, T: float) -> float:
    """Operational fail-safe likelihood, closed form.

    tau = ((1-d1)^mu - (1-d2)^mu) / T when the network is operable
    (mu > 2) and 0 otherwise, with the difference taken through log1p and
    expm1 because the two powers are close for close bounds; (1-d1)^mu is
    exp(mu log1p(-d1)), with 1 - d1 unrounded. Within 2 (1 + |mu log1p(-d1)|
    + |mu log1p((d1-d2)/(1-d1))|) 2**-52 relative while tau is a normal double.
    """
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    if not T > 0.0:
        raise DomainError(f"T must be positive, got {T!r}")
    if not mu > SCALE_FLOOR:
        return 0.0
    drop = -math.expm1(mu * math.log1p((bounds.d1 - bounds.d2) / (1.0 - bounds.d1)))
    return math.exp(mu * math.log1p(-bounds.d1)) * drop / T
