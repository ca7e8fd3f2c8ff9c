"""Independent twins of production quantities, for the tests only.

No command reaches these: `predicted_key_updates` and `failsafe_tau` run in
production, and these routes integrate the same quantities with adaptive
Simpson so the tests can check the closed forms against an independent
computation. `sustain.sustainability_window_quadrature` stays in the
package, because the benchmark's sweep check imports it from there.
`scale_param_sustainability` is the batch twin of the running sums that
`decision.score_failsafe_slots` keeps for `mu`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from v2xsustain.errors import DomainError
from v2xsustain.predict import SCALE_FLOOR, LikelihoodBounds
from v2xsustain.specfun import QuadSpec, integrate, ln_gamma
from v2xsustain.sustain import RateParams, TimeWindow


def scale_param_sustainability(mean_sustainability: float | None,
                               omegas: Sequence[float]) -> float:
    """mu = mean(S_N) / sum_i ln(1/w_i) over per-slot compliance
    probabilities w_i = 1-omega_x, in one batch."""
    if not omegas:
        raise DomainError("sustainability mode requires a nonempty omega list")
    if mean_sustainability is None or not mean_sustainability > 0.0:
        raise DomainError(
            f"sustainability mode requires mean S_N > 0, got {mean_sustainability!r}"
        )
    total = 0.0
    for w in omegas:
        if not 0.0 < w < 1.0:
            raise DomainError(
                f"compliance probability must lie strictly in (0, 1), got {w!r}"
            )
        total += math.log(1.0 / w)
    return mean_sustainability / total


def predicted_key_updates_quadrature(
    rates: RateParams, window: TimeWindow, rel_tol: float = 1e-10
) -> float:
    """Same quantity as predicted_key_updates, by quadrature; its test twin."""
    if not rates.alpha > 0.0:
        raise DomainError(f"prediction requires alpha > 0, got {rates.alpha!r}")
    a = rates.alpha

    def f(t: float) -> float:
        r = a / t
        return math.exp(-r) * r * r / 2.0

    return integrate(f, QuadSpec(window.t1, window.t2, rel_tol=rel_tol)).value


@dataclass(frozen=True)
class FailsafeLikelihood:
    """Fail-safe likelihood results, by quadrature.

    integral is the windowed likelihood (1/T) int Gamma(1+mu)/Gamma(mu)
    (1-phi)^(mu-1) dphi over (d1, d2), evaluated by quadrature. tau is the
    integral when mu > 2 and 0 otherwise, the twin of failsafe_tau.
    closed_full and closed_reduced are the two printed closed-form
    variants, defined only for mu > 2; they disagree with the integral and
    with each other and are kept as diagnostics. closed_full may overflow
    to inf for large mu.
    """

    mu: float
    integral: float
    tau: float
    closed_full: float | None
    closed_reduced: float | None


def failsafe_likelihood(
    mu: float, bounds: LikelihoodBounds, T: float, rel_tol: float = 1e-12
) -> FailsafeLikelihood:
    """Likelihood of fail-safe checkpoints between the bound probabilities.

    The quadrature twin of failsafe_tau. Gamma(1+mu)/Gamma(mu) is
    evaluated through ln_gamma rather than simplified to mu, so this route
    stays independent of the antiderivative. The tight default tolerance
    keeps the delivered error under 1e-9 relative even for steep large-mu
    integrands, where the adaptive rule's local estimate runs about 20x
    optimistic.
    """
    if not mu > 0.0:
        raise DomainError(f"mu must be positive, got {mu!r}")
    if not T > 0.0:
        raise DomainError(f"T must be positive, got {T!r}")
    ratio = math.exp(ln_gamma(1.0 + mu) - ln_gamma(mu))

    def f(phi: float) -> float:
        return ratio * (1.0 - phi) ** (mu - 1.0)

    value = integrate(f, QuadSpec(bounds.d1, bounds.d2, rel_tol=rel_tol)).value / T
    tau = value if mu > SCALE_FLOOR else 0.0
    closed_full = None
    closed_reduced = None
    if mu > SCALE_FLOOR:
        base = (1.0 - bounds.d1) * (1.0 - bounds.d2)
        log_full = (
            math.log(ratio) + 2.0 * math.log(base) - mu * math.log(base)
            - math.log(mu - SCALE_FLOOR)
        )
        try:
            closed_full = math.exp(log_full)
        except OverflowError:
            closed_full = math.inf
        closed_reduced = ratio * base**2 / (mu - SCALE_FLOOR)
    return FailsafeLikelihood(
        mu=mu, integral=value, tau=tau, closed_full=closed_full,
        closed_reduced=closed_reduced,
    )
