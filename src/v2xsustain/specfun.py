"""Special functions.

The analysis layer needs the exponential integral Ei that closed-form
sustainability windows reduce to; log-gamma completes the set. The
adaptive Simpson engine of the quadrature twin is in `quadrature`.
"""

from __future__ import annotations

import math

from .errors import DomainError, OverflowRangeError

EULER_GAMMA = 0.57721566490153286061

# Largest argument for which exp() stays inside double range.
_EXP_MAX = 709.782712893384
# Power-series / asymptotic-series switch point for Ei.
_EI_SERIES_CUTOFF = 40.0
_EI_MIN_X = 1e-300


def expint_ei(x: float) -> float:
    """Exponential integral Ei(x) for x > 0.

    Uses the convergent power series

        Ei(x) = gamma + ln(x) + sum_{k>=1} x^k / (k * k!)

    for x <= 40 and the asymptotic expansion e^x/x * sum_k k!/x^k above,
    truncated at its smallest term. The switch point keeps both branches
    at or below ~1e-15 relative error, far inside the 1e-12 contract.

    Raises DomainError for x <= 0 (the function has a logarithmic
    singularity at 0 and the analysis only ever evaluates positive
    arguments) or x below 1e-300, and OverflowRangeError once e^x/x
    exceeds double range (x above ~710).
    """
    if not math.isfinite(x):
        raise DomainError(f"expint_ei requires a finite argument, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"expint_ei requires x > 0, got {x!r}")
    if x < _EI_MIN_X:
        raise DomainError(
            f"expint_ei argument {x!r} is below the domain floor {_EI_MIN_X!r}"
        )
    if x <= _EI_SERIES_CUTOFF:
        return _ei_series(x)
    return _ei_asymptotic(x)


def _ei_series(x: float) -> float:
    # term_k = x^k / (k * k!), via term_k = term_{k-1} * x * (k-1) / k^2
    # term_k / acc_k grows with x, so x = 40, the cutoff, needs the most
    # terms: it stops at k = 104, well inside the range.
    total = EULER_GAMMA + math.log(x)
    term = x
    acc = x
    for k in range(2, 200):
        term *= x * (k - 1) / (k * k)
        acc += term
        if term <= 1e-17 * acc:
            break
    return total + acc


def _ei_asymptotic(x: float) -> float:
    # sum_k k!/x^k, truncated at the smallest term (error ~ e^-x sqrt(2 pi x))
    s = 1.0
    term = 1.0
    k = 0
    while True:
        k += 1
        nxt = term * k / x
        if nxt >= term or nxt <= 1e-17 * s:
            break
        term = nxt
        s += term
    log_result = x - math.log(x) + math.log(s)
    if log_result > _EXP_MAX:
        raise OverflowRangeError(
            f"expint_ei({x!r}) exceeds double-precision range"
        )
    if x <= _EXP_MAX:
        return math.exp(x) / x * s
    # e^x alone overflows but e^x/x does not; assemble in log space.
    return math.exp(log_result)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    math.lgamma with the domain restricted to the positive axis. Integral
    arguments reduce to factorials and are returned as log((x-1)!)
    exactly; lgamma drifts a couple of ulp off the factorial route there.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"ln_gamma requires a finite argument, got {x!r}")
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x!r}")
    if x == int(x) and x <= 300.0:
        return math.log(math.factorial(int(x) - 1)) if x > 1.0 else 0.0
    return math.lgamma(x)
