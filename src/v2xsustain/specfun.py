"""Special functions and adaptive quadrature.

The analysis layer needs the exponential integral Ei that closed-form
sustainability windows reduce to. Log-gamma and a self-contained adaptive
Simpson integrator, which runs the quadrature twins of the closed forms,
complete the set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DomainError, IntegrandError, OverflowRangeError

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
    total = EULER_GAMMA + math.log(x)
    term = x
    acc = x
    k = 1
    while True:
        k += 1
        term *= x * (k - 1) / (k * k)
        acc += term
        if term <= 1e-17 * acc:
            break
        if k > 600:  # unreachable for x <= 40, guards the loop anyway
            raise ConvergenceError(
                f"Ei series did not converge at x={x!r}", total + acc, term
            )
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


@dataclass(frozen=True)
class QuadSpec:
    """Integration request: interval, relative tolerance, bisection depth cap.

    A degenerate interval (upper == lower) is accepted and integrates to
    exactly zero; a reversed interval is rejected.
    """

    lower: float
    upper: float
    rel_tol: float = 1e-10
    max_depth: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DomainError("integration bounds must be finite")
        if self.upper < self.lower:
            raise DomainError(
                f"integration interval is reversed: [{self.lower!r}, {self.upper!r}]"
            )
        if not 0.0 < self.rel_tol < 1.0:
            raise DomainError(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth!r}")


class QuadResult(NamedTuple):
    value: float
    error: float
    evaluations: int


def integrate(f: Callable[[float], float], spec: QuadSpec) -> QuadResult:
    """Adaptive Simpson quadrature of f over spec's interval.

    Classic bisection scheme: each interval's Simpson estimate S1 is
    compared against the two-half refinement S2, accepted when
    |S2 - S1| <= 15 * tol with tol split between halves, and the leaf
    contributes the Richardson-extrapolated S2 + (S2 - S1)/15. The
    returned error is the sum of accepted leaf estimates |S2 - S1|/15.

    The absolute tolerance budget is rel_tol scaled by a first-pass
    estimate of the integral's magnitude. Exhausting max_depth raises
    ConvergenceError carrying the best estimate; a non-finite integrand
    sample raises IntegrandError.
    """
    a = float(spec.lower)
    b = float(spec.upper)
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    evals = [0]

    def sample(x: float) -> float:
        evals[0] += 1
        y = f(x)
        if not math.isfinite(y):
            raise IntegrandError(f"integrand returned {y!r} at x={x!r}")
        return float(y)

    m = 0.5 * (a + b)
    fa, fm, fb = sample(a), sample(m), sample(b)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0

    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = sample(lm), sample(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0

    scale = max(abs(whole), abs(left + right), 1e-300)
    tol = spec.rel_tol * scale

    value_l, err_l, ok_l = _adapt(
        sample, a, m, fa, flm, fm, left, 0.5 * tol, spec.max_depth
    )
    value_r, err_r, ok_r = _adapt(
        sample, m, b, fm, frm, fb, right, 0.5 * tol, spec.max_depth
    )
    value = value_l + value_r
    err = err_l + err_r
    if not (ok_l and ok_r):
        raise ConvergenceError(
            f"quadrature did not converge within depth {spec.max_depth}",
            value,
            err,
        )
    return QuadResult(value, err, evals[0])


def _adapt(sample, a, b, fa, fm, fb, s_whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = sample(lm)
    frm = sample(rm)
    s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    s2 = s_left + s_right
    diff = s2 - s_whole
    # Interval too narrow to split further in floating point: accept as is.
    if abs(diff) <= 15.0 * tol or m <= a or b <= m:
        return s2 + diff / 15.0, abs(diff) / 15.0, True
    if depth <= 0:
        return s2 + diff / 15.0, abs(diff) / 15.0, False
    vl, el, okl = _adapt(sample, a, m, fa, flm, fm, s_left, 0.5 * tol, depth - 1)
    vr, er, okr = _adapt(sample, m, b, fm, frm, fb, s_right, 0.5 * tol, depth - 1)
    return vl + vr, el + er, okl and okr
