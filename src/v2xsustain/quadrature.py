"""Adaptive Simpson quadrature.

The engine behind the quadrature twin of the closed-form sustainability
window (`sustain.sustainability_window_quadrature`), which imports it on
its first call. No command runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ConvergenceError, DomainError, IntegrandError


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
