"""Special-function and quadrature tests.

The exponential-integral oracle here is deliberately independent of the
implementation: Ei(x) = gamma + ln x + integral_0^x (e^t - 1)/t dt, with
the entire-function integral evaluated by fixed 200-node Gauss-Legendre
(geometric convergence for analytic integrands, machine precision on the
ranges used).
"""

import math

import numpy as np
import pytest

from v2xsustain import (
    EULER_GAMMA,
    QuadSpec,
    expint_ei,
    integrate,
    ln_gamma,
)
from v2xsustain.errors import (
    ConvergenceError,
    DomainError,
    IntegrandError,
    OverflowRangeError,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(200)


def oracle_ei(x: float) -> float:
    t = 0.5 * x * (_GL_NODES + 1.0)
    w = 0.5 * x * _GL_WEIGHTS
    integrand = np.where(t > 0, np.expm1(t) / np.where(t > 0, t, 1.0), 1.0)
    return EULER_GAMMA + math.log(x) + float(np.dot(w, integrand))


# Abramowitz & Stegun style reference points, full double precision.
EI_REFERENCE = {
    0.5: 0.45421990486317358,
    1.0: 1.8951178163559368,
    2.0: 4.954234356001890,
    5.0: 40.185275355803178,
    10.0: 2492.2289762418777,
}


def test_ei_reference_points():
    for x, ref in EI_REFERENCE.items():
        assert expint_ei(x) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_ei_against_quadrature_oracle_series_branch():
    rng = np.random.default_rng(2301)
    for x in rng.uniform(0.009, 30.0, size=100):
        x = float(x)
        assert expint_ei(x) == pytest.approx(oracle_ei(x), rel=1e-12, abs=0.0)


def test_ei_against_scipy_expi():
    special = pytest.importorskip("scipy.special")
    x0 = 0.37250741078136663  # the positive root of Ei
    rng = np.random.default_rng(1729)
    xs = 10.0 ** rng.uniform(-300.0, math.log10(709.0), size=2000)
    for x in map(float, xs):
        if abs(x - x0) < 0.01:
            continue  # Ei crosses 0 there: checked absolutely below
        assert expint_ei(x) == pytest.approx(special.expi(x), rel=1e-12, abs=0.0), x
    for x in map(float, np.linspace(x0 - 0.01, x0 + 0.01, 201)):
        assert expint_ei(x) == pytest.approx(special.expi(x), rel=0.0, abs=1e-15), x


def test_ei_branch_consistency_at_cutoff():
    # both branches must agree where the implementation switches
    lo = expint_ei(math.nextafter(40.0, 0.0))
    hi = expint_ei(math.nextafter(40.0, math.inf))
    assert hi == pytest.approx(lo, rel=1e-13, abs=0.0)
    assert expint_ei(40.0) == pytest.approx(oracle_ei(40.0), rel=1e-12, abs=0.0)


def test_ei_asymptotic_branch_against_oracle():
    for x in (41.0, 55.0, 80.0, 120.0, 250.0):
        # oracle integral needs rescaled nodes; still analytic, still exact
        assert expint_ei(x) == pytest.approx(oracle_ei(x), rel=1e-12, abs=0.0)


def test_ei_is_strictly_increasing():
    xs = np.linspace(0.01, 50.0, 500)
    vals = [expint_ei(float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ei_log_space_extension_past_exp_overflow():
    # e^712 overflows a double, e^712/712 does not
    v = expint_ei(712.0)
    assert math.isfinite(v)
    log_v = 712.0 - math.log(712.0)
    assert math.log(v) == pytest.approx(log_v, abs=1e-2)


def test_ei_overflow_range():
    with pytest.raises(OverflowRangeError):
        expint_ei(725.0)


def test_ei_domain_errors():
    with pytest.raises(DomainError):
        expint_ei(0.0)
    with pytest.raises(DomainError):
        expint_ei(-1.0)
    with pytest.raises(DomainError):
        expint_ei(math.nan)
    with pytest.raises(DomainError):
        expint_ei(1e-305)  # below the domain floor


def test_ln_gamma_matches_factorials_exactly():
    for n in range(1, 16):
        assert ln_gamma(float(n)) == math.log(float(math.factorial(n - 1)))


def test_ln_gamma_nonintegral_and_domain():
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15, abs=0.0)
    assert ln_gamma(301.5) == pytest.approx(math.lgamma(301.5), rel=1e-15, abs=0.0)
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.0)
    with pytest.raises(DomainError):
        ln_gamma(math.inf)


def test_quadspec_validation():
    with pytest.raises(DomainError):
        QuadSpec(5.0, 1.0)
    with pytest.raises(DomainError):
        QuadSpec(0.0, math.inf)
    with pytest.raises(DomainError):
        QuadSpec(0.0, 1.0, rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadSpec(0.0, 1.0, max_depth=0)
    QuadSpec(2.0, 2.0)  # degenerate interval is allowed


def test_integrate_degenerate_interval():
    r = integrate(lambda x: 1.0 / x, QuadSpec(3.0, 3.0))
    assert r == (0.0, 0.0, 0)


def test_integrate_polynomials_exact():
    # Simpson with Richardson is exact through degree five
    r = integrate(lambda x: x**3 - 2 * x + 1, QuadSpec(-1.0, 2.0))
    assert r.value == pytest.approx(3.75 - 3.0 + 3.0, rel=1e-14, abs=0.0)
    r = integrate(lambda x: x**5, QuadSpec(0.0, 1.0))
    assert r.value == pytest.approx(1.0 / 6.0, rel=1e-13, abs=0.0)


def test_integrate_known_transcendentals():
    r = integrate(math.sin, QuadSpec(0.0, math.pi))
    assert r.value == pytest.approx(2.0, rel=1e-11, abs=0.0)
    r = integrate(math.exp, QuadSpec(0.0, 1.0))
    assert r.value == pytest.approx(math.e - 1.0, rel=1e-11, abs=0.0)
    r = integrate(lambda x: 1.0 / x, QuadSpec(1.0, math.e))
    assert r.value == pytest.approx(1.0, rel=1e-11, abs=0.0)


def test_integrate_error_estimate_brackets_truth():
    r = integrate(math.sin, QuadSpec(0.0, math.pi, rel_tol=1e-8))
    assert abs(r.value - 2.0) <= max(r.error * 20.0, 2.0 * 1e-8)
    assert r.evaluations > 5


def test_integrate_respects_tighter_tolerance():
    loose = integrate(lambda x: math.exp(-x) * math.sin(8 * x), QuadSpec(0.0, 6.0, rel_tol=1e-6))
    tight = integrate(lambda x: math.exp(-x) * math.sin(8 * x), QuadSpec(0.0, 6.0, rel_tol=1e-12))
    # antiderivative of e^-x sin(8x) is -e^-x (sin 8x + 8 cos 8x) / 65
    truth = (8.0 + math.exp(-6.0) * (-math.sin(48.0) - 8.0 * math.cos(48.0))) / 65.0
    assert tight.value == pytest.approx(truth, rel=1e-11, abs=0.0)
    assert tight.evaluations > loose.evaluations


def test_integrate_flags_nonfinite_integrand():
    with pytest.raises(IntegrandError):
        integrate(lambda x: math.inf if x == 0.5 else x, QuadSpec(0.0, 1.0))

    def blows_up(x):
        return math.nan if x > 0.7 else x

    with pytest.raises(IntegrandError):
        integrate(blows_up, QuadSpec(0.0, 1.0))


def test_integrate_convergence_failure_carries_best_estimate():
    # integrable endpoint singularity starves a depth-capped bisection
    with pytest.raises(ConvergenceError) as exc:
        integrate(
            lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0,
            QuadSpec(0.0, 1.0, rel_tol=1e-13, max_depth=8),
        )
    assert exc.value.best_estimate == pytest.approx(2.0, rel=0.05, abs=0.0)
    assert exc.value.error_estimate >= 0.0


def test_integrate_window_shape_used_by_model():
    # e^{1/t}/t over [5, 105] has antiderivative -Ei(1/t)
    r = integrate(lambda t: math.exp(1.0 / t) / t, QuadSpec(5.0, 105.0))
    expected = expint_ei(0.2) - expint_ei(1.0 / 105.0)
    assert r.value == pytest.approx(expected, rel=1e-10, abs=0.0)
