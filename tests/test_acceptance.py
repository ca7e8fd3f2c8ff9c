"""Acceptance gate: ten release criteria, one test and one printed verdict
line each (run with -s to see the lines; -v shows one PASSED/FAILED row per
criterion).

Criterion 7 is split: one test checks the monotonicity of the connection
probability, the outgoing scale parameter and Ei; the other checks the
direction of the loss model in E and N (its docstring gives the reason).
"""

import filecmp
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from v2xsustain import (
    CASES,
    LABELS,
    RECONFIGURE,
    KeyHierarchy,
    LikelihoodBounds,
    NetworkParams,
    RangeParams,
    RateParams,
    Scenario,
    Thresholds,
    TimeWindow,
    check_constraints,
    compare_to_model,
    connectivity_prob,
    decide,
    establish_session,
    expint_ei,
    failsafe_point,
    ln_gamma,
    loss_probability_model,
    message_overhead,
    predicted_message_overhead,
    refresh_subtree,
    run_simulation,
    run_structural_checks,
    scale_param,
    sustainability_window,
    sustainability_window_quadrature,
    verify_session,
)
from v2xsustain.cli import main
from v2xsustain.fixtures import MU_RATIO_TOL, Q_VALUES

from oracles import failsafe_likelihood, oracle_ei

NET = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=1)
RATES = RateParams(alpha=1.0, beta=2.0, gamma_prime=0.1)
WINDOW = TimeWindow(t1=5.0, t2=105.0, T=110.0)
RANGE = RangeParams(r1=100.0, r2=500.0)
TH = Thresholds(S_N_TH=50.0, M_O_TH=1000.0)

def _verdict(n: int, ok: bool, desc: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {desc}")


def test_criterion_01_closed_form_matches_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    points = 0
    for beta in (2.0, 4.0, 6.0, 8.0, 10.0):
        rates = RateParams(alpha=beta / 2.0, beta=beta)
        for q in range(1, 6):
            for e in (10, 20, 30, 40, 50):
                net = NetworkParams(N=10, E=e, E_zero=min(10, e), n_inv=5, Q=q)
                closed = sustainability_window(rates, net, WINDOW)
                quad = sustainability_window_quadrature(rates, net, WINDOW)
                worst = max(worst, abs(closed - quad) / abs(quad))
                points += 1
    elapsed = time.perf_counter() - t0
    assert points == 125
    assert worst <= 1e-8
    assert elapsed < 5.0
    _verdict(
        1,
        True,
        f"closed form vs quadrature on 125-point grid, worst rel {worst:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_special_functions():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for x in rng.uniform(0.009, 30.0, size=100):
        x = float(x)
        rel = abs(expint_ei(x) - oracle_ei(x)) / abs(oracle_ei(x))
        worst = max(worst, rel)
    assert worst <= 1e-10
    for n in range(1, 16):
        assert ln_gamma(float(n)) == math.log(math.factorial(n - 1))
    _verdict(
        2,
        True,
        f"Ei vs independent oracle worst rel {worst:.2e}; "
        "ln_gamma exact at integers 1-15",
    )


def test_criterion_03_failsafe_likelihood_antiderivative():
    bounds = LikelihoodBounds(d1=0.1, d2=0.9)
    worst = 0.0
    for mu in np.linspace(0.5, 50.0, 100):
        mu = float(mu)
        r = failsafe_likelihood(mu, bounds, 110.0)
        expected = ((1.0 - bounds.d1) ** mu - (1.0 - bounds.d2) ** mu) / 110.0
        worst = max(worst, abs(r.integral - expected) / abs(expected))
        if mu <= 2.0:
            assert r.tau == 0.0
        else:
            assert r.tau == r.integral
    assert worst <= 1e-9
    _verdict(3, True, f"tau integral vs antiderivative worst rel {worst:.2e}")


def test_criterion_04_reference_table_structure():
    for case in CASES:
        mu_q1 = case.mu[0]
        if mu_q1 is not None:
            for q, mu_q in zip(Q_VALUES, case.mu):
                if mu_q is not None:
                    assert abs(mu_q * q - mu_q1) / mu_q1 <= MU_RATIO_TOL
        defined = [t for t in case.tau if t is not None]
        if len(defined) >= 2:
            assert all(a > b for a, b in zip(defined, defined[1:]))
    rows = run_structural_checks()
    assert all(r.passed for r in rows)
    _verdict(
        4,
        True,
        f"mu*Q constant within 0.1% and tau strictly decreasing; "
        f"{len(rows)} structural checks",
    )


def test_criterion_05_monte_carlo_convergence():
    t0 = time.perf_counter()
    expected = RATES.beta * WINDOW.T
    band = 4.0 * math.sqrt(expected)
    for seed in range(30):
        scn = Scenario(
            net=NET, rates=RATES, window=WINDOW, range_params=RANGE,
            thresholds=TH, seed=seed,
        )
        trace = run_simulation(scn)
        assert abs(trace.arrivals_total - NET.E_zero - expected) < band
    big = NetworkParams(N=10, E=100_000, E_zero=100_000, n_inv=5, Q=1)
    calm = RateParams(alpha=0.0, beta=2.0, gamma_prime=0.1)
    scn = Scenario(
        net=big, rates=calm, window=WINDOW, range_params=RANGE,
        thresholds=TH, seed=7,
    )
    report = compare_to_model(run_simulation(scn), scn)
    elapsed = time.perf_counter() - t0
    assert report.survivor_mad is not None
    assert report.survivor_mad <= 0.02
    assert elapsed < 30.0
    _verdict(
        5,
        True,
        f"30-run arrivals within 4 sigma of {expected:g}; survivor MAD "
        f"{report.survivor_mad:.5f} with 1e5 entities; {elapsed:.2f}s",
    )


def test_criterion_06_proportionality_invariants():
    base = sustainability_window(RATES, NET, WINDOW)
    for q in range(2, 6):
        net_q = replace(NET, Q=q)
        assert sustainability_window(RATES, net_q, WINDOW) * q == pytest.approx(
            base, rel=1e-12, abs=0.0
        )
    pred1 = predicted_message_overhead(RATES, NET, WINDOW, RANGE, 1.0).composed
    for k in (0.5, 3.0, 11.0):
        pred_k = predicted_message_overhead(RATES, NET, WINDOW, RANGE, k).composed
        assert pred_k == pytest.approx(k * pred1, rel=1e-12, abs=0.0)
    for q in range(2, 6):
        pred_q = predicted_message_overhead(
            RATES, replace(NET, Q=q), WINDOW, RANGE, 1.0
        ).composed
        assert pred_q == pytest.approx(q * pred1, rel=1e-12, abs=0.0)
    m1 = message_overhead(1.0, 0.25, 10)
    for k in (2.0, 5.5, 40.0):
        assert message_overhead(k, 0.25, 10) == pytest.approx(k * m1, rel=1e-12, abs=0.0)
    _verdict(
        6,
        True,
        "S_N*Q constant to 1e-12; predicted overhead linear in O_b and Q; "
        "message overhead linear in O_S",
    )


def test_criterion_07_monotonicity_suite():
    ts = np.linspace(0.0, 300.0, 200)
    pcs = [connectivity_prob(NET, 0.1, float(t)) for t in ts]
    assert all(b >= a for a, b in zip(pcs, pcs[1:]))
    assert all(0.0 <= p < 1.0 for p in pcs)
    mus = [scale_param([1.0 - g]) for g in np.linspace(0.05, 0.95, 19)]
    assert all(b < a for a, b in zip(mus, mus[1:]))
    eis = [expint_ei(float(x)) for x in np.linspace(0.01, 60.0, 120)]
    assert all(b > a for a, b in zip(eis, eis[1:]))
    _verdict(
        7,
        True,
        "P_c nondecreasing and in [0,1); outgoing scale decreasing in "
        "gamma_prime; Ei increasing",
    )


def test_criterion_07_loss_model_required_direction():
    """The loss model is strictly monotone in E and N, in the direction its
    closed form P = (1 - n_inv/E)^N fixes: rising in E, falling in N.

    For 0 < n_inv < E,
      dP/dE = P * N * n_inv / (E * (E - n_inv)) > 0,
      dP/dN = P * ln(1 - n_inv/E) < 0.
    The closed form is the one the README, the S_N and O_S docstrings and
    the frozen references of test_sustain.py specify, so the function
    cannot fall in E or rise in N, whichever reading of P the paper means
    (see loss_probability_model).
    """
    p_by_e = [
        loss_probability_model(NetworkParams(N=10, E=e, n_inv=5))
        for e in range(10, 51, 5)
    ]
    p_by_n = [
        loss_probability_model(NetworkParams(N=n, E=10, n_inv=5))
        for n in range(2, 21, 2)
    ]
    increasing_in_e = all(b > a for a, b in zip(p_by_e, p_by_e[1:]))
    decreasing_in_n = all(b < a for a, b in zip(p_by_n, p_by_n[1:]))
    ok = increasing_in_e and decreasing_in_n
    _verdict(
        7,
        ok,
        "loss model strictly increasing in E and strictly decreasing in N",
    )
    assert ok, (
        "loss_probability_model must rise with E (dP/dE > 0) and fall with N "
        f"(dP/dN < 0); got P(E)={p_by_e}, P(N)={p_by_n}"
    )


def test_criterion_08_key_hierarchy():
    root = bytes(range(32))
    a = KeyHierarchy(root)
    b = KeyHierarchy(root)
    assert all(a.nodes[k].material == b.nodes[k].material for k in LABELS)

    rng = np.random.default_rng(88)
    seen: set[bytes] = set()
    for _ in range(10_000):
        material = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
        if material == bytes(32):
            material = bytes([1]) + material[1:]
        h = KeyHierarchy(material)
        for label in LABELS:
            seen.add(h.nodes[label].material)
    assert len(seen) == 6 * 10_000

    h = KeyHierarchy(root)
    long_session = establish_session(h, "long_range", "veh-1", Q=2)
    short_session = establish_session(h, "short_range", "veh-1", Q=2)
    refresh_subtree(h, "K_Hub")
    with pytest.raises(Exception):
        verify_session(h, long_session)
    verify_session(h, short_session)  # non-descendant branch unaffected

    replayed = establish_session(h, "long_range", "veh-2", Q=1)
    refresh_subtree(h, "K_LRPK")
    with pytest.raises(Exception):
        verify_session(h, replayed)
    _verdict(
        8,
        True,
        "deterministic trees; 60000 distinct keys over 1e4 roots; refresh "
        "invalidation scoped; replay rejected",
    )


def test_criterion_09_decision_engine():
    for mu in (2.0, 1.0, 0.1):
        for s_n, m_o in ((1e9, 0.0), (0.0, 1e9), (50.0, 1000.0)):
            assert decide(s_n, m_o, mu, TH).decision == RECONFIGURE

    trace = [(1.0, 10.0, 0.0), (2.0, 8.0, 0.0), (3.0, 6.0, 0.0), (4.0, 4.0, 0.0)]
    t_s, s_n, _ = zip(*trace)
    assert failsafe_point(t_s, s_n, Thresholds(S_N_TH=5.0, M_O_TH=1000.0)) == trace[2][0]

    clean = dict(net=NET, window=WINDOW, U_k=1.0, D=10.0, thresholds=TH)
    assert check_constraints(**clean) == []
    negations = [
        ("U_k >= U'_N", {"U_k": 0.0}),
        ("0 < D <= N", {"D": 11.0}),
        (
            "0 < n_inv(n_inv-1)/2 <= E(E-1)/2",
            {"net": NetworkParams(N=10, E=10, E_zero=10, n_inv=20)},
        ),
        ("n_inv != E", {"net": NetworkParams(N=10, E=10, E_zero=10, n_inv=10)}),
        (
            "t_use < t_min_hold",
            {"window": TimeWindow(t1=5.0, t2=105.0, T=110.0, t_use=120.0)},
        ),
    ]
    for name, override in negations:
        violations = check_constraints(**{**clean, **override})
        assert len(violations) == 1
        assert violations[0].constraint == name
    _verdict(
        9,
        True,
        "mu <= 2 forces reconfigure; F_S lands on the third sample; each "
        "negated clause yields exactly its own violation",
    )


def test_criterion_10_reproducible_csv(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["simulate", "--out", str(a), "--seed", "321"]) == 0
    assert main(["simulate", "--out", str(b), "--seed", "321"]) == 0
    capsys.readouterr()
    identical = all(
        filecmp.cmp(a / f"run0_{k}.csv", b / f"run0_{k}.csv", shallow=False)
        for k in ("events", "metrics", "comparison")
    )
    assert identical
    _verdict(10, True, "simulate output byte-identical across two invocations")
