"""Decision-layer tests: constraint clauses, fail-safe extraction,
decision priority and fail-safe slot scoring."""

import dataclasses
import math
import random

import numpy as np
import pytest

from v2xsustain import (
    CONTINUE,
    RECONFIGURE,
    UPDATE_KEYS,
    FailSafeReport,
    NetworkParams,
    Thresholds,
    TimeWindow,
    build_bundle,
    check_constraints,
    decide,
    failsafe_point,
    merge_config,
    run_simulation,
)
from v2xsustain.decision import FailsafeTable, score_failsafe_slots
from v2xsustain.errors import DomainError, OverflowRangeError
from v2xsustain.predict import failsafe_tau
from v2xsustain.sustain import hop_loss_probability, message_overhead

from oracles import scale_param_sustainability

NET = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=1)
WINDOW = TimeWindow(t1=5.0, t2=105.0, T=110.0)
TH = Thresholds(S_N_TH=50.0, M_O_TH=1000.0)


def test_thresholds_validation():
    with pytest.raises(DomainError):
        Thresholds(S_N_TH=0.0, M_O_TH=1.0)
    with pytest.raises(DomainError):
        Thresholds(S_N_TH=1.0, M_O_TH=-1.0)
    with pytest.raises(DomainError):
        Thresholds(S_N_TH=1.0, M_O_TH=1.0, U_prime_N=0)
    with pytest.raises(DomainError):
        Thresholds(S_N_TH=1.0, M_O_TH=1.0, O_b=0.0)


def test_check_constraints_admissible_defaults():
    assert check_constraints(NET, WINDOW, U_k=1.0, D=10.0, thresholds=TH) == []


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("U_k >= U'_N", {"U_k": 0.0}),
        ("0 < D <= N", {"D": 11.0}),
        ("0 < D <= N", {"D": 0.0}),
        (
            "0 < n_inv(n_inv-1)/2 <= E(E-1)/2",
            {"net": NetworkParams(N=10, E=10, E_zero=10, n_inv=20)},
        ),
        (
            "0 < n_inv(n_inv-1)/2 <= E(E-1)/2",
            {"net": NetworkParams(N=10, E=10, E_zero=10, n_inv=1)},
        ),
        ("n_inv != E", {"net": NetworkParams(N=10, E=10, E_zero=10, n_inv=10)}),
        (
            "t_use < t_min_hold",
            {"window": TimeWindow(t1=5.0, t2=105.0, T=110.0, t_use=120.0)},
        ),
    ],
)
def test_check_constraints_single_clause(name, kwargs):
    args = {
        "net": NET,
        "window": WINDOW,
        "U_k": 1.0,
        "D": 10.0,
        "thresholds": TH,
    }
    args.update(kwargs)
    violations = check_constraints(**args)
    assert len(violations) == 1
    assert violations[0].constraint == name


def test_check_constraints_multiple():
    bad_net = NetworkParams(N=10, E=10, E_zero=10, n_inv=10)
    violations = check_constraints(bad_net, WINDOW, U_k=0.0, D=0.0, thresholds=TH)
    names = {v.constraint for v in violations}
    assert names == {"U_k >= U'_N", "0 < D <= N", "n_inv != E"}


def test_failsafe_point_prefix_end():
    th = Thresholds(S_N_TH=5.0, M_O_TH=1000.0)
    assert failsafe_point([1.0, 2.0, 3.0, 4.0], [10.0, 8.0, 6.0, 4.0], th) == 3.0


def test_failsafe_point_whole_window():
    th = Thresholds(S_N_TH=5.0, M_O_TH=1.0)
    assert failsafe_point([1.0, 2.0], [10.0, 8.0], th) == 2.0
    # threshold equality counts as safe
    assert failsafe_point([1.0], [5.0], th) == 1.0


def test_failsafe_point_no_safe_prefix():
    th = Thresholds(S_N_TH=5.0, M_O_TH=1.0)
    assert failsafe_point([1.0], [1.0], th) is None
    # a sample without S_N, None or NaN, breaks the run like a breach
    assert failsafe_point([1.0, 2.0, 3.0], [9.0, None, 9.0], th) == 1.0
    assert failsafe_point([1.0, 2.0], [math.nan, 9.0], th) is None


def test_failsafe_point_trace_validation():
    # no samples: no safe prefix, as for a breach at the first sample
    assert failsafe_point([], [], TH) is None
    with pytest.raises(DomainError):
        failsafe_point([1.0, 1.0], [1.0, 1.0], TH)
    with pytest.raises(DomainError):
        failsafe_point([1.0, 2.0], [1.0], TH)


@pytest.mark.parametrize("seed,breach_at", [(1, None), (7, None), (42, 900)])
def test_score_failsafe_slots_mu_matches_batch_scale_param(seed, breach_at):
    # the running sums must reproduce the batch estimator over each prefix
    # bit for bit; breach_at puts a compliance value of 1.0 at that slot
    b = build_bundle(merge_config({"tx_step_s": 0.1, "seed": seed}))
    trace = run_simulation(b.scenario)
    rng = random.Random(seed)
    compliance = [rng.uniform(0.01, 0.99) for _ in range(len(trace.slots))]
    if breach_at is not None:
        compliance[breach_at] = 1.0
    table = score_failsafe_slots(trace, compliance, b.bounds)
    assert len(table.t_s) == 1100
    samples = []
    for k, (row_s_n, row_mu) in enumerate(zip(table.S_N, table.mu, strict=True), start=1):
        if row_s_n is not None:
            samples.append(row_s_n)
        mean = 0.0
        for s_n in samples:  # left to right, independent of sum()'s algorithm
            mean += s_n
        try:
            mu = scale_param_sustainability(
                mean_sustainability=mean / len(samples) if samples else None,
                omegas=compliance[:k],
            )
        except DomainError:
            mu = None
        assert row_mu == mu, k
        if breach_at is not None and k > breach_at:
            assert row_mu is None
    assert sum(u is not None for u in table.mu) > 500


def scalar_scores(trace, compliance, bounds):
    """Reference: the per-slot scorer the slot columns replaced, one
    hop_loss_probability, message_overhead and decide() call per slot, and
    a scalar scan for the end of the safe prefix."""
    scn = trace.scenario
    net, thresholds, slots = scn.net, scn.thresholds, trace.slots
    table = FailsafeTable(*([] for _ in FailsafeTable._fields))
    s_n_sum = log_sum = 0.0
    s_n_count = 0
    compliant = True
    for k, w in enumerate(compliance):
        t, e_prime, d = float(slots.t_s[k]), int(slots.E_prime[k]), int(slots.D[k])
        s_n = m_o = None
        if e_prime > net.n_inv and d > 0:
            p = hop_loss_probability(net.n_inv, e_prime, net.N)
            if p == 0.0:
                raise DomainError(f"loss probability P underflows to 0 at t_s={t:g}: "
                                  f"N={net.N!r} E'={e_prime!r}")
            s_n = (int(slots.U_k[k]) / net.n_inv) / (d * p * net.Q)
            m_o = message_overhead(float(slots.passes[k]), p, net.E)
            s_n_sum += s_n
            s_n_count += 1
            if not math.isfinite(s_n_sum):
                raise OverflowRangeError(f"S_N is outside double range at t_s={t:g}")
        compliant = compliant and 0.0 < w < 1.0
        if compliant:
            log_sum += math.log(1.0 / w)
        mean = s_n_sum / s_n_count if s_n_count else 0.0
        mu = mean / log_sum if compliant and mean > 0.0 else None
        if mu is not None and not math.isfinite(mu):
            raise OverflowRangeError(f"mu is outside double range at t_s={t:g}")
        tau = None if mu is None else failsafe_tau(mu, bounds, scn.window.T)
        if s_n is None or mu is None:
            decision, rationale = UPDATE_KEYS, "insufficient observations in this slot"
        else:
            report = decide(s_n, m_o, mu, thresholds)
            decision, rationale = report.decision, report.rationale
        for column, cell in zip(table, (t, s_n, m_o, mu, tau, None, decision, rationale)):
            column.append(cell)
    F_S = None
    for t, s_n in zip(table.t_s, table.S_N):
        if s_n is None or s_n < thresholds.S_N_TH:
            break
        F_S = t
    if F_S is not None:
        table.F_S[:] = [min(t, F_S) for t in table.t_s]
    return table


@pytest.mark.parametrize("overrides", [
    {"tx_step_s": 0.1},
    {"tx_step_s": 0.1, "seed": 7, "S_N_TH": 700.0},
    {"Q": 3, "omega_x": 0.01},
    {"S_N_TH": 1.0, "M_O_TH": 1e9, "omega_x": 0.01},  # continue
    {"omega_x": 0.999999},  # mu falls to 6.4, still above the floor
    {"omega_x": [0.5] * 5 + [1e-17] + [0.5] * 16},  # mu ends at slot 6
    {"E0": 0, "beta": 0.3, "tx_step_s": 0.5},  # mu without S_N
    {"E0": 0, "beta": 1e-9},  # no observation at all
    {"tx_step_s": 500.0, "t_u_s": 1.0},  # no slot
    {"N": 1000},  # P underflows to 0 at t_s=95
    {"N": 1000, "omega_x": 1e-12},  # mu overflows first
    {"N": 1060},  # M_O overflows
])
def test_score_failsafe_slots_matches_the_scalar_scorer(overrides):
    b = build_bundle(merge_config(overrides))
    trace = run_simulation(b.scenario)
    compliance = b.omega_compliance(len(trace.slots))
    try:
        want = scalar_scores(trace, compliance, b.bounds)
    except (DomainError, OverflowRangeError) as e:
        with pytest.raises(type(e)) as got:
            score_failsafe_slots(trace, compliance, b.bounds)
        assert str(got.value) == str(e)
    else:
        assert score_failsafe_slots(trace, compliance, b.bounds) == want


def test_score_failsafe_slots_s_n_sum_overflow_is_typed():
    # P = (1/6)^390 = 3e-304 puts each slot's S_N at 1.1e308: finite alone,
    # past double range once two are summed, while M_O stays finite
    b = build_bundle(merge_config({"N": 390, "E": 10**9, "E0": 10, "n_inv": 5}))
    trace = run_simulation(b.scenario)
    slots = trace.slots
    counts = {"E_prime": 6, "D": 6, "U_k": 10**6, "passes": 2 * 10**6}
    three = {f.name: getattr(slots, f.name)[:3] for f in dataclasses.fields(slots)}
    three.update((name, np.full(3, count)) for name, count in counts.items())
    trace = dataclasses.replace(trace, slots=type(slots)(**three))
    with pytest.raises(OverflowRangeError) as got:
        score_failsafe_slots(trace, [0.5] * 3, b.bounds)
    assert str(got.value) == "S_N is outside double range at t_s=10"
    with pytest.raises(OverflowRangeError) as want:
        scalar_scores(trace, [0.5] * 3, b.bounds)
    assert str(want.value) == str(got.value)


@pytest.mark.parametrize("extra", [-1, 1])
def test_score_failsafe_slots_rejects_a_compliance_list_of_another_length(extra):
    b = build_bundle(merge_config({}))
    trace = run_simulation(b.scenario)
    n = len(trace.slots)
    compliance = b.omega_compliance(n + extra)
    with pytest.raises(DomainError, match=f"^{n + extra} compliance values for {n} slots$"):
        score_failsafe_slots(trace, compliance, b.bounds)


def test_decide_scale_floor_wins():
    # even perfect metrics cannot override an inoperable scale parameter
    for mu in (2.0, 1.0, 0.5):
        report = decide(s_n=1e6, m_o=0.0, mu=mu, thresholds=TH)
        assert report.decision == RECONFIGURE
    breached = decide(s_n=0.0, m_o=1e9, mu=1.0, thresholds=TH)
    assert breached.decision == RECONFIGURE
    assert breached.rationale == ("scale parameter 1 at or below 2: network not operable "
                                  "without reconfiguration")


def test_decide_threshold_breaches():
    low = decide(s_n=10.0, m_o=0.0, mu=5.0, thresholds=TH)
    assert low.decision == UPDATE_KEYS and "S_N" in low.rationale
    high = decide(s_n=100.0, m_o=2000.0, mu=5.0, thresholds=TH)
    assert high.decision == UPDATE_KEYS and "M_O" in high.rationale
    both = decide(s_n=10.0, m_o=2000.0, mu=5.0, thresholds=TH)
    assert "S_N" in both.rationale and "M_O" in both.rationale
    assert both.rationale == "S_N 10 < 50; M_O 2000 > 1000"
    assert decide(s_n=12.5, m_o=2.5e9, mu=5.0, thresholds=TH).rationale == (
        "S_N 12.5 < 50; M_O 2.5e+09 > 1000")


def test_decide_continue():
    report = decide(s_n=100.0, m_o=10.0, mu=5.0, thresholds=TH)
    assert report.decision == CONTINUE
    assert report.mu == 5.0
    assert report.rationale == "S_N and M_O within thresholds"


def test_decide_undefined_metric_is_insufficient_observations():
    # None marks a metric undefined in its slot, for S_N, M_O and mu alike
    for s_n, m_o, mu in ((None, 10.0, 5.0), (100.0, None, 5.0), (100.0, 10.0, None)):
        report = decide(s_n=s_n, m_o=m_o, mu=mu, thresholds=TH)
        assert report.decision == UPDATE_KEYS
        assert report.rationale == "insufficient observations in this slot"


def test_decide_scale_floor_wins_over_undefined_metrics():
    # an inoperable mu forces reconfiguration even where S_N or M_O is undefined
    for s_n, m_o in ((None, 10.0), (100.0, None), (None, None)):
        report = decide(s_n=s_n, m_o=m_o, mu=1.0, thresholds=TH)
        assert report.decision == RECONFIGURE and report.mu == 1.0
        assert report.rationale == ("scale parameter 1 at or below 2: network not operable "
                                    "without reconfiguration")
    assert decide(None, 10.0, 1.0, TH).decision == RECONFIGURE  # raised DomainError


def test_failsafe_report_validation():
    with pytest.raises(DomainError):
        FailSafeReport(mu=None, decision="panic", rationale="")
    with pytest.raises(DomainError):
        FailSafeReport(mu=1.5, decision=CONTINUE, rationale="")
    FailSafeReport(mu=1.5, decision=RECONFIGURE, rationale="")

