"""Simulator tests: determinism, conservation identities, slot accounting,
and distributional agreement with the arrival model.

The chi-square check pools slot arrival counts over 100 seeded runs and
compares against Poisson bin masses computed here from the pmf directly.
"""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from v2xsustain import (
    ComparisonReport,
    NetworkParams,
    RangeParams,
    RateParams,
    Scenario,
    Thresholds,
    TimeWindow,
    compare_to_model,
    run_simulation,
)
from v2xsustain import arraycsv, csvio, sim
from v2xsustain.csvio import Codes
from v2xsustain.cli import main
from v2xsustain.config import build_bundle, merge_config
from v2xsustain.csvio import fmt, write_csv
from v2xsustain.decision import UPDATE_KEYS, score_failsafe_slots
from v2xsustain.errors import DomainError, SimulationTruncated
from v2xsustain.sim import Draws, EventTable

NET = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=1)
RATES = RateParams(alpha=1.0, beta=2.0, gamma_prime=0.1)
WINDOW = TimeWindow(t1=5.0, t2=105.0, T=110.0)
RANGE = RangeParams(r1=100.0, r2=500.0)
TH = Thresholds(S_N_TH=50.0, M_O_TH=1000.0)
KIND = {"arrival": 0, "auth_pass": 1, "key_update": 2, "departure": 3}


def scenario(**overrides) -> Scenario:
    base = dict(
        net=NET, rates=RATES, window=WINDOW, range_params=RANGE,
        thresholds=TH, seed=1234,
    )
    base.update(overrides)
    return Scenario(**base)


def test_same_seed_reproduces_trace():
    a = run_simulation(scenario())
    b = run_simulation(scenario())
    assert a == b
    assert a.events == b.events
    assert a.slots == b.slots
    assert a.passes_total == b.passes_total
    assert a.key_updates_total == b.key_updates_total


def test_different_seeds_differ():
    a = run_simulation(scenario(seed=1234))
    b = run_simulation(scenario(seed=1235))
    assert a != b
    assert a.events != b.events


def test_slot_grid():
    trace = run_simulation(scenario())
    assert len(trace.slots) == 22
    assert trace.slots.t_s.tolist() == [5.0 * k for k in range(1, 23)]


def test_events_sorted_and_complete():
    trace = run_simulation(scenario())
    ev = trace.events
    keys = list(zip(ev.t.tolist(), ev.kind.tolist(), ev.entity.tolist()))
    assert keys == sorted(keys)
    counted = {k: int(np.count_nonzero(ev.kind == code)) for k, code in KIND.items()}
    assert counted["arrival"] == trace.arrivals_total
    assert counted["key_update"] == trace.key_updates_total
    assert counted["auth_pass"] == trace.passes_total
    assert counted["departure"] == trace.departures_total
    # the cohort arrives at t = 0, the Poisson stream after it
    cohort = (ev.kind == KIND["arrival"]) & (ev.t == 0.0)
    assert int(np.count_nonzero(cohort)) == NET.E_zero


def test_pass_identity_counts_q_per_arrival_and_key_update():
    for Q in (1, 3):
        trace = run_simulation(scenario(net=dataclasses.replace(NET, Q=Q)))
        assert trace.key_updates_total > 0
        assert trace.passes_total == Q * (trace.arrivals_total + trace.key_updates_total)


def test_pass_identity_counts_the_pass_rows():
    # Q = 2: dropping the first key-update draw drops Q auth_pass rows
    trace = run_simulation(scenario(net=dataclasses.replace(NET, Q=2)))
    d = trace.draws
    assert len(d.upd_t) > 0
    n_upd = d.n_upd.copy()
    n_upd[np.argmax(n_upd > 0)] -= 1
    tampered = dataclasses.replace(
        trace, draws=dataclasses.replace(d, upd_t=d.upd_t[1:], n_upd=n_upd))
    passes = int(np.count_nonzero(tampered.events.kind == KIND["auth_pass"]))
    assert passes == tampered.passes_total == trace.passes_total - 2


def spy_on_merges(monkeypatch, fail_first: bool = False) -> list[int]:
    """The run count of each sim._merge_runs call, recorded as it starts;
    with fail_first the first call raises MemoryError."""
    merge, merges = sim._merge_runs, []

    def spy(t, entity, ends):
        merges.append(len(ends))
        if fail_first and len(merges) == 1:
            raise MemoryError
        return merge(t, entity, ends)

    monkeypatch.setattr(sim, "_merge_runs", spy)
    return merges


def test_events_are_merged_once_and_only_when_read(tmp_path, monkeypatch):
    merges = spy_on_merges(monkeypatch)
    sc = scenario()
    trace = run_simulation(sc)
    assert compare_to_model(trace, sc).pass_identity_ok
    assert merges == []
    assert trace.events == trace.events  # each read merges once and keeps nothing
    assert merges == [4, 4]
    assert main(["simulate", "--out", str(tmp_path / "o"), "--runs", "2"]) == 0
    assert merges == [4] * 4


def test_a_failed_merge_leaves_the_trace_readable(monkeypatch):
    merges = spy_on_merges(monkeypatch, fail_first=True)
    trace = run_simulation(scenario())
    with pytest.raises(MemoryError):
        trace.events  # noqa: B018
    assert trace.events == run_simulation(scenario()).events
    assert merges == [4] * 3


def test_trace_equality_merges_nothing(monkeypatch):
    merges = spy_on_merges(monkeypatch)
    a, b = run_simulation(scenario()), run_simulation(scenario())
    c = run_simulation(scenario(seed=1235))
    assert a == b
    assert a != c
    assert not (a != b)
    assert merges == []
    # tables of two types are unequal, with no field read across them
    assert not (a.slots == a.draws)
    assert a.slots != a.draws


def test_pass_identity_scales_with_q():
    net = NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=3)
    trace = run_simulation(scenario(net=net))
    assert trace.passes_total == 3 * (trace.arrivals_total + trace.key_updates_total)


def test_cohort_passes_belong_to_no_slot():
    trace = run_simulation(scenario())
    in_slots = sum(trace.slots.passes.tolist())
    assert in_slots == trace.passes_total - NET.Q * NET.E_zero
    in_slot_updates = sum(trace.slots.U_k.tolist())
    assert in_slot_updates == trace.key_updates_total


DRAWN = ("arrive", "depart", "upd_t", "n_upd")


@pytest.mark.parametrize("change,moved", [
    ({"rates": RateParams(alpha=1.5, beta=2.0, gamma_prime=0.1)}, {"upd_t", "n_upd"}),
    ({"rates": RateParams(alpha=1.0, beta=2.0, gamma_prime=0.2)}, {"depart", "upd_t", "n_upd"}),
    ({"net": NetworkParams(N=10, E=20, E_zero=10, n_inv=5, Q=1)}, set()),
    ({"net": NetworkParams(N=20, E=10, E_zero=10, n_inv=5, Q=1)}, set()),
    ({"net": NetworkParams(N=10, E=10, E_zero=10, n_inv=3, Q=1)}, set()),
    ({"window": TimeWindow(t1=5.0, t2=105.0, T=110.0, t_x_step=3.0)}, set()),
])
def test_a_parameter_moves_only_the_draws_it_drives(change, moved):
    # seed-free: alpha moves only the update stream; gamma' moves the
    # lifetimes and, through the stays, the updates; E, N, n_inv and the
    # slot width drive no draw. The arrivals move with none of them.
    base = run_simulation(scenario(seed=7)).draws
    other = run_simulation(scenario(seed=7, **change)).draws
    for name in DRAWN:
        same = getattr(other, name).tobytes() == getattr(base, name).tobytes()
        assert same != (name in moved), name


def test_slot_updates_sum_to_the_updates_up_to_the_last_edge():
    # 3 s slots end at 108 s, before T = 110 s; updates after the last edge are in no slot
    window = TimeWindow(t1=5.0, t2=105.0, T=110.0, t_x_step=3.0)
    trace = run_simulation(scenario(seed=7, window=window))
    last = trace.slots.t_s[-1]
    in_slots = int(np.count_nonzero(trace.draws.upd_t <= last))
    assert last < window.T and in_slots < trace.key_updates_total
    assert sum(trace.slots.U_k.tolist()) == in_slots


def test_slot_capacity_and_loss_bounds():
    s = run_simulation(scenario()).slots
    for e_prime, d, p_emp in zip(s.E_prime.tolist(), s.D.tolist(), s.P_empirical.tolist()):
        assert 0 <= e_prime <= NET.E
        assert e_prime <= d
        assert 0.0 <= p_emp <= 1.0


def test_full_connectivity_reports_zero_loss():
    # no departures and a saturated hub: every slot sees E' = E
    rates = RateParams(alpha=1.0, beta=2.0, gamma_prime=0.0)
    s = run_simulation(scenario(rates=rates)).slots
    # NaN marks an undefined metric in the slot columns
    assert (s.E_prime == NET.E).all()
    assert (s.P_empirical == 0.0).all()
    assert np.isnan(s.S_N_emp).all()
    assert np.isnan(s.M_O_emp).all()


def test_cohort_survivors_follow_exponential_decay():
    net = NetworkParams(N=10, E=1000, E_zero=1000, n_inv=5, Q=1)
    trace = run_simulation(scenario(net=net))
    report = compare_to_model(trace, scenario(net=net))
    assert report.survivor_mad is not None
    assert report.survivor_mad < 0.03
    s = trace.slots
    for t_s, fraction in zip(s.t_s.tolist(), s.cohort_fraction.tolist()):
        assert not math.isnan(fraction)
        assert abs(fraction - math.exp(-0.1 * t_s)) < 0.06


def test_poisson_arrival_totals():
    expected = RATES.beta * WINDOW.T  # 220
    sigma = math.sqrt(expected)
    for seed in range(10):
        trace = run_simulation(scenario(seed=seed))
        assert abs(trace.arrivals_total - NET.E_zero - expected) < 4.0 * sigma


def test_precheck_rejects_inadmissible_scenario():
    bad = NetworkParams(N=10, E=10, E_zero=10, n_inv=10)
    with pytest.raises(DomainError, match="n_inv != E"):
        run_simulation(scenario(net=bad))


def test_event_cap_truncation_reports_counts():
    total = len(run_simulation(scenario()).events)
    # caps of at least the 22 slots; a smaller one is rejected before any draw
    for cap in (22, 500):
        with pytest.raises(SimulationTruncated) as exc:
            run_simulation(scenario(event_cap=cap))
        assert exc.value.cap == cap
        assert cap + 1 <= exc.value.needed <= total


def test_event_cap_boundary_in_both_checks():
    # A run of exactly event_cap events returns; at one less it truncates.
    # With key updates and departures the exact count decides.
    q3 = dataclasses.replace(NET, Q=3)
    for overrides in ({}, {"net": q3}):
        total = len(run_simulation(scenario(**overrides)).events)
        assert len(run_simulation(scenario(**overrides, event_cap=total)).events) == total
        with pytest.raises(SimulationTruncated) as exc:
            run_simulation(scenario(**overrides, event_cap=total - 1))
        assert (exc.value.cap, exc.value.needed) == (total - 1, total)
    # Without them every vehicle has exactly 1 + Q events, so the arrival
    # check decides, before the ~2.2e5 arrival times (1.7 MiB) are drawn.
    arrivals_only = RateParams(alpha=0.0, beta=2000.0)
    trace = run_simulation(scenario(rates=arrivals_only))
    total = len(trace.events)
    assert total == (1 + NET.Q) * trace.arrivals_total
    assert len(run_simulation(scenario(rates=arrivals_only, event_cap=total)).events) == total
    tracemalloc.start()
    try:
        with pytest.raises(SimulationTruncated) as exc:
            run_simulation(scenario(rates=arrivals_only, event_cap=total - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.cap, exc.value.needed) == (total - 1, total)
    assert peak < 2**20


def lexsort_event_table(draws: Draws, scn) -> EventTable:
    """Oracle: every event row built unsorted, then one three-key lexsort."""
    Q = scn.net.Q
    arrive, depart, upd_t = draws.arrive, draws.depart, draws.upd_t
    ids = np.arange(len(arrive))
    upd_id = np.repeat(ids, draws.n_upd)
    gone = depart <= scn.window.T
    session_t = np.concatenate((arrive, upd_t))
    session_id = np.concatenate((ids, upd_id))
    sizes = (len(ids), Q * len(session_t), len(upd_t), int(np.count_nonzero(gone)))
    t = np.concatenate((arrive, np.repeat(session_t, Q), upd_t, depart[gone]))
    entity = np.concatenate((ids, np.repeat(session_id, Q), upd_id, ids[gone]))
    kind = np.repeat(np.arange(4, dtype=np.int8), sizes)
    order = np.lexsort((entity, kind, t))
    return EventTable(t[order], kind[order], entity[order])


def packed_order(t: np.ndarray) -> np.ndarray:
    """The order of sim._time_order's packed keys before its repair: by the
    bits of t above the low n.bit_length() bits, then by row."""
    low = (1 << len(t).bit_length()) - 1
    return np.sort((t.view(np.int64) & ~low) | np.arange(len(t))) & low


def nudge(t: np.ndarray, rng, ulps: int = 4) -> np.ndarray:
    """t with 0 to ulps - 1 added to each bit pattern: near ties of t >= 0."""
    return (t.view(np.int64) + rng.integers(0, ulps, len(t))).view(t.dtype)


@pytest.mark.parametrize("Q", [1, 3])
def test_event_table_matches_lexsort_on_tied_times(Q, monkeypatch):
    # Every time lies on a grid of step 1/k, so arrivals, passes, updates and
    # departures of many vehicles tie; the inputs keep what run_simulation
    # guarantees: arrivals sorted, the cohort first, update times grouped
    # by vehicle in vehicle order.
    # Each draw runs again with the later times a few ulps apart, so that the
    # packed keys of both _time_order calls (sessions, then departures) come
    # out of time order and take the repair.
    scn = scenario(net=dataclasses.replace(NET, Q=Q))
    T = scn.window.T
    rng = np.random.default_rng([Q, 1, 0])
    repaired = {"sessions": 0, "departures": 0}
    time_order, calls = sim._time_order, []

    def spy(t):
        calls.append(not np.array_equal(packed_order(t), np.argsort(t, kind="stable")))
        return time_order(t)

    monkeypatch.setattr(sim, "_time_order", spy)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(0, 40))
        cohort = int(rng.integers(0, n + 1))
        later = np.sort(rng.integers(1, int(T) * k, n - cohort)) / k
        arrive = np.concatenate((np.zeros(cohort), later))
        depart = arrive + rng.integers(0, 40 * k, n) / k
        most = int(rng.integers(0, 4))  # 0: no key update at all
        n_upd = rng.integers(0, most + 1, n)
        upd_t = np.repeat(arrive, n_upd) + rng.integers(0, 40 * k, int(n_upd.sum())) / k
        upd_t = np.minimum(upd_t, T)
        near = (np.concatenate((arrive[:cohort], np.sort(nudge(later, rng)))),
                nudge(depart, rng), nudge(upd_t, rng), n_upd)
        for draws in (Draws(arrive, depart, upd_t, n_upd), Draws(*near)):
            calls.clear()
            got = sim._merge_runs(*sim._event_runs(draws, scn))
            want = lexsort_event_table(draws, scn)
            assert got == want
            assert (got.t.dtype, got.kind.dtype, got.entity.dtype) == (
                want.t.dtype, want.kind.dtype, want.entity.dtype
            )
            repaired["departures"] += calls[-1]
            repaired["sessions"] += len(calls) == 2 and calls[0]
    assert min(repaired.values()) > 0, repaired


def test_exact_sum_does_not_wrap():
    top = 2**63 - 1
    for counts in ([], [5], [2**32], [2**32 - 1, 1], [top, top, 2**32, 7], [top] * 1000):
        assert sim._exact_sum(np.array(counts, dtype=np.int64)) == sum(counts)


@pytest.mark.parametrize(
    "t",
    [[], [3.5], [2.0] * 7, [1.0, 0.5, 1.0, 0.0, 0.5, 1.0, 2.0, 0.0], list(range(5, 0, -1))],
    ids=["empty", "one", "all_equal", "mixed", "distinct"],
)
def test_time_order_keeps_ties_in_row_order(t):
    t = np.asarray(t, dtype=float)
    order = sim._time_order(t)
    assert np.array_equal(order, np.argsort(t, kind="stable"))
    assert order.dtype == np.int64
    pairs = list(zip(t[order].tolist(), order.tolist()))
    assert pairs == sorted(pairs)


def test_time_order_on_many_ties_matches_a_stable_sort():
    rng = np.random.default_rng(2026)
    for size in (1, 2, 100, 5000):
        for levels in (1, 3, size):
            t = rng.integers(0, levels, size) / 4.0
            assert np.array_equal(sim._time_order(t), np.argsort(t, kind="stable"))


def test_time_order_repairs_keys_that_share_their_high_bits():
    # 1.0 plus 3, 0, 2, 0 and 1 ulps: five rows share every bit above the
    # low 3, so the packed keys come out in row order and only the repair
    # puts them in time order.
    t = (np.full(5, 1.0).view(np.int64) + [3, 0, 2, 0, 1]).view(float)
    want = np.argsort(t, kind="stable")
    assert want.tolist() == [1, 3, 4, 2, 0]
    assert packed_order(t).tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(sim._time_order(t), want)


def test_too_many_slots_rejected_before_any_draw(tmp_path, capsys):
    # 1.1e11 slots of 1 ns: the check runs before anything is allocated
    tiny = scenario(window=dataclasses.replace(WINDOW, t_x_step=1e-9))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="slots"):
            run_simulation(tiny)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # 22 slots: a cap of 21 is rejected, one of 22 passes on to the draws
    with pytest.raises(DomainError, match="22 slots"):
        run_simulation(scenario(event_cap=21))
    with pytest.raises(SimulationTruncated):
        run_simulation(scenario(event_cap=22))
    path = tmp_path / "tiny.json"
    path.write_text('{"tx_step_s": 1e-9}')
    assert main(["simulate", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "slots" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("overrides", [
    {},
    {"Q": 2},
    {"E0": 0, "beta": 0.3, "tx_step_s": 0.5},
    {"E0": 3, "beta": 0.5, "gamma_prime": 0.5, "tx_step_s": 1.0},
    {"E0": 0, "beta": 1e-9},
    {"alpha": 0.0},
    {"tx_step_s": 4.4},  # the last edge, 25 * 4.4, rounds past T = 110
    {"gamma_prime": 0.0},  # no vehicle departs
])
def test_slot_columns_match_the_scalar_slot_loop(overrides):
    scn = build_bundle(merge_config(overrides)).scenario
    trace = run_simulation(scn)
    assert_slots_recount(trace.events, trace.slots, scn.net)


def assert_slots_recount(ev: EventTable, s, net) -> None:
    """Each slot recounted from the event rows, then the scalar metric forms
    the columns replaced, with None for an undefined metric."""
    prev = 0.0
    for k, t_s in enumerate(s.t_s.tolist()):
        upto, inside = ev.t <= t_s, (ev.t > prev) & (ev.t <= t_s)
        d = int(np.count_nonzero(upto & (ev.kind == 0)) - np.count_nonzero(upto & (ev.kind == 3)))
        u = int(np.count_nonzero(inside & (ev.kind == 2)))
        passes = net.Q * int(np.count_nonzero(inside & (ev.kind == 0)) + u)
        gone = int(np.count_nonzero(upto & (ev.kind == 3) & (ev.entity < net.E_zero)))
        e_prime = min(d, net.E)
        p_emp = 1.0 - e_prime / net.E
        s_n = (u / net.n_inv) / (d * p_emp * net.Q) if d > 0 and p_emp > 0.0 else None
        m_o = passes * (1.0 - p_emp) / (net.E * p_emp) if p_emp > 0.0 else None
        still = (net.E_zero - gone) / net.E_zero if net.E_zero else None
        row = [s.E_prime[k], s.P_empirical[k], s.U_k[k], s.D[k], s.passes[k]]
        assert [x.item() for x in row] == [e_prime, p_emp, u, d, passes]
        got = [s.S_N_emp[k], s.M_O_emp[k], s.cohort_fraction[k]]
        assert [None if math.isnan(x) else x for x in got] == [s_n, m_o, still]
        prev = t_s


def near_tie_draws(scn):
    """30 run_simulation-like Draws on a grid of step 1/k that holds the
    slot edges (multiples of 5 s), each followed by the same draw with the
    later times a few ulps apart. The cohort (ids below E_zero) and the
    later arrivals both depart, and most vehicles update their keys."""
    T, cohort = scn.window.T, scn.net.E_zero
    rng = np.random.default_rng([2, 6])
    for _ in range(30):
        k = int(rng.integers(1, 5))
        later = np.sort(rng.integers(1, int(T) * k, int(rng.integers(5, 40)))) / k
        arrive = np.concatenate((np.zeros(cohort), later))
        n = len(arrive)
        depart = arrive + rng.integers(0, 40 * k, n) / k
        n_upd = rng.integers(0, 4, n)
        upd_t = np.repeat(arrive, n_upd) + rng.integers(0, 40 * k, int(n_upd.sum())) / k
        upd_t = np.minimum(upd_t, T)
        yield Draws(arrive, depart, upd_t, n_upd)
        near = np.concatenate((arrive[:cohort], np.sort(nudge(later, rng))))
        yield Draws(near, nudge(depart, rng), nudge(upd_t, rng), n_upd)


def test_event_runs_are_sorted():
    # _merge_runs' one stable sort on t merges the runs only if each is in
    # (t, entity) order (a vehicle's arrival and updates may tie); the
    # near ties take _time_order's repair.
    scn = scenario(net=dataclasses.replace(NET, Q=2))
    for draw in near_tie_draws(scn):
        t, ids, ends = sim._event_runs(draw, scn)
        assert len(ends) == 4
        for lo, end in zip((0, *ends[:-1]), ends):
            run_t, run_ids = t[lo:end], ids[lo:end]
            assert np.all((run_t[:-1] < run_t[1:])
                          | ((run_t[:-1] == run_t[1:]) & (run_ids[:-1] <= run_ids[1:])))


def test_slot_columns_from_the_draws_match_the_merged_table():
    # The slot columns count from value sorts of the draws; the recount
    # reads the merged table of the same draws.
    scn = scenario(net=dataclasses.replace(NET, Q=2))
    n_slots = sim.slot_count(scn)
    for draw in near_tie_draws(scn):
        slots = sim._slot_table(draw, n_slots, scn)
        assert_slots_recount(sim._merge_runs(*sim._event_runs(draw, scn)), slots, scn.net)


# Peak of one trace.events read over the bytes of the table it returns,
# measured under numpy 2.4 at seed 0: 1.880 at the heavy point (the session
# branch, peaking while the runs are written), 1.573 at the 1e5 cohort (no
# update: the merge peaks) and 1.647 at the heavy point with Q = 3. Each
# bound adds about 0.02. The session temporaries kept to the end of
# _event_runs give 1.915 at the heavy point; the runs' arrays kept alive
# through the merge give 2.48, 1.89 and 2.00.
@pytest.mark.parametrize("overrides,bound", [
    ({"beta": 20.0, "alpha": 10.0}, 1.90),
    ({"E": 100_000, "E0": 100_000, "alpha": 0.0, "beta": 2.0, "gamma_prime": 0.1}, 1.60),
    ({"beta": 20.0, "alpha": 10.0, "Q": 3}, 1.67),
], ids=["heavy", "cohort", "heavy_q3"])
def test_an_events_read_peaks_within_a_multiple_of_its_table(overrides, bound):
    trace = run_simulation(build_bundle(merge_config({**overrides, "seed": 0})).scenario)
    tracemalloc.start()
    try:
        ev = trace.events
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * (ev.t.nbytes + ev.kind.nbytes + ev.entity.nbytes)


def test_departures_after_t_stay_in_the_last_slot():
    # With 4.4 s slots the last edge is 25 * 4.4 = 110.00000000000001 > T;
    # a departure one ulp past T = 110 is no event, so its vehicle stays in D.
    scn = scenario(window=dataclasses.replace(WINDOW, t_x_step=4.4))
    n_slots = sim.slot_count(scn)
    late = np.nextafter(110.0, np.inf)
    assert n_slots * 4.4 == late
    arrive = np.concatenate((np.zeros(NET.E_zero), [50.0, 60.0]))
    n = len(arrive)
    for at, gone in ((late, 0), (110.0, 2)):
        depart = np.full(n, np.inf)
        depart[[0, n - 1]] = at  # one of the cohort, one later arrival
        s = sim._slot_table(Draws(arrive, depart, np.zeros(0), np.zeros(n, np.int64)),
                            n_slots, scn)
        assert s.t_s[-1] == late
        assert s.D[-1] == n - gone
        assert s.cohort_fraction[-1] == (NET.E_zero - gone // 2) / NET.E_zero


def test_empty_hub_has_no_observations():
    # A1 without its cohort and with a negligible arrival rate: the default
    # seed 1234 draws no arrival, so every slot is empty
    bundle = build_bundle(merge_config({"E0": 0, "beta": 1e-9}))
    trace = run_simulation(bundle.scenario)
    assert trace.arrivals_total == 0
    s = trace.slots
    assert len(s)
    assert (s.D == 0).all()
    assert np.isnan(s.S_N_emp).all()
    assert (s.M_O_emp == 0.0).all()
    assert np.isnan(s.cohort_fraction).all()
    table = score_failsafe_slots(
        trace, bundle.omega_compliance(len(trace.slots)), bundle.bounds
    )
    assert len(table.t_s) == len(trace.slots)
    for decision, rationale in zip(table.decision.tolist(), table.rationale, strict=True):
        assert decision == UPDATE_KEYS
        assert rationale == "insufficient observations in this slot"


def test_scenario_validation():
    with pytest.raises(DomainError):
        scenario(seed=-1)
    with pytest.raises(DomainError):
        scenario(seed=2**64)
    with pytest.raises(DomainError):
        scenario(event_cap=0)
    with pytest.raises(DomainError, match=r"event_cap must be below 2\*\*63"):
        scenario(event_cap=2**63)
    assert scenario(event_cap=2**63 - 1).event_cap == 2**63 - 1


def test_compare_requires_matching_scenario():
    trace = run_simulation(scenario())
    with pytest.raises(DomainError):
        compare_to_model(trace, scenario(seed=9))


def test_compare_report_shape():
    sc = scenario()
    report = compare_to_model(run_simulation(sc), sc)
    assert isinstance(report, ComparisonReport)
    assert all(len(column) == 22 for column in report.table)
    assert report.pass_identity_ok
    assert report.passes_observed == report.passes_expected
    assert np.isnan(report.table.S_N_model[0])  # first slot starts at t = 0
    assert not np.isnan(report.table.S_N_model[1:]).any()
    assert report.table.P_model == pytest.approx([0.5**10] * 22, rel=1e-12, abs=0.0)


def test_report_summaries_are_views_of_its_table():
    sc = scenario(net=dataclasses.replace(NET, E=100))
    trace = run_simulation(sc)
    report = compare_to_model(trace, sc)
    assert [f.name for f in dataclasses.fields(report)] == [
        "table", "passes_observed", "passes_expected", "s_n_model_errors"]
    assert [f.name for f in dataclasses.fields(trace)] == ["scenario", "draws", "slots"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.slots = trace.slots
    for summary, column in ((report.survivor_mad, report.table.survivor_abs_dev),
                            (report.s_n_mean_rel_dev, report.table.S_N_rel_dev)):
        defined = [abs(v) for v in column.tolist() if not math.isnan(v)]
        assert len(defined) > 10 and summary == sum(defined) / len(defined)
    assert report.pass_identity_ok
    assert not dataclasses.replace(report, passes_observed=0).pass_identity_ok
    with pytest.raises(AttributeError):
        report.survivor_mad = 0.0


def test_compare_builds_no_window_per_slot(monkeypatch):
    # each slot's closed form takes the slot bounds as floats; the scenario's
    # window was checked once, when the scenario was built
    sc = scenario(window=dataclasses.replace(WINDOW, t_x_step=0.1))
    trace = run_simulation(sc)
    calls = []
    check = TimeWindow.__post_init__

    def counting(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(TimeWindow, "__post_init__", counting)
    report = compare_to_model(trace, sc)
    assert len(report.table.t_s) == 1100
    assert not np.isnan(report.table.S_N_model[1:]).any()
    assert calls == []


def test_compare_model_columns_absent_without_closed_form():
    rates = RateParams(alpha=2.0, beta=2.0, gamma_prime=0.1)
    sc = scenario(rates=rates)
    report = compare_to_model(run_simulation(sc), sc)
    assert np.isnan(report.table.S_N_model).all()
    assert report.s_n_mean_rel_dev is None


def test_csv_exports(tmp_path):
    sc = scenario()
    trace = run_simulation(sc)
    events_path = tmp_path / "events.csv"
    metrics_path = tmp_path / "metrics.csv"
    compare_path = tmp_path / "compare.csv"
    trace.export_events_csv(events_path)
    trace.export_metrics_csv(metrics_path)
    compare_to_model(trace, sc).export_csv(compare_path)
    ev_lines = events_path.read_text().splitlines()
    assert ev_lines[0] == "t_s,kind,entity_id"
    assert len(ev_lines) == 1 + len(trace.events)
    assert ev_lines[1] == "0,arrival,0"
    met_lines = metrics_path.read_text().splitlines()
    assert met_lines[0] == "t_s,E_active,P_empirical,U_k,D,passes,S_N_emp,M_O_emp"
    assert len(met_lines) == 23
    cmp_lines = compare_path.read_text().splitlines()
    assert cmp_lines[0] == (
        "t_s,S_N_emp,S_N_model,S_N_rel_dev,P_emp,P_model,P_abs_dev,"
        "survivor_emp,survivor_model,survivor_abs_dev"
    )


def test_metrics_csv_memory_does_not_grow_with_the_slots(tmp_path):
    # write_csv formats a block of rows at a time, so the metrics CSV's peak
    # at 2e5 slots stays within 2x of its peak at 2e4 slots
    peaks = []
    for slots in (20_000, 200_000):
        b = build_bundle(merge_config({"T_s": float(slots), "t2_s": slots / 10,
                                       "tx_step_s": 1.0, "beta": 0.1, "alpha": 1e-6}))
        trace = run_simulation(b.scenario)
        assert len(trace.slots) == slots
        tracemalloc.start()
        try:
            trace.export_metrics_csv(tmp_path / "metrics.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 1 + slots
    assert peaks[1] < 2 * peaks[0], peaks


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"net": NetworkParams(N=10, E=10, E_zero=10, n_inv=5, Q=3)},
    ],
    ids=["A1", "Q3"],
)
def test_events_csv_matches_write_csv(tmp_path, overrides):
    # the column writer must give the bytes of the row writer through fmt
    trace = run_simulation(scenario(**overrides))
    by_column = tmp_path / "columns.csv"
    by_row = tmp_path / "rows.csv"
    trace.export_events_csv(by_column)
    ev = trace.events
    names = list(KIND)
    kinds = [names[k] for k in ev.kind.tolist()]
    write_csv(by_row, ("t_s", "kind", "entity_id"), (ev.t.tolist(), kinds, ev.entity.tolist()))
    assert by_column.read_bytes() == by_row.read_bytes()
    lines = by_column.read_text().splitlines()
    q = trace.scenario.net.Q
    assert lines.count("0,auth_pass,9") == q  # cohort rows at t = 0 print as 0


def test_events_csv_of_no_rows_is_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    no_rows = np.empty(0)
    write_csv(path, ("t_s", "kind", "entity_id"),
              (no_rows, Codes(no_rows.astype(np.int8), ("arrival",)), no_rows.astype(np.int64)))
    assert path.read_bytes() == b"t_s,kind,entity_id\n"


def test_events_csv_formats_times_by_bits_across_chunks(tmp_path, monkeypatch):
    # a time is formatted once per run of equal bits: 0.0 and -0.0 compare
    # equal but print apart, and runs that span a block boundary restart.
    # The rest are edges of the vectorised %.9g: exact 9-digit ties, doubles
    # next to a tie whose scaled product rounds onto it, both ends of
    # [1e-4, 1e8), carries to one more digit, and values outside
    t = np.array([
        0.0, 0.0, -0.0, -0.0, 1.5, 1.5, 1.5, math.nan, math.inf, 2.0 / 3.0,
        2.0**-13, 78125 / 64, 400.0919115, 0.1140812545, 1e-4, np.nextafter(1e-4, 0),
        0.001, 9.9999999996, 99999999.95, 1e8, 123456789.0, 1e9, 5e-324, -1.5, -math.inf,
    ])
    codes = np.array([0, 1, 1, 2, 0, 3, 3, 1, 2, 0] + [1, 2, 3] * 5, dtype=np.int8)
    ids = np.array([0, 0, 1, 1, 2, 2, 0, 3, 3, 1] + list(range(4, 19)), dtype=np.int64)
    ids[-3] = 1234567  # past the digit table of a 3-row block: written in 1-digit groups
    labels = ("a", "bb", "c", "d")
    by_column = tmp_path / "columns.csv"
    by_row = tmp_path / "rows.csv"
    monkeypatch.setattr(csvio, "_BLOCK_CELLS", 9)  # 3 rows of 3 cells
    monkeypatch.setattr(csvio, "_TABLE_CELLS", 0)  # a small table, through the block writer
    write_csv(by_column, ("t", "k", "i"), (t, Codes(codes, labels), ids))
    write_csv(by_row, ("t", "k", "i"), (t.tolist(), [labels[c] for c in codes], ids.tolist()))
    assert by_column.read_bytes() == by_row.read_bytes()
    lines = by_column.read_text().splitlines()
    assert lines[3:5] == ["-0,bb,1", "-0,c,1"]
    assert [line.split(",")[0] for line in lines[11:23]] == [
        "0.000122070312", "1220.70312", "400.091911", "0.114081255", "0.0001",
        "0.0001", "0.001", "10", "100000000", "100000000", "123456789", "1e+09",
    ]


def _near_tie(v: float) -> bool:
    """Whether |v| * 10**(8 - E), exactly, lies within 2e-6 of a half-integer,
    with E the decimal exponent of v's nine-digit rounding or one above it."""
    z = abs(Fraction(v)) * Fraction(10) ** (8 - int(f"{v:.8e}".split("e")[1]))
    return any(abs(w - math.floor(w) - Fraction(1, 2)) < Fraction(2, 10**6) for w in (z, z * 10))


def _fmt_calls(monkeypatch) -> list:
    calls = []
    real_fmt = arraycsv.fmt
    monkeypatch.setattr(arraycsv, "fmt", lambda v: calls.append(v) or real_fmt(v))
    return calls


def test_events_csv_formats_in_range_times_without_fmt(tmp_path, monkeypatch):
    # times in [1e-4, 1e8) never reach the per-value route, nor do 0.0 and
    # nan; exact 9-digit ties (2**-13, 78125/64) and doubles next to one
    # are settled exactly in fixed form
    rng = np.random.default_rng(20)
    ties = [2.0**-13, 78125 / 64, 400.0919115, 0.1140812545, 0.0, math.nan]
    t = np.concatenate([10.0 ** rng.uniform(-4, 8, 3000), ties])
    calls = _fmt_calls(monkeypatch)
    path = tmp_path / "events.csv"
    ids = np.zeros(len(t), dtype=np.int64)
    write_csv(path, ("t", "k", "i"), (t, Codes(ids.astype(np.int8), ("a",)), ids))
    assert calls == []
    cells = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
    assert cells == [fmt(v) for v in t.tolist()]


def test_slot_table_formats_exponent_form_and_negatives_without_fmt(tmp_path, monkeypatch):
    # 1e5 cells of either sign from 1e-300 to 1e300, most in exponent form,
    # and zeros of both signs: only 9-digit near ties reach the per-value
    # route (about 2e-6 of random cells are near one)
    rng = np.random.default_rng(34)
    x = 10.0 ** rng.uniform(-300, 300, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    x[::997] = 0.0
    x[::1999] = -0.0
    calls = _fmt_calls(monkeypatch)
    path = tmp_path / "slots.csv"
    columns = list(x.reshape(10, -1))
    write_csv(path, [f"c{k}" for k in range(10)], columns)
    assert len(calls) <= 2 and all(map(_near_tie, calls)), calls
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert rows == [[fmt(v) for v in row] for row in zip(*(c.tolist() for c in columns))]


def test_key_updates_lie_in_clipped_stays():
    # updates are uniform on [t_in, min(t_out, T)], their count Poisson in
    # alpha times that stay
    T = WINDOW.T
    updates = 0
    stay = 0.0
    for seed in range(30):
        trace = run_simulation(scenario(seed=seed))
        ev = trace.events
        arrive, depart, update_rows = {}, {}, []
        for t_s, kind, entity_id in zip(ev.t.tolist(), ev.kind.tolist(), ev.entity.tolist()):
            if kind == KIND["arrival"]:
                arrive[entity_id] = t_s
            elif kind == KIND["departure"]:
                depart[entity_id] = t_s
            elif kind == KIND["key_update"]:
                update_rows.append((t_s, entity_id))
        for t_s, entity_id in update_rows:
            assert arrive[entity_id] < t_s <= min(depart.get(entity_id, T), T)
        updates += trace.key_updates_total
        stay += sum(min(depart.get(i, T), T) - t for i, t in arrive.items())
    expected = RATES.alpha * stay
    assert abs(updates - expected) < 4.0 * math.sqrt(expected)


def test_slot_arrivals_match_poisson_binned():
    # pooled chi-square over 100 seeds: 22 slots each, four count bins
    step = WINDOW.t_x_step
    rate = RATES.beta * step  # 10 per slot
    rates = RateParams(alpha=0.0, beta=2.0)  # arrivals only, keeps runs small
    edges = [(0, 7), (8, 10), (11, 13), (14, None)]

    def poisson_cdf(k):
        return sum(math.exp(-rate) * rate**i / math.factorial(i) for i in range(k + 1))

    probs = []
    for lo, hi in edges:
        lower = poisson_cdf(lo - 1) if lo > 0 else 0.0
        upper = poisson_cdf(hi) if hi is not None else 1.0
        probs.append(upper - lower)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    observed = [0, 0, 0, 0]
    total = 0
    for seed in range(100):
        trace = run_simulation(scenario(rates=rates, seed=seed))
        ev = trace.events
        arr = np.sort(ev.t[(ev.kind == KIND["arrival"]) & (ev.t > 0.0)])
        prev = 0.0
        for t_s in trace.slots.t_s.tolist():
            count = int(
                np.searchsorted(arr, t_s, side="right")
                - np.searchsorted(arr, prev, side="right")
            )
            for j, (lo, hi) in enumerate(edges):
                if count >= lo and (hi is None or count <= hi):
                    observed[j] += 1
                    break
            prev = t_s
            total += 1
    assert total == 2200
    chi2 = sum(
        (obs - total * p) ** 2 / (total * p) for obs, p in zip(observed, probs)
    )
    # df = 3, alpha = 0.01
    assert chi2 < 11.345
