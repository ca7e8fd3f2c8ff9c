"""Continuous-time Monte Carlo oracle for the analytical model.

Vehicles arrive as a Poisson stream (rate beta) on top of an initial
cohort, stay for exponential lifetimes (rate gamma'), refresh their key
pair as a per-vehicle Poisson process (rate alpha, one event refreshes
both keys of the pair), and spend Q authentication passes per session:
at arrival, and again at every key update, which re-authenticates the
vehicle. Every random draw comes from one of three seed-split
streams (arrivals, lifetimes, updates) so changing one rate never
perturbs another stream's draws. Each Poisson process is drawn as a
count, then as that many i.i.d. uniform times (Ross, Simulation, ch. 5):
arrivals on [0, T], a vehicle's updates on its stay clipped at T.

Slot metrics use the (previous boundary, boundary] convention; the
initial cohort's t = 0 passes therefore belong to the event totals but to
no slot. Empirical sustainability is computed directly from the defining
ratio, without the model-side admissibility guard D <= N, because the
observed count is an output here, not a constraint. No position is
drawn: D counts the vehicles present in the slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .config import Scenario
from .csvio import Codes, _Columns, write_csv
from .decision import check_constraints
from .errors import DomainError, OverflowRangeError, SimulationTruncated
from .sustain import _window_form, loss_probability_model

# The events CSV labels, indexed by EventTable.kind code in tie-break order.
_KIND_NAMES = ("arrival", "auth_pass", "key_update", "departure")
_GATHER_ROWS = 1 << 16  # rows per in-place gather step in _merge_runs
# The largest mean Generator.poisson accepts; above it, it raises ValueError.
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


@dataclass(frozen=True, eq=False)
class EventTable(_Columns):
    """Events as numpy columns sorted by (t, kind code, entity), with no
    Python object per event; SimTrace.events builds it on each read."""

    t: np.ndarray
    kind: np.ndarray
    entity: np.ndarray


@dataclass(frozen=True, eq=False)
class SlotTable(_Columns):
    """Per-slot metrics as float64 and int64 numpy columns; NaN marks a
    metric that is undefined in its slot, and the defined ones are finite."""

    t_s: np.ndarray
    E_prime: np.ndarray
    P_empirical: np.ndarray
    U_k: np.ndarray
    D: np.ndarray
    passes: np.ndarray
    S_N_emp: np.ndarray
    M_O_emp: np.ndarray
    cohort_fraction: np.ndarray


@dataclass(frozen=True, eq=False)
class Draws(_Columns):
    """One run's draws: each vehicle's arrival and departure time and its
    key-update count, in vehicle order (the cohort first, arrive sorted),
    and the update times, vehicle by vehicle."""

    arrive: np.ndarray
    depart: np.ndarray
    upd_t: np.ndarray
    n_upd: np.ndarray


@dataclass(frozen=True)
class SimTrace:
    """One run: its draws and slot metrics. The event totals and the
    event table are read off the draws.

    events orders and merges the table on every read and keeps none: in
    the CLI only the events CSV reads the event order, and a run that
    never asks for it never orders an event.
    """

    scenario: Scenario
    draws: Draws
    slots: SlotTable

    @property
    def arrivals_total(self) -> int:
        return len(self.draws.arrive)

    @property
    def departures_total(self) -> int:
        """Departures up to T; a later one is no event."""
        return int(np.count_nonzero(self.draws.depart <= self.scenario.window.T))

    @property
    def key_updates_total(self) -> int:
        return len(self.draws.upd_t)

    @property
    def passes_total(self) -> int:
        """Authentication passes: Q per arrival and per key update."""
        return self.scenario.net.Q * (self.arrivals_total + self.key_updates_total)

    @property
    def events(self) -> EventTable:
        return _merge_runs(*_event_runs(self.draws, self.scenario))

    def export_events_csv(self, path: str | Path) -> None:
        ev = self.events  # a table whose len counts its rows, with the kinds as labels
        write_csv(path, ("t_s", "kind", "entity_id"),
                  replace(ev, kind=Codes(ev.kind, _KIND_NAMES)))

    def export_metrics_csv(self, path: str | Path) -> None:
        s = self.slots
        header = ("t_s", "E_active", "P_empirical", "U_k", "D", "passes", "S_N_emp", "M_O_emp")
        columns = [s.t_s, s.E_prime, s.P_empirical, s.U_k, s.D, s.passes, s.S_N_emp, s.M_O_emp]
        write_csv(path, header, columns)


def _time_order(t: np.ndarray) -> np.ndarray:
    """Stable sort order of float64 t as int64: ties keep their row order.

    t must be >= +0.0 with no nan and no -0.0, as run_simulation's times
    are; there the bit patterns, read as int64, sort like the times. Each
    key is t's bits with the low len(t).bit_length() bits replaced by the
    row, so one integer sort orders the keys by the time's high bits, then
    by row. Only keys with equal high bits can be out of time order. If
    any are, every run of such keys gets one stable argsort by time; runs
    of different high bits hold disjoint time ranges, so each stays put.
    """
    low = (1 << len(t).bit_length()) - 1
    key = t.view(np.int64) & ~low
    key |= np.arange(len(t))
    key.sort()
    near = np.flatnonzero((key[1:] ^ key[:-1]) <= low)
    if np.any(t[key[near + 1] & low] < t[key[near] & low]):
        runs = np.union1d(near, near + 1)
        key[runs] = key[runs][np.argsort(t[key[runs] & low], kind="stable")]
    key &= low
    return key


def _event_runs(draws: Draws, scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns t and entity of the drawn vehicles' events, one run per
    kind in kind-code order, and the end of each run.

    Each run is in (t, entity) order by at most one packed-key _time_order
    sort: the arrivals are in order already, and the passes (each row
    repeated Q times) and key updates share the sessions' sort. Only
    SimTrace.events calls it; the slot metrics count from the draws.
    """
    arrive, depart, upd_t = draws.arrive, draws.depart, draws.upd_t
    ids = np.arange(len(arrive))
    gone = np.flatnonzero(depart <= scenario.window.T)
    gone = gone[_time_order(depart[gone])]
    if len(upd_t):
        # Sessions in entity order, each vehicle's arrival before its
        # updates, so their tie-stable time order is (t, entity) order.
        sessions = draws.n_upd + 1
        session_id = np.repeat(ids, sessions)
        first = np.cumsum(sessions) - sessions
        is_upd = np.ones(len(session_id), dtype=bool)
        is_upd[first] = False
        session_t = np.empty(len(session_id))
        session_t[first], session_t[is_upd] = arrive, upd_t
        order = _time_order(session_t)
        updated = order[is_upd[order]]
        del sessions, first, is_upd  # freed before the runs are written
        passes = (session_t, session_id, order, scenario.net.Q)
        updates = (session_t, session_id, updated, 1)
    else:  # the sessions are the arrivals, already in order; no update rows
        # Q < event_cap unless no vehicle came: numpy never sees a Q past int64
        passes = (arrive, ids, ids, min(scenario.net.Q, scenario.event_cap))
        updates = (upd_t, ids[:0], ids[:0], 1)
    runs = ((arrive, ids, ids, 1), passes, updates, (depart, ids, gone, 1))
    ends = np.cumsum([len(order) * repeats for _, _, order, repeats in runs])
    t, entity = np.empty(ends[-1]), np.empty(ends[-1], dtype=ids.dtype)
    for (times, who, order, repeats), end in zip(runs, ends):
        lo = end - len(order) * repeats
        for src, out in ((times, t), (who, entity)):
            rows = out[lo:end].reshape(-1, repeats)
            # order is in range; "clip" lets take write without a buffer
            np.take(src, order, out=rows[:, 0], mode="clip")
            rows[:, 1:] = rows[:, :1]
    return t, entity, ends


def _merge_runs(t: np.ndarray, entity: np.ndarray, ends: np.ndarray) -> EventTable:
    """The rows of _event_runs' columns in (t, kind code, entity) order.

    The runs come in kind-code order, each sorted by (t, entity), so one
    stable sort on t merges them; a row's kind is the number of run ends
    at or before it. No new column: t is sorted in place, and order
    becomes the sorted ids in place, a chunk at a time.
    """
    order = np.argsort(t, kind="stable")
    # t sorted is t[order], as no time is -0.0 or nan. Sorted while the
    # caller's arguments keep entity alive, it peaks as the argsort does:
    # both merge the same runs with a buffer of the same size.
    t.sort(kind="stable")
    kind = np.zeros(len(order), dtype=np.int8)
    for end in ends[:-1]:
        kind += order >= end
    for lo in range(0, len(order), _GATHER_ROWS):
        rows = order[lo : lo + _GATHER_ROWS]
        rows[:] = entity[rows]
    return EventTable(t, kind, order)


def _slot_table(draws: Draws, n_slots: int, scenario: Scenario) -> SlotTable:
    """Per-slot metrics counted from run_simulation's draws.

    arrive is sorted; depart and upd_t are counted from plain value sorts,
    as no count needs the event order.
    """
    net = scenario.net
    arrive, depart = draws.arrive, draws.depart
    # Slot counts are differences of cumulative counts at [0, b1, b2, ...].
    edges = np.arange(n_slots + 1) * scenario.window.t_x_step
    # A departure after T is no event: departures count at min(edge, T),
    # as the last edge may round past T.
    gone_at = np.minimum(edges, scenario.window.T)

    def upto(times: np.ndarray, at: np.ndarray = edges) -> np.ndarray:
        return np.searchsorted(times, at, side="right")

    arrived = upto(arrive)
    cohort_gone = upto(np.sort(depart[:net.E_zero]), gone_at)
    active = arrived - cohort_gone - upto(np.sort(depart[net.E_zero:]), gone_at)
    u_k = np.diff(upto(np.sort(draws.upd_t)))
    # Q < event_cap unless no vehicle came: numpy never sees a Q past int64
    passes = min(net.Q, scenario.event_cap) * (np.diff(arrived) + u_k)
    survivors = net.E_zero - cohort_gone

    d = active[1:]
    # d <= len(arrive), so clipping E there first changes no minimum and
    # keeps an E past the int64 range out of numpy's integer casts.
    e_prime = np.minimum(d, min(net.E, len(arrive)))
    p_emp = 1.0 - e_prime / net.E
    nan = np.full(len(d), np.nan)
    return SlotTable(
        t_s=edges[1:], E_prime=e_prime, P_empirical=p_emp, U_k=u_k, D=d, passes=passes,
        S_N_emp=np.divide(u_k / net.n_inv, d * p_emp * net.Q, out=nan.copy(),
                          where=(p_emp > 0.0) & (d > 0)),
        M_O_emp=np.divide(passes * (1.0 - p_emp), net.E * p_emp, out=nan.copy(), where=p_emp > 0),
        cohort_fraction=survivors[1:] / net.E_zero if net.E_zero else nan,
    )


def _exact_sum(counts: np.ndarray) -> int:
    """Sum of int64 counts >= 0 with no wrap, exact while len(counts) < 2**31."""
    return (int(np.sum(counts >> 32)) << 32) + int(np.sum(counts & 0xFFFFFFFF))


def slot_count(scenario: Scenario) -> int:
    """The number of reporting slots, known before any draw.

    The slot edges are k * t_x_step for k = 0, 1, ..., slot_count, up to T
    with a 1e-12 relative allowance for rounding. Raises DomainError when
    T / t_x_step exceeds the event cap, before the edges are counted.
    """
    window = scenario.window
    step, slots = window.t_x_step, window.T / window.t_x_step
    if slots > scenario.event_cap:
        raise DomainError(
            f"{slots:.6g} slots of {step:g} s exceed the event cap {scenario.event_cap}"
        )
    last = window.T * (1.0 + 1e-12)
    n = int(last // step) + 1
    while n * step > last:  # k * step rounds, so the last candidates may pass T
        n -= 1
    return n


def run_simulation(scenario: Scenario) -> SimTrace:
    """Simulate [0, T] and extract per-slot empirical metrics.

    Raises DomainError before any draw if the scenario fails its
    constraint check, has more slots (T / t_x_step) than its event cap, or
    has beta * T or alpha * T above numpy's largest Poisson mean. Raises
    SimulationTruncated, with the cap and a lower bound on the events
    needed, if they exceed the cap: from the arrival count, at 1 + Q events
    per vehicle, before any uniform is drawn, then from the exact count
    before any event is built. Every array is thus O(event_cap).
    """
    net, rates, window = scenario.net, scenario.rates, scenario.window
    violations = check_constraints(
        net, window, U_k=scenario.thresholds.U_prime_N, D=net.N, thresholds=scenario.thresholds
    )
    if violations:
        names = ", ".join(v.constraint for v in violations)
        raise DomainError(f"scenario fails constraint check: {names}")
    n_slots = slot_count(scenario)
    T = window.T
    for name, rate in (("beta", rates.beta), ("alpha", rates.alpha)):
        if rate * T > _POISSON_LAM_MAX:
            raise DomainError(f"{name} * T = {rate * T:.6g} exceeds numpy's largest Poisson mean")

    # The streams are children 0-2 of the seed; spawn numbers children in
    # order, so adding or dropping a later child leaves their draws unchanged.
    streams = np.random.SeedSequence(scenario.seed).spawn(3)
    rng_arr, rng_life, rng_upd = map(np.random.default_rng, streams)

    cap = scenario.event_cap
    n_poisson = int(rng_arr.poisson(rates.beta * T))
    n = net.E_zero + n_poisson
    if n * (1 + net.Q) > cap:
        raise SimulationTruncated(cap, n * (1 + net.Q))
    arrive = np.zeros(n)
    arrive[net.E_zero:] = rng_arr.uniform(0.0, T, n_poisson)
    arrive[net.E_zero:].sort()
    if rates.gamma_prime > 0.0:
        depart = rng_life.exponential(1.0 / rates.gamma_prime, size=n)
        depart += arrive
    else:
        depart = np.full(n, np.inf)
    departures = int(np.count_nonzero(depart <= T))

    # a zero mean draws no count (the stream keeps its draws), and n zeros need no memory
    updates, n_upd = 0, np.broadcast_to(np.int64(0), n)
    if rates.alpha > 0.0:
        stay = np.minimum(depart, T) - arrive
        n_upd = rng_upd.poisson(rates.alpha * stay)
        updates = _exact_sum(n_upd)  # one vehicle's count can reach 9.2e18
    needed = (1 + net.Q) * (n + updates) + departures
    if needed > cap:
        raise SimulationTruncated(cap, needed)
    upd_t = np.zeros(0)
    if updates:
        upd_t = np.repeat(arrive, n_upd) + np.repeat(stay, n_upd) * rng_upd.random(updates)
    draws = Draws(arrive, depart, upd_t, n_upd)
    return SimTrace(scenario, draws, _slot_table(draws, n_slots, scenario))


@dataclass(frozen=True, eq=False)
class ComparisonTable(_Columns):
    """The compared slots as float64 numpy columns, NaN where a cell is
    undefined; the field names are the comparison CSV header."""

    t_s: np.ndarray
    S_N_emp: np.ndarray
    S_N_model: np.ndarray
    S_N_rel_dev: np.ndarray
    P_emp: np.ndarray
    P_model: np.ndarray
    P_abs_dev: np.ndarray
    survivor_emp: np.ndarray
    survivor_model: np.ndarray
    survivor_abs_dev: np.ndarray


@dataclass
class ComparisonReport:
    """The compared slots and the pass counts, both trace.passes_total (see
    compare_to_model); the summaries are views of them."""

    table: ComparisonTable
    passes_observed: int
    passes_expected: int
    # one message per slot whose model value left the closed form's range
    s_n_model_errors: list[str] = field(default_factory=list)

    @property
    def survivor_mad(self) -> float | None:
        return _mean_abs(self.table.survivor_abs_dev)

    @property
    def s_n_mean_rel_dev(self) -> float | None:
        return _mean_abs(self.table.S_N_rel_dev)

    @property
    def pass_identity_ok(self) -> bool:
        return self.passes_observed == self.passes_expected

    def export_csv(self, path: str | Path) -> None:
        write_csv(path, [f.name for f in fields(self.table)], self.table)


def _mean_abs(column: np.ndarray) -> float | None:
    """Mean of |v| over the defined cells, summed in slot order by cumsum; None if none."""
    defined = np.abs(column[~np.isnan(column)])
    return float(np.cumsum(defined)[-1] / len(defined)) if len(defined) else None


def compare_to_model(trace: SimTrace, scenario: Scenario) -> ComparisonReport:
    """Slot-by-slot empirical vs closed-form comparison.

    Model sustainability for a slot integrates the closed form over that
    slot's window (previous edge, edge], clipped at T; the first slot has no
    model value because its window starts at t = 0. A slot whose closed form
    leaves its domain or double range has no model value either; its
    message goes to s_n_model_errors. Survivor fractions
    compare the initial cohort against exponential decay (math.exp per
    slot: np.exp can differ in the last bit). Both pass counts
    are trace.passes_total, so the pass identity holds on every trace by
    construction; they stay only while perfbench's cohort_1e5 check reads
    them (ROADMAP item 16). The event table's auth_pass rows are checked in
    test_events_sorted_and_complete and perfbench's simulate_heavy CSV check.
    """
    if trace.scenario != scenario:
        raise DomainError("trace was not produced from this scenario")
    net, rates, window = scenario.net, scenario.rates, scenario.window
    p_model = loss_probability_model(net)
    s = trace.slots
    n = len(s)
    s_n_model = np.full(n, np.nan)
    model_errors = []
    if rates.alpha > 0.0 and rates.beta > rates.alpha:
        for k in range(1, n):  # the first slot's window starts at t = 0
            t1, t2 = s.t_s.item(k - 1), min(s.t_s.item(k), window.T)
            if 0.0 < t1 < t2:
                try:
                    s_n_model[k] = _window_form(rates, net, t1, t2, net.Q)
                except (DomainError, OverflowRangeError) as e:
                    model_errors.append(str(e))
    cohort = s.cohort_fraction
    survivor_model = np.full(n, np.nan)
    if net.E_zero:  # else no cohort: every survivor cell is empty
        survivor_model = np.fromiter(map(math.exp, -rates.gamma_prime * s.t_s), float, n)
    with np.errstate(all="ignore"):  # inf and NaN as Python float arithmetic gives them
        s_n_rel = np.divide(s.S_N_emp - s_n_model, np.abs(s_n_model),
                            out=np.full(n, np.nan), where=s_n_model != 0.0)
    table = ComparisonTable(
        s.t_s, s.S_N_emp, s_n_model, s_n_rel, s.P_empirical, np.full(n, p_model),
        np.abs(s.P_empirical - p_model), cohort, survivor_model, np.abs(cohort - survivor_model),
    )
    return ComparisonReport(table, trace.passes_total, trace.passes_total, model_errors)
