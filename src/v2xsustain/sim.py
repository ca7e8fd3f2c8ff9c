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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import Scenario
from .csvio import nan_to_none, write_csv, write_event_columns
from .decision import check_constraints
from .errors import DomainError, OverflowRangeError, SimulationTruncated
from .sustain import _window_form, loss_probability_model

# The events CSV labels, indexed by EventTable.kind code in tie-break order.
_KIND_NAMES = ("arrival", "auth_pass", "key_update", "departure")
_GATHER_ROWS = 1 << 16  # rows per in-place gather step in _merge_blocks
# The largest mean Generator.poisson accepts; above it, it raises ValueError.
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


class _Columns:
    """Dataclass fields of numpy columns, len the first's; == matches NaN to NaN."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name), equal_nan=True)
                   for f in fields(self))


@dataclass(frozen=True, eq=False)
class EventTable(_Columns):
    """Events as numpy columns sorted by (t, kind code, entity), with no
    Python object per event; SimTrace.events builds it on each read."""

    t: np.ndarray
    kind: np.ndarray
    entity: np.ndarray


class _Block(NamedTuple):
    """One kind's event rows, times[order] and ids[order], each row repeated."""

    times: np.ndarray
    ids: np.ndarray
    order: np.ndarray
    repeats: int


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
        return _merge_blocks(list(_event_blocks(self.draws, self.scenario)))

    def export_events_csv(self, path: str | Path) -> None:
        ev = self.events
        write_event_columns(
            path, ("t_s", "kind", "entity_id"), ev.t, ev.kind, _KIND_NAMES, ev.entity
        )

    def export_metrics_csv(self, path: str | Path) -> None:
        s = self.slots
        write_csv(
            path,
            ("t_s", "E_active", "P_empirical", "U_k", "D", "passes",
             "S_N_emp", "M_O_emp"),
            [nan_to_none(c) for c in (s.t_s, s.E_prime, s.P_empirical, s.U_k, s.D,
                                      s.passes, s.S_N_emp, s.M_O_emp)],
        )


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


def _concat_rows(parts, size: int) -> np.ndarray:
    """Concatenation of src[order] over parts (src, order, repeats), each
    row repeated, written in place with no copy per part."""
    out = np.empty(size, dtype=parts[0][0].dtype)
    lo = 0
    for src, order, repeats in parts:
        rows = out[lo : lo + len(order) * repeats].reshape(-1, repeats)
        # order is in range; "clip" lets take write without a buffer
        np.take(src, order, out=rows[:, 0], mode="clip")
        rows[:, 1:] = rows[:, :1]
        lo += rows.size
    return out


def _event_blocks(draws: Draws, scenario: Scenario) -> tuple[_Block, ...]:
    """Each kind's events of the drawn vehicles, in kind-code order.

    Each block's rows are in (t, entity) order, the sorted runs that
    _merge_blocks merges, by at most one packed-key _time_order sort: the
    arrivals are in order already, and the passes and key updates share
    the sessions' sort. Only SimTrace.events calls it; the slot metrics
    count from the draws.
    """
    arrive, upd_t = draws.arrive, draws.upd_t
    n = len(arrive)
    ids = np.arange(n)
    gone = np.flatnonzero(draws.depart <= scenario.window.T)
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
        passes = _Block(session_t, session_id, order, scenario.net.Q)
        updates = _Block(session_t, session_id, order[is_upd[order]], 1)
    else:  # the sessions are the arrivals, already in order; no update rows
        passes = _Block(arrive, ids, ids, scenario.net.Q)
        updates = _Block(upd_t, ids[:0], ids[:0], 1)
    departures = _Block(draws.depart, ids, gone[_time_order(draws.depart[gone])], 1)
    return _Block(arrive, ids, ids, 1), passes, updates, departures


def _merge_blocks(blocks: list[_Block]) -> EventTable:
    """The rows of _event_blocks' blocks in (t, kind code, entity) order.

    The blocks come in kind-code order, each a run sorted by (t, entity),
    so one stable sort on t merges them. blocks is emptied once its rows
    are copied, so that it holds none of their arrays while sorting.
    """
    ends = np.cumsum([len(b.order) * b.repeats for b in blocks])
    t = _concat_rows([(b.times, b.order, b.repeats) for b in blocks], ends[-1])
    entity = _concat_rows([(b.ids, b.order, b.repeats) for b in blocks], ends[-1])
    blocks.clear()
    order = np.argsort(t, kind="stable")
    kind = np.zeros(len(order), dtype=np.int8)
    for end in ends[:-1]:
        kind += order >= end
    # No new column: order becomes the sorted ids in place, a chunk at a
    # time, and t is sorted in place. Its values are t[order], as equal
    # times have equal bits: no time is -0.0 or nan.
    for lo in range(0, len(order), _GATHER_ROWS):
        rows = order[lo : lo + _GATHER_ROWS]
        rows[:] = entity[rows]
    del entity
    t.sort(kind="stable")
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
    passes = net.Q * (np.diff(arrived) + u_k)
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


class ComparisonTable(NamedTuple):
    """The compared slots by column; the field names are the comparison CSV header."""

    t_s: list[float]
    S_N_emp: list[float | None]
    S_N_model: list[float | None]
    S_N_rel_dev: list[float | None]
    P_emp: list[float]
    P_model: list[float]
    P_abs_dev: list[float]
    survivor_emp: list[float | None]
    survivor_model: list[float | None]
    survivor_abs_dev: list[float | None]


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
        write_csv(path, ComparisonTable._fields, self.table)


def _mean_abs(column: list[float | None]) -> float | None:
    """Mean of |v| over the defined cells, summed in slot order; None if none."""
    defined = [abs(v) for v in column if v is not None]
    return sum(defined) / len(defined) if defined else None


def compare_to_model(trace: SimTrace, scenario: Scenario) -> ComparisonReport:
    """Slot-by-slot empirical vs closed-form comparison.

    Model sustainability for a slot integrates the closed form over that
    slot's window (previous edge, edge], clipped at T; the first slot has no
    model value because its window starts at t = 0. A slot whose closed form
    leaves its domain or double range has no model value either; its
    message goes to s_n_model_errors. Survivor fractions
    compare the initial cohort against exponential decay. Both pass counts
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
    t_s, s_n_emp, p_emp, cohort = map(nan_to_none, (
        s.t_s, s.S_N_emp, s.P_empirical, s.cohort_fraction))
    s_n_model = [None] * len(t_s)
    model_errors = []
    if rates.alpha > 0.0 and rates.beta > rates.alpha:
        for k, (t1, edge) in enumerate(zip([0.0, *t_s], t_s)):
            t2 = min(edge, window.T)
            if 0.0 < t1 < t2:
                try:
                    s_n_model[k] = _window_form(rates, net, t1, t2, net.Q)
                except (DomainError, OverflowRangeError) as e:
                    model_errors.append(str(e))
    s_n_rel = [None if e is None or m is None or m == 0.0 else (e - m) / abs(m)
               for e, m in zip(s_n_emp, s_n_model)]
    survivor_model = [None if c is None else math.exp(-rates.gamma_prime * t)
                      for t, c in zip(t_s, cohort)]
    survivor_dev = [None if c is None else abs(c - m) for c, m in zip(cohort, survivor_model)]
    table = ComparisonTable(
        t_s, s_n_emp, s_n_model, s_n_rel, p_emp, [p_model] * len(t_s),
        [abs(p - p_model) for p in p_emp], cohort, survivor_model, survivor_dev,
    )
    return ComparisonReport(table, trace.passes_total, trace.passes_total, model_errors)
