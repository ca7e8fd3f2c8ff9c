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
observed count is an output here, not a constraint. Every vehicle is
placed inside [r1, r2], so D counts the vehicles present in the slot.
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
_AUTH_PASS, _KEY_UPDATE, _DEPARTURE = 1, 2, 3  # kind codes
_GATHER_ROWS = 1 << 16  # rows per in-place gather step in _event_table
# The largest mean Generator.poisson accepts; above it, it raises ValueError.
_POISSON_LAM_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


class _Columns:
    """Dataclass fields of equal-length numpy columns; == matches NaN to NaN."""

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
    Python object per event."""

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


@dataclass
class SimTrace:
    scenario: Scenario
    events: EventTable
    slots: SlotTable
    arrivals_total: int = 0
    departures_total: int = 0
    key_updates_total: int = 0
    passes_total: int = 0

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
    """Stable sort order of float64 t: ties keep their row order.

    numpy's default quicksort is vectorised and several times faster than
    its stable sort, but leaves the rows of a tie in any order. The key
    (rank << b) | row, where rank numbers the distinct times in order and
    both fit in b bits (2b < 63 while n < 2**31), sorts by time and then by
    row, so one integer sort of the keys puts every tie back in row order,
    exactly.
    """
    n = len(t)
    b = n.bit_length()
    order = np.argsort(t)
    key = np.empty(n, dtype=np.int64)
    # the sorted times borrow key's buffer until their ranks replace them
    ts = np.take(t, order, out=key.view(t.dtype), mode="clip")
    new = ts[1:] != ts[:-1]
    key[:1] = 0
    np.cumsum(new, out=key[1:])
    del ts, new
    key <<= b
    key |= order
    del order
    key.sort()
    key &= (1 << b) - 1
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


def _event_table(arrive, depart, upd_t, upd_id, scenario: Scenario) -> EventTable:
    """Sorted events of the vehicles in arrive.

    arrive must be sorted and upd_id nondecreasing, as run_simulation draws
    them. Each kind's block is put in (t, entity) order and the blocks are
    laid out in kind-code order, so one stable sort on t merges the four
    sorted runs into (t, kind code, entity) order.
    """
    Q = scenario.net.Q
    n = len(arrive)
    ids = np.arange(n)
    gone = np.flatnonzero(depart <= scenario.window.T)
    if len(upd_t):
        # Sessions in entity order, each vehicle's arrival before its
        # updates, so their tie-stable time order is (t, entity) order.
        first = ids + np.searchsorted(upd_id, ids)
        is_upd = np.ones(n + len(upd_t), dtype=bool)
        is_upd[first] = False
        session_t = np.empty(len(is_upd))
        session_id = np.empty(len(is_upd), dtype=ids.dtype)
        session_t[first], session_id[first] = arrive, ids
        session_t[is_upd], session_id[is_upd] = upd_t, upd_id
        order = _time_order(session_t)
        passes = (session_t, session_id, order, Q)
        updates = (session_t, session_id, order[is_upd[order]], 1)
        del first, is_upd, order, session_t, session_id
    else:  # the sessions are the arrivals, already in order; no update rows
        passes = (arrive, ids, ids, Q)
        updates = (upd_t, upd_id, ids[:0], 1)
    departures = (depart, ids, gone[_time_order(depart[gone])], 1)
    # (times, ids, order, repeats) per kind code: rows times[order], ids[order]
    blocks = [(arrive, ids, ids, 1), passes, updates, departures]
    del passes, updates, departures
    ends = np.cumsum([len(order) * r for _, _, order, r in blocks])
    t = _concat_rows([(times, order, r) for times, _, order, r in blocks], ends[-1])
    entity = _concat_rows([(i, order, r) for _, i, order, r in blocks], ends[-1])
    del blocks, ids, gone  # not held while sorting
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
    arrivals = np.sort(rng_arr.uniform(0.0, T, n_poisson))
    arrive = np.concatenate((np.zeros(net.E_zero), arrivals))
    if rates.gamma_prime > 0.0:
        depart = arrive + rng_life.exponential(1.0 / rates.gamma_prime, size=n)
    else:
        depart = np.full(n, np.inf)

    stay = np.minimum(depart, T) - arrive
    n_upd = rng_upd.poisson(rates.alpha * stay)
    departures = int(np.count_nonzero(depart <= T))
    updates = _exact_sum(n_upd)  # one vehicle's count can reach 9.2e18
    needed = (1 + net.Q) * (n + updates) + departures
    if needed > cap:
        raise SimulationTruncated(cap, needed)
    upd_id = np.repeat(np.arange(n), n_upd)
    upd_t = arrive[upd_id] + stay[upd_id] * rng_upd.random(len(upd_id))
    events = _event_table(arrive, depart, upd_t, upd_id, scenario)

    # Slot counts are differences of cumulative counts at [0, b1, b2, ...].
    edges = np.arange(n_slots + 1) * window.t_x_step

    def upto(sorted_times: np.ndarray) -> np.ndarray:
        return np.searchsorted(sorted_times, edges, side="right")

    # the event table holds each kind's rows in time order
    gone = events.kind == _DEPARTURE
    gone_t = events.t[gone]
    arrived = upto(arrive)
    active = arrived - upto(gone_t)
    u_k = np.diff(upto(events.t[events.kind == _KEY_UPDATE]))
    passes = net.Q * (np.diff(arrived) + u_k)
    survivors = net.E_zero - upto(gone_t[events.entity[gone] < net.E_zero])

    d = active[1:]
    e_prime = np.minimum(d, net.E)
    p_emp = 1.0 - e_prime / net.E
    nan = np.full(len(d), np.nan)
    slots = SlotTable(
        t_s=edges[1:], E_prime=e_prime, P_empirical=p_emp, U_k=u_k, D=d, passes=passes,
        S_N_emp=np.divide(u_k / net.n_inv, d * p_emp * net.Q, out=nan.copy(),
                          where=(p_emp > 0.0) & (d > 0)),
        M_O_emp=np.divide(passes * (1.0 - p_emp), net.E * p_emp, out=nan.copy(), where=p_emp > 0),
        cohort_fraction=survivors[1:] / net.E_zero if net.E_zero else nan,
    )

    return SimTrace(
        scenario=scenario, events=events, slots=slots,
        arrivals_total=n, departures_total=departures,
        key_updates_total=updates, passes_total=net.Q * (n + updates),
    )


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
    table: ComparisonTable
    survivor_mad: float | None
    passes_observed: int
    passes_expected: int
    pass_identity_ok: bool
    s_n_mean_rel_dev: float | None = None
    # one message per slot whose model value left the closed form's range
    s_n_model_errors: list[str] = field(default_factory=list)

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
    compare the initial cohort against exponential decay. The pass identity
    checks the trace's auth_pass rows against its passes_total: Q per
    arrival and per key update.
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
    observed = int(np.count_nonzero(trace.events.kind == _AUTH_PASS))
    return ComparisonReport(
        table=table,
        survivor_mad=_mean_abs(survivor_dev),
        passes_observed=observed,
        passes_expected=trace.passes_total,
        pass_identity_ok=observed == trace.passes_total,
        s_n_mean_rel_dev=_mean_abs(s_n_rel),
        s_n_model_errors=model_errors,
    )
