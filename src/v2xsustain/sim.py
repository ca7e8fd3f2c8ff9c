"""Continuous-time Monte Carlo oracle for the analytical model.

Vehicles arrive as a Poisson stream (rate beta) on top of an initial
cohort, stay for exponential lifetimes (rate gamma'), refresh their key
pair as a per-vehicle Poisson process (rate alpha, one event refreshes
both keys of the pair), and spend Q authentication passes per session
establishment. Every random draw comes from one of three seed-split
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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import Scenario
from .csvio import nan_to_none, write_csv, write_event_columns
from .decision import check_constraints
from .errors import DomainError, SimulationTruncated
from .sustain import TimeWindow, loss_probability_model, sustainability_window

# The events CSV labels, indexed by EventTable.kind code in tie-break order.
_KIND_NAMES = ("arrival", "auth_pass", "key_update", "departure")
_AUTH_PASS, _KEY_UPDATE = 1, 2  # kind codes
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
    poisson_arrivals: int = 0
    cohort_size: int = 0
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
    if scenario.count_reauth_passes and len(upd_t):
        # Sessions in entity order, each vehicle's arrival before its
        # updates, so their tie-stable time order is (t, entity) order.
        # Without updates the sessions are the arrivals, already in order.
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
    else:
        passes = (arrive, ids, ids, Q)
        updates = (upd_t, upd_id, _time_order(upd_t), 1)
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
        net, rates, window,
        U_k=scenario.thresholds.U_prime_N, D=net.N, thresholds=scenario.thresholds,
    )
    if violations:
        names = ", ".join(v.constraint for v in violations)
        raise DomainError(f"scenario fails constraint check: {names}")
    slots = window.T / window.t_x_step
    if slots > scenario.event_cap:
        raise DomainError(
            f"{slots:.6g} slots of {window.t_x_step:g} s exceed the event cap "
            f"{scenario.event_cap}"
        )
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
    reauth = scenario.count_reauth_passes
    departures = int(np.count_nonzero(depart <= T))
    updates = _exact_sum(n_upd)  # one vehicle's count can reach 9.2e18
    needed = (1 + net.Q) * n + departures + (1 + net.Q * reauth) * updates
    if needed > cap:
        raise SimulationTruncated(cap, needed)
    upd_id = np.repeat(np.arange(n), n_upd)
    upd_t = arrive[upd_id] + stay[upd_id] * rng_upd.random(len(upd_id))
    events = _event_table(arrive, depart, upd_t, upd_id, scenario)

    # Slot counts are differences of cumulative counts at [0, b1, b2, ...].
    last = T * (1.0 + 1e-12)
    edges = np.arange(int(last // window.t_x_step) + 2) * window.t_x_step
    edges = edges[edges <= last]

    def upto(sorted_times: np.ndarray) -> np.ndarray:
        return np.searchsorted(sorted_times, edges, side="right")

    arrived = upto(arrive)
    active = arrived - upto(np.sort(depart))
    u_k = np.diff(upto(events.t[events.kind == _KEY_UPDATE]))
    passes = net.Q * (np.diff(arrived) + reauth * u_k)
    survivors = net.E_zero - upto(np.sort(depart[: net.E_zero]))

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
        arrivals_total=n, poisson_arrivals=n_poisson, cohort_size=net.E_zero,
        departures_total=departures,
        key_updates_total=updates, passes_total=net.Q * (n + reauth * updates),
    )


@dataclass(frozen=True)
class SlotComparison:
    t_s: float
    S_N_emp: float | None
    S_N_model: float | None
    S_N_rel_dev: float | None
    P_emp: float
    P_model: float
    P_abs_dev: float
    survivor_emp: float | None
    survivor_model: float | None
    survivor_abs_dev: float | None


@dataclass
class ComparisonReport:
    rows: list[SlotComparison]
    p_model: float
    survivor_mad: float | None
    passes_observed: int
    passes_expected: int
    pass_identity_ok: bool
    s_n_mean_rel_dev: float | None = None

    def export_csv(self, path: str | Path) -> None:
        header = [f.name for f in fields(SlotComparison)]  # the CSV columns, in order
        write_csv(path, header, [[getattr(r, name) for r in self.rows] for name in header])


def compare_to_model(trace: SimTrace, scenario: Scenario) -> ComparisonReport:
    """Slot-by-slot empirical vs closed-form comparison.

    Model sustainability for a slot integrates the closed form over that
    slot's window; the first slot has no model value because its window
    starts at t = 0. Survivor fractions compare the initial cohort against
    exponential decay. The pass identity checks the trace's auth_pass rows
    against Q per arrival plus, if the scenario counts them, Q per update.
    """
    if trace.scenario != scenario:
        raise DomainError("trace was not produced from this scenario")
    net, rates, window = scenario.net, scenario.rates, scenario.window
    p_model = loss_probability_model(net)
    model_ok = rates.alpha > 0.0 and rates.beta > rates.alpha

    rows = []
    survivor_devs = []
    s_n_devs = []
    prev = 0.0
    s = trace.slots
    for t_s, s_n_emp, p_emp, cohort in zip(*map(nan_to_none, (
            s.t_s, s.S_N_emp, s.P_empirical, s.cohort_fraction))):
        s_n_model = None
        s_n_rel = None
        slot_t2 = min(t_s, window.T)
        if model_ok and 0.0 < prev < slot_t2:
            slot_window = TimeWindow(
                t1=prev, t2=slot_t2, T=window.T, t_x_step=window.t_x_step
            )
            s_n_model = sustainability_window(rates, net, slot_window)
            if s_n_emp is not None and s_n_model != 0.0:
                s_n_rel = (s_n_emp - s_n_model) / abs(s_n_model)
                s_n_devs.append(abs(s_n_rel))
        survivor_model = None
        survivor_dev = None
        if cohort is not None:
            survivor_model = math.exp(-rates.gamma_prime * t_s)
            survivor_dev = abs(cohort - survivor_model)
            survivor_devs.append(survivor_dev)
        rows.append(
            SlotComparison(
                t_s=t_s,
                S_N_emp=s_n_emp,
                S_N_model=s_n_model,
                S_N_rel_dev=s_n_rel,
                P_emp=p_emp,
                P_model=p_model,
                P_abs_dev=abs(p_emp - p_model),
                survivor_emp=cohort,
                survivor_model=survivor_model,
                survivor_abs_dev=survivor_dev,
            )
        )
        prev = t_s

    expected = net.Q * trace.arrivals_total
    if scenario.count_reauth_passes:
        expected += net.Q * trace.key_updates_total
    observed = int(np.count_nonzero(trace.events.kind == _AUTH_PASS))
    return ComparisonReport(
        rows=rows,
        p_model=p_model,
        survivor_mad=(sum(survivor_devs) / len(survivor_devs)) if survivor_devs else None,
        passes_observed=observed,
        passes_expected=expected,
        pass_identity_ok=observed == expected,
        s_n_mean_rel_dev=(sum(s_n_devs) / len(s_n_devs)) if s_n_devs else None,
    )
