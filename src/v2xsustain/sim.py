"""Continuous-time Monte Carlo oracle for the analytical model.

Vehicles arrive as a Poisson stream (rate beta) on top of an initial
cohort, stay for exponential lifetimes (rate gamma'), refresh their key
pair as a per-vehicle Poisson process (rate alpha, one event refreshes
both keys of the pair), and spend Q authentication passes per session
establishment. Every random draw comes from one of four seed-split
streams (arrivals, lifetimes, updates, positions) so changing one rate
never perturbs another stream's draws. Each Poisson process is drawn as a
count, then as that many i.i.d. uniform times (Ross, Simulation, ch. 5):
arrivals on [0, T], a vehicle's updates on its stay clipped at T.

Slot metrics use the (previous boundary, boundary] convention; the
initial cohort's t = 0 passes therefore belong to the event totals but to
no slot. Empirical sustainability is computed directly from the defining
ratio, without the model-side admissibility guard D <= N, because the
observed in-range count is an output here, not a constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .config import Scenario
from .csvio import write_csv, write_event_columns
from .decision import check_constraints
from .errors import DomainError, SimulationTruncated
from .sustain import TimeWindow, loss_probability_model, sustainability_window

KIND_ARRIVAL = "arrival"
KIND_DEPARTURE = "departure"
KIND_KEY_UPDATE = "key_update"
KIND_AUTH_PASS = "auth_pass"
_KIND_ORDER = {KIND_ARRIVAL: 0, KIND_AUTH_PASS: 1, KIND_KEY_UPDATE: 2, KIND_DEPARTURE: 3}
_KIND_NAMES = tuple(_KIND_ORDER)  # indexed by kind code
_KIND_LABELS = np.asarray(_KIND_NAMES)  # the same, indexable by a code array


class Event(NamedTuple):
    t_s: float
    kind: str
    entity_id: int


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as numpy columns sorted by (t, kind code, entity), with no
    Python object per event; rows read as Event tuples."""

    t: np.ndarray
    kind: np.ndarray
    entity: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __iter__(self) -> Iterator[Event]:
        kinds = (_KIND_NAMES[k] for k in self.kind.tolist())
        return map(Event, self.t.tolist(), kinds, self.entity.tolist())

    def __eq__(self, other):
        if not isinstance(other, EventTable):
            return NotImplemented
        pairs = zip((self.t, self.kind, self.entity), (other.t, other.kind, other.entity))
        return all(np.array_equal(a, b) for a, b in pairs)


@dataclass(frozen=True)
class SlotMetrics:
    t_s: float
    active: int
    E_prime: int
    P_empirical: float
    U_k: int
    D: int
    passes: int
    S_N_emp: float | None
    M_O_emp: float | None
    cohort_fraction: float | None


@dataclass
class SimTrace:
    scenario: Scenario
    events: EventTable
    slots: list[SlotMetrics]
    arrivals_total: int = 0
    poisson_arrivals: int = 0
    cohort_size: int = 0
    departures_total: int = 0
    key_updates_total: int = 0
    passes_total: int = 0

    def export_events_csv(self, path: str | Path) -> None:
        ev = self.events
        write_event_columns(
            path, ("t_s", "kind", "entity_id"), ev.t, ev.kind, _KIND_LABELS, ev.entity
        )

    def export_metrics_csv(self, path: str | Path) -> None:
        write_csv(
            path,
            ("t_s", "E_active", "P_empirical", "U_k", "D", "passes",
             "S_N_emp", "M_O_emp"),
            [
                (s.t_s, s.E_prime, s.P_empirical, s.U_k, s.D, s.passes,
                 s.S_N_emp, s.M_O_emp)
                for s in self.slots
            ],
        )


def _event_table(arrive, depart, upd_t, upd_id, scenario: Scenario, limit=None) -> EventTable:
    """Sorted events of the vehicles in arrive, cut to the first limit rows."""
    Q = scenario.net.Q
    ids = np.arange(len(arrive))
    gone = depart <= scenario.window.T
    reauth = scenario.count_reauth_passes
    session_t = np.concatenate((arrive, upd_t)) if reauth else arrive
    session_id = np.concatenate((ids, upd_id)) if reauth else ids
    # one block per kind code: arrivals, passes, key updates, departures
    sizes = (len(ids), Q * len(session_t), len(upd_t), int(np.count_nonzero(gone)))
    t = np.concatenate((arrive, np.repeat(session_t, Q), upd_t, depart[gone]))
    entity = np.concatenate((ids, np.repeat(session_id, Q), upd_id, ids[gone]))
    kind = np.repeat(np.arange(4, dtype=np.int8), sizes)
    del session_t, session_id  # not held while sorting
    order = np.lexsort((entity, kind, t))[:limit]
    # gathered one column at a time, so each unsorted column is freed first
    t = t[order]
    kind = kind[order]
    return EventTable(t, kind, entity[order])


def run_simulation(
    scenario: Scenario,
    position_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
) -> SimTrace:
    """Simulate [0, T] and extract per-slot empirical metrics.

    position_sampler(rng, n) may replace the default uniform-in-range
    placement; positions falling outside [r1, r2] simply do not count
    toward the in-range total D.

    Raises SimulationTruncated if the event count exceeds the scenario's
    cap, checked from the draw counts before any event column is built.
    Its partial trace has no slots and the first cap + 1 sorted events of
    the fewest leading vehicles that exceed the cap.
    """
    net, rates, window = scenario.net, scenario.rates, scenario.window
    rp = scenario.range_params
    violations = check_constraints(
        net, rates, window,
        U_k=scenario.thresholds.U_prime_N, D=net.N, thresholds=scenario.thresholds,
    )
    if violations:
        names = ", ".join(v.constraint for v in violations)
        raise DomainError(f"scenario fails constraint check: {names}")

    # The streams are children 0-3 of the seed; spawn numbers children in
    # order, so a stream added later leaves their draws unchanged.
    streams = np.random.SeedSequence(scenario.seed).spawn(4)
    rng_arr, rng_life, rng_upd, rng_pos = map(np.random.default_rng, streams)

    T = window.T
    n_poisson = int(rng_arr.poisson(rates.beta * T))
    arrivals = np.sort(rng_arr.uniform(0.0, T, n_poisson))
    arrive = np.concatenate((np.zeros(net.E_zero), arrivals))
    n = len(arrive)
    if rates.gamma_prime > 0.0:
        depart = arrive + rng_life.exponential(1.0 / rates.gamma_prime, size=n)
    else:
        depart = np.full(n, np.inf)
    if position_sampler is None:
        positions = rng_pos.uniform(rp.r1, rp.r2, size=n)
    else:
        positions = np.asarray(position_sampler(rng_pos, n), dtype=float)
        if positions.shape != (n,):
            raise DomainError(
                f"position sampler must return {n} positions, got {positions.shape}"
            )

    stay = np.minimum(depart, T) - arrive
    n_upd = rng_upd.poisson(rates.alpha * stay)
    reauth = scenario.count_reauth_passes
    ends = np.cumsum((1 + net.Q) + (depart <= T) + (1 + net.Q * reauth) * n_upd)
    cap = scenario.event_cap
    truncated = n > 0 and int(ends[-1]) > cap
    k = int(np.searchsorted(ends, cap + 1)) + 1 if truncated else n
    upd_id = np.repeat(np.arange(k), n_upd[:k])
    upd_t = arrive[upd_id] + stay[upd_id] * rng_upd.random(len(upd_id))
    limit = cap + 1 if truncated else None
    events = _event_table(arrive[:k], depart[:k], upd_t, upd_id, scenario, limit)
    if truncated:
        partial = SimTrace(scenario=scenario, events=events, slots=[])
        raise SimulationTruncated(f"event cap {cap} exceeded", partial)

    # Slot counts are differences of cumulative counts at [0, b1, b2, ...].
    last = T * (1.0 + 1e-12)
    edges = np.arange(int(last // window.t_x_step) + 2) * window.t_x_step
    edges = edges[edges <= last]

    def upto(sorted_times: np.ndarray) -> np.ndarray:
        return np.searchsorted(sorted_times, edges, side="right")

    arrived = upto(arrive)
    active = arrived - upto(np.sort(depart))
    in_range = (positions >= rp.r1) & (positions <= rp.r2)
    d_count = upto(arrive[in_range]) - upto(np.sort(depart[in_range]))
    u_k = np.diff(upto(events.t[events.kind == _KIND_ORDER[KIND_KEY_UPDATE]]))
    passes = net.Q * (np.diff(arrived) + reauth * u_k)
    survivors = net.E_zero - upto(np.sort(depart[: net.E_zero]))

    slots: list[SlotMetrics] = []
    for b, act, u, d, p, still in zip(
        edges[1:].tolist(), active[1:].tolist(), u_k.tolist(), d_count[1:].tolist(),
        passes.tolist(), survivors[1:].tolist(),
    ):
        e_prime = min(act, net.E)
        p_emp = 1.0 - e_prime / net.E
        s_n = (u / net.n_inv) / (d * p_emp * net.Q) if d > 0 and p_emp > 0.0 else None
        m_o = p * (1.0 - p_emp) / (net.E * p_emp) if p_emp > 0.0 else None
        slots.append(
            SlotMetrics(
                t_s=b, active=act, E_prime=e_prime, P_empirical=p_emp,
                U_k=u, D=d, passes=p, S_N_emp=s_n, M_O_emp=m_o,
                cohort_fraction=still / net.E_zero if net.E_zero else None,
            )
        )

    return SimTrace(
        scenario=scenario, events=events, slots=slots,
        arrivals_total=n, poisson_arrivals=n_poisson, cohort_size=net.E_zero,
        departures_total=int(np.count_nonzero(depart <= T)),
        key_updates_total=len(upd_t), passes_total=net.Q * (n + reauth * len(upd_t)),
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
        write_csv(
            path,
            ("t_s", "S_N_emp", "S_N_model", "S_N_rel_dev", "P_emp", "P_model",
             "P_abs_dev", "survivor_emp", "survivor_model", "survivor_abs_dev"),
            [
                (r.t_s, r.S_N_emp, r.S_N_model, r.S_N_rel_dev, r.P_emp,
                 r.P_model, r.P_abs_dev, r.survivor_emp, r.survivor_model,
                 r.survivor_abs_dev)
                for r in self.rows
            ],
        )


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
    for slot in trace.slots:
        s_n_model = None
        s_n_rel = None
        slot_t2 = min(slot.t_s, window.T)
        if model_ok and 0.0 < prev < slot_t2:
            slot_window = TimeWindow(
                t1=prev, t2=slot_t2, T=window.T, t_x_step=window.t_x_step
            )
            s_n_model = sustainability_window(rates, net, slot_window)
            if slot.S_N_emp is not None and s_n_model != 0.0:
                s_n_rel = (slot.S_N_emp - s_n_model) / abs(s_n_model)
                s_n_devs.append(abs(s_n_rel))
        survivor_model = None
        survivor_dev = None
        if slot.cohort_fraction is not None:
            survivor_model = math.exp(-rates.gamma_prime * slot.t_s)
            survivor_dev = abs(slot.cohort_fraction - survivor_model)
            survivor_devs.append(survivor_dev)
        rows.append(
            SlotComparison(
                t_s=slot.t_s,
                S_N_emp=slot.S_N_emp,
                S_N_model=s_n_model,
                S_N_rel_dev=s_n_rel,
                P_emp=slot.P_empirical,
                P_model=p_model,
                P_abs_dev=abs(slot.P_empirical - p_model),
                survivor_emp=slot.cohort_fraction,
                survivor_model=survivor_model,
                survivor_abs_dev=survivor_dev,
            )
        )
        prev = slot.t_s

    expected = net.Q * trace.arrivals_total
    if scenario.count_reauth_passes:
        expected += net.Q * trace.key_updates_total
    observed = int(np.count_nonzero(trace.events.kind == _KIND_ORDER[KIND_AUTH_PASS]))
    return ComparisonReport(
        rows=rows,
        p_model=p_model,
        survivor_mad=(sum(survivor_devs) / len(survivor_devs)) if survivor_devs else None,
        passes_observed=observed,
        passes_expected=expected,
        pass_identity_ok=observed == expected,
        s_n_mean_rel_dev=(sum(s_n_devs) / len(s_n_devs)) if s_n_devs else None,
    )
