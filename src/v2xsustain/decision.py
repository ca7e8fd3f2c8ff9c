"""Operational decision layer: constraint checks, fail-safe point and
per-slot fail-safe scoring.

The decision order is fixed: a scale parameter at or below the operability
floor forces reconfiguration no matter what else holds; otherwise threshold
breaches demand key updates; otherwise the network continues.
score_failsafe_slots applies the two column rules, _rule (whose one-row
case is decide()) and failsafe_point for F_S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .csvio import nan_to_none
from .errors import DomainError, OverflowRangeError
from .predict import SCALE_FLOOR, LikelihoodBounds, failsafe_tau
from .sustain import NetworkParams, TimeWindow
from .sustain import hop_loss_probability, message_overhead

CONTINUE = "continue"
UPDATE_KEYS = "update_keys"
RECONFIGURE = "reconfigure"
DECISIONS = frozenset({CONTINUE, UPDATE_KEYS, RECONFIGURE})


@dataclass(frozen=True)
class Thresholds:
    """Operating thresholds: sustainability floor, overhead ceiling,
    mandatory update quota, and initial-authentication overhead."""

    S_N_TH: float
    M_O_TH: float
    U_prime_N: int = 1
    O_b: float = 1.0

    def __post_init__(self):
        if not self.S_N_TH > 0.0:
            raise DomainError(f"S_N_TH must be positive, got {self.S_N_TH!r}")
        if not self.M_O_TH > 0.0:
            raise DomainError(f"M_O_TH must be positive, got {self.M_O_TH!r}")
        if not isinstance(self.U_prime_N, int) or self.U_prime_N < 1:
            raise DomainError(
                f"U_prime_N must be a positive integer, got {self.U_prime_N!r}"
            )
        if not self.O_b > 0.0:
            raise DomainError(f"O_b must be positive, got {self.O_b!r}")


class Violation(NamedTuple):
    constraint: str
    detail: str


def check_constraints(
    net: NetworkParams,
    window: TimeWindow,
    U_k: float,
    D: float,
    thresholds: Thresholds,
) -> list[Violation]:
    """Evaluate the optimization constraints; violations come back as data.

    Five named clauses: the update quota U_k >= U'_N, the in-range count
    0 < D <= N, the hop-pair bound 0 < n_inv(n_inv - 1)/2 <= E(E - 1)/2,
    the hop/capacity distinctness n_inv != E, and the key-use timing
    t_use < t_min_hold (reported with its slack). An empty list means the
    configuration is admissible.
    """
    violations = []
    if U_k < thresholds.U_prime_N:
        violations.append(
            Violation(
                "U_k >= U'_N",
                f"update count {U_k!r} is below the quota {thresholds.U_prime_N!r}",
            )
        )
    if not 0.0 < D <= net.N:
        violations.append(
            Violation("0 < D <= N", f"in-range count {D!r} outside (0, {net.N}]")
        )
    pairs = net.n_inv * (net.n_inv - 1) / 2
    cap_pairs = net.E * (net.E - 1) / 2
    if not 0.0 < pairs <= cap_pairs:
        violations.append(
            Violation(
                "0 < n_inv(n_inv-1)/2 <= E(E-1)/2",
                f"hop pairs {pairs!r} outside (0, {cap_pairs!r}]",
            )
        )
    if net.n_inv == net.E:
        violations.append(
            Violation("n_inv != E", f"hop count equals capacity ({net.E!r})")
        )
    slack = window.t_min_hold - window.t_use
    if not slack > 0.0:
        violations.append(
            Violation(
                "t_use < t_min_hold",
                f"key in use {window.t_use!r}s with hold floor "
                f"{window.t_min_hold!r}s (slack {slack!r}s)",
            )
        )
    return violations


@dataclass(frozen=True)
class FailSafeReport:
    """One decision with its rationale, at the scale parameter mu when known."""

    mu: float | None
    decision: str
    rationale: str

    def __post_init__(self):
        if self.decision not in DECISIONS:
            raise DomainError(f"unknown decision {self.decision!r}")
        if self.mu is not None and self.mu <= SCALE_FLOOR and self.decision != RECONFIGURE:
            raise DomainError(
                f"mu={self.mu!r} at or below {SCALE_FLOOR} requires reconfigure"
            )


def failsafe_point(
    t_s: Sequence[float], s_n: Sequence[float | None], thresholds: Thresholds
) -> float | None:
    """Fail-safe instant F_S from columns of sample times and S_N.

    F_S is the time of the last sample in the initial run with
    S_N >= S_N_TH (a duration, not just any qualifying instant). Equality
    with the threshold counts as safe; a None or NaN S_N breaks the run. A
    breach at the first sample, or no samples, gives None.
    """
    if len(t_s) != len(s_n):
        raise DomainError(f"{len(t_s)} sample times for {len(s_n)} S_N values")
    for t_prev, t in zip(t_s, t_s[1:]):
        if not t_prev < t:
            raise DomainError(f"trace times must be strictly increasing at t={t!r}")
    f_s = None
    for t, s in zip(t_s, s_n):
        if s is None or not s >= thresholds.S_N_TH:
            break
        f_s = t
    return f_s


def _rule(s_n: Sequence, m_o: Sequence, mu: Sequence,
          thresholds: Thresholds) -> tuple[list[str], list[str]]:
    """The decision and rationale columns for columns of S_N, M_O and mu
    (None where undefined); decide() is the one-row case. The kind code keeps
    the decision order: mu <= SCALE_FLOOR, then too few observations, then
    S_N/M_O breaches, then continue. Each rationale kind is formatted in one
    "%g" batch over its rows; '%g' % x is f"{x:g}" for a float."""
    s_th, m_th = thresholds.S_N_TH, thresholds.M_O_TH
    kinds = (  # (decision, rationale template, its columns), by kind code
        (UPDATE_KEYS, "insufficient observations in this slot", ()),
        (RECONFIGURE, f"scale parameter %g at or below {SCALE_FLOOR:g}: "
                      "network not operable without reconfiguration", (mu,)),
        (CONTINUE, "S_N and M_O within thresholds", ()),
        (UPDATE_KEYS, f"S_N %g < {s_th:g}", (s_n,)),
        (UPDATE_KEYS, f"M_O %g > {m_th:g}", (m_o,)),
        (UPDATE_KEYS, f"S_N %g < {s_th:g}; M_O %g > {m_th:g}", (s_n, m_o)),
    )
    code = [1 if u is not None and u <= SCALE_FLOOR else 0 if s is None or m is None or u is None
            else 2 + (s < s_th) + 2 * (m > m_th) for s, m, u in zip(s_n, m_o, mu)]
    rows = [[] for _ in kinds]
    for k, c in enumerate(code):
        rows[c].append(k)
    rationale = [""] * len(code)
    for (_, template, columns), at in zip(kinds, rows):
        text = "\n".join([template] * len(at)) % tuple([col[k] for k in at for col in columns])
        for k, line in zip(at, text.split("\n")):
            rationale[k] = line
    return [kinds[c][0] for c in code], rationale


def decide(s_n: float, m_o: float, mu: float, thresholds: Thresholds) -> FailSafeReport:
    """Operational decision from current metrics, the one-row case of _rule.

    Reconfiguration wins whenever mu is at or below the operability floor;
    then an undefined metric (None) or a threshold breach forces key
    updates; otherwise continue.
    """
    (decision,), (rationale,) = _rule([s_n], [m_o], [mu], thresholds)
    return FailSafeReport(mu=mu, decision=decision, rationale=rationale)


class FailsafeTable(NamedTuple):
    """The scored slots by column; the field names are the fail-safe table header."""

    t_s: list[float]
    S_N: list[float | None]
    M_O: list[float | None]
    mu: list[float | None]
    tau: list[float | None]
    F_S: list[float | None]
    decision: list[str]
    rationale: list[str]


def score_failsafe_slots(
    trace, compliance: Sequence[float], bounds: LikelihoodBounds
) -> FailsafeTable:
    """Score each slot of a simulated trace and decide, linear in the slots.

    S_N and M_O price the observed counts with the modeled per-delivery
    loss at the observed connected count E', as the closed forms do; the
    empirical loss share 1 - E'/E is 0 at full connectivity and would leave
    S_N undefined. compliance holds one probability 1 - omega_x per slot.
    Row k's mu is the batch estimator mean(S_N so far) / sum(ln(1/w)) over
    compliance[:k], kept as running sums that add in the batch order, so
    both agree bit for bit. F_S is failsafe_point on the t_s and S_N
    columns, clipped to each row's t_s. numpy does only + - * / on the slot
    columns, in the order of the scalar forms.
    """
    import numpy as np  # the slot columns are numpy arrays

    scn = trace.scenario
    net, thresholds, T = scn.net, scn.thresholds, scn.window.T
    slots = trace.slots
    n = len(slots)
    w = np.array(compliance, dtype=float)
    if len(w) != n:
        raise DomainError(f"{len(w)} compliance values for {n} slots")
    ok = (slots.E_prime > net.n_inv) & (slots.D > 0)
    levels, which = np.unique(slots.E_prime[ok], return_inverse=True)
    p = np.full(n, np.nan)
    p[ok] = np.array([hop_loss_probability(net.n_inv, e, net.N) for e in levels.tolist()])[which]
    compliant = np.logical_and.accumulate((w > 0.0) & (w < 1.0))
    log_sum = np.zeros(n)
    log_sum[compliant] = np.cumsum([math.log(1.0 / v) for v in w[compliant].tolist()])
    with np.errstate(all="ignore"):  # the first bad slot is found below
        # observed D may exceed the planning bound N, so it is not checked against N
        s_n = (slots.U_k / net.n_inv) / (slots.D * p * net.Q)
        m_o = slots.passes * (1.0 - p) / (net.E * p)
        s_n_sum = np.cumsum(np.where(ok, s_n, 0.0))
        mean = np.divide(s_n_sum, np.cumsum(ok), out=np.zeros(n), where=s_n_sum > 0.0)
        has_mu = compliant & (mean > 0.0)
        mu = np.divide(mean, log_sum, out=np.full(n, np.nan), where=has_mu)
    bad = ok & ~((p > 0.0) & np.isfinite(m_o) & np.isfinite(s_n_sum))
    bad |= has_mu & ~(np.isfinite(mu) & (mu > 0.0))
    if bad.any():  # raise what the first bad slot meets first
        k = int(np.argmax(bad))
        t = float(slots.t_s[k])
        if ok[k]:
            if p[k] == 0.0:
                raise DomainError(f"loss probability P underflows to 0 at t_s={t:g}: "
                                  f"N={net.N!r} E'={int(slots.E_prime[k])!r}")
            message_overhead(float(slots.passes[k]), float(p[k]), net.E)
            if not math.isfinite(s_n_sum[k]):
                raise OverflowRangeError(f"S_N is outside double range at t_s={t:g}")
        if not math.isfinite(mu[k]):
            raise OverflowRangeError(f"mu is outside double range at t_s={t:g}")
        failsafe_tau(float(mu[k]), bounds, T)
    t_s = slots.t_s.tolist()
    s_n, m_o, mu = map(nan_to_none, (s_n, m_o, mu))  # NaN where p or mu is
    tau = [None if u is None else failsafe_tau(u, bounds, T) for u in mu]
    end = failsafe_point(t_s, s_n, thresholds)
    f_s = [None] * n if end is None else np.minimum(slots.t_s, end).tolist()
    return FailsafeTable(t_s, s_n, m_o, mu, tau, f_s, *_rule(s_n, m_o, mu, thresholds))

