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

from .csvio import Codes, _Columns
from .errors import DomainError, OverflowRangeError
from .predict import SCALE_FLOOR, LikelihoodBounds, failsafe_tau
from .sustain import NetworkParams, TimeWindow
from .sustain import hop_loss_probability, message_overhead

CONTINUE = "continue"
UPDATE_KEYS = "update_keys"
RECONFIGURE = "reconfigure"
DECISION_LABELS = (CONTINUE, UPDATE_KEYS, RECONFIGURE)  # a decision column's Codes labels
DECISIONS = frozenset(DECISION_LABELS)


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
    import numpy as np  # the columns are scanned whole

    if len(t_s) != len(s_n):
        raise DomainError(f"{len(t_s)} sample times for {len(s_n)} S_N values")
    t, safe = np.asarray(t_s, dtype=float), np.array(s_n, dtype=float) >= thresholds.S_N_TH
    bad = np.flatnonzero(~(t[:-1] < t[1:]))
    if len(bad):
        raise DomainError(f"trace times must be strictly increasing at t={t.item(bad[0] + 1)!r}")
    end = int(np.argmin(np.append(safe, False)))  # the first breach; NaN (None) is never safe
    return t.item(end - 1) if end else None


def _rule(s_n: Sequence, m_o: Sequence, mu: Sequence,
          thresholds: Thresholds) -> tuple[Codes, list[str]]:
    """The decision column, as Codes over DECISION_LABELS, and the rationale
    column for columns of S_N, M_O and mu (None or NaN where undefined);
    decide() is the one-row case. The kind code keeps the decision order:
    mu <= SCALE_FLOOR, then too few observations, then S_N/M_O breaches,
    then continue. Each rationale kind is formatted in one "%g" batch;
    '%g' % x is f"{x:g}" for a float."""
    import numpy as np  # the codes are worked out column by column

    s_n, m_o, mu = (np.array(c, dtype=float) for c in (s_n, m_o, mu))  # None: NaN
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
    code = 2 + (s_n < s_th) + 2 * (m_o > m_th)
    code[np.isnan(s_n) | np.isnan(m_o) | np.isnan(mu)] = 0
    code[mu <= SCALE_FLOOR] = 1
    decision = np.array([DECISION_LABELS.index(kind[0]) for kind in kinds], dtype=np.int8)
    rationale = np.array([kind[1] for kind in kinds], dtype=object)[code]
    for c, (_, template, columns) in enumerate(kinds):
        if columns:  # a kind without values keeps its one template object
            at = np.flatnonzero(code == c)
            values = np.transpose([col[at] for col in columns]).ravel().tolist()  # row by row
            rationale[at] = ("\n".join([template] * len(at)) % tuple(values)).split("\n")
    return Codes(decision[code], DECISION_LABELS), rationale.tolist()


def decide(s_n: float, m_o: float, mu: float, thresholds: Thresholds) -> FailSafeReport:
    """Operational decision from current metrics, the one-row case of _rule.

    Reconfiguration wins whenever mu is at or below the operability floor;
    then an undefined metric (None or NaN) or a threshold breach forces key
    updates; otherwise continue.
    """
    decision, (rationale,) = _rule([s_n], [m_o], [mu], thresholds)
    return FailSafeReport(mu=mu, decision=decision.tolist()[0], rationale=rationale)


@dataclass(frozen=True, eq=False)
class FailsafeTable(_Columns):
    """The scored slots: float64 numpy columns, NaN where a cell is undefined,
    the decision labels as Codes and the rationale text; the field names are
    the CSV header."""

    t_s: Sequence[float]
    S_N: Sequence[float]
    M_O: Sequence[float]
    mu: Sequence[float]
    tau: Sequence[float]
    F_S: Sequence[float]
    decision: Codes
    rationale: list[str]


def score_failsafe_slots(
    trace, compliance: Sequence[float], bounds: LikelihoodBounds
) -> FailsafeTable:
    """Score each slot of a simulated trace and decide, linear in the slots.

    S_N and M_O price the observed counts with the modeled per-delivery
    loss at the observed connected count E', as the closed forms do; the
    empirical loss share 1 - E'/E is 0 at full connectivity and would leave
    S_N undefined. compliance holds one probability 1 - omega_x per slot.
    Row k's mu is the batch estimator mean(S_N so far) / sum(-ln w) over
    compliance[:k], kept as running sums that add in the batch order, so
    both agree bit for bit. F_S is failsafe_point on the t_s and S_N
    columns, clipped to each row's t_s. numpy does only + - * / on the slot
    columns, in the order of the scalar forms. The scalar forms run once per
    distinct value, not per slot: hop_loss_probability per distinct E',
    -math.log per distinct compliance value (spread back, then summed in
    slot order), and failsafe_tau only where mu > SCALE_FLOOR; tau is 0.0
    at or below the floor, as failsafe_tau gives it, and NaN where mu is.
    The decision column is Codes over DECISION_LABELS.
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
    distinct, spread = np.unique(w[compliant], return_inverse=True)
    log_sum = np.zeros(n)
    log_sum[compliant] = np.cumsum(np.array([-math.log(v) for v in distinct.tolist()])[spread])
    with np.errstate(all="ignore"):  # the first bad slot is found below
        # observed D may exceed the planning bound N, so it is not checked against N
        s_n = (slots.U_k / net.n_inv) / (slots.D * p * net.Q)
        m_o = slots.passes * (1.0 - p) / (net.E * p)
        s_n_sum = np.cumsum(np.where(ok, s_n, 0.0))
        mean = np.divide(s_n_sum, np.cumsum(ok), out=np.zeros(n), where=s_n_sum > 0.0)
        has_mu = compliant & (mean > 0.0)
        mu = np.divide(mean, log_sum, out=np.full(n, np.nan), where=has_mu)
    bad = ok & ~((p > 0.0) & np.isfinite(m_o) & np.isfinite(s_n_sum))
    # where has_mu, mean >= cap**-4 and log_sum <= 745 * cap with the event
    # cap below 2**63, so mu >= 2**-325: it can only overflow
    bad |= has_mu & ~np.isfinite(mu)
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
        raise OverflowRangeError(f"mu is outside double range at t_s={t:g}")
    tau = np.where(np.isnan(mu), np.nan, 0.0)  # failsafe_tau is 0 at mu <= SCALE_FLOOR
    up = np.flatnonzero(mu > SCALE_FLOOR)
    tau[up] = [failsafe_tau(u, bounds, T) for u in mu[up].tolist()]
    end = failsafe_point(slots.t_s, s_n, thresholds)
    f_s = np.full(n, np.nan) if end is None else np.minimum(slots.t_s, end)
    return FailsafeTable(slots.t_s, s_n, m_o, mu, tau, f_s, *_rule(s_n, m_o, mu, thresholds))

