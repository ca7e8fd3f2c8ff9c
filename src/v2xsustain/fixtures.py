"""Reference fail-safe duration table used by the structural checks.

Published reference values for the scale parameter mu and the fail-safe
likelihood tau across pass counts Q = 1..5. The generating expression for
the tau magnitudes is not reconstructible from the printed model, so these
rows serve structural verification only: mu scales as 1/Q within each row,
tau decreases strictly in Q where defined, and the mu <= 2 rows pin tau to
zero. A None tau in the optimistic rows marks an out-of-range entry (the
source flags these as needing adjusted bounds); None mu marks an undefined
cell in the degenerate rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .predict import SCALE_FLOOR

MU_RATIO_TOL = 1e-3  # mu(Q) * Q must match mu(Q=1) within 0.1%

Q_VALUES = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class FailsafeCase:
    group: str
    mu: tuple[float | None, ...]
    tau: tuple[float | None, ...]


CASES: tuple[FailsafeCase, ...] = (
    FailsafeCase(
        "optimistic",
        (659.08, 329.54, 219.68, 164.76, 131.80),
        (None, None, 4.39e215, 5.3e160, 5.9e127),
    ),
    FailsafeCase(
        "optimistic",
        (311.20, 155.60, 103.73, 77.79, 62.23),
        (None, 3.65e151, 4.92e99, 5.8e73, 1.61e58),
    ),
    FailsafeCase(
        "optimistic",
        (194.69, 97.35, 64.89, 48.67, 38.93),
        (4.51e190, 2.056e93, 7.326e60, 4.43e44, 8.24e34),
    ),
    FailsafeCase(
        "optimistic",
        (135.94, 67.97, 45.31, 33.98, 27.19),
        (8.03e131, 8.736e63, 1.943e41, 9.28e29, 1.5e23),
    ),
    FailsafeCase(
        "feasible",
        (100.18, 50.09, 33.39, 25.04, 20.03),
        (1.41e96, 1.169e46, 2.385e29, 1.09e21, 1.09e16),
    ),
    FailsafeCase(
        "feasible",
        (75.79, 37.89, 25.26, 18.95, 15.16),
        (5.70e71, 7.496e33, 1.797e21, 8.96e14, 1.5e11),
    ),
    FailsafeCase(
        "feasible",
        (57.68, 28.84, 19.22, 14.42, 11.53),
        (4.47e53, 6.734e24, 1.701e15, 2.77e10, 37629917.0),
    ),
    FailsafeCase(
        "feasible",
        (43.15, 21.57, 14.38, 10.79, 8.63),
        (1.34e39, 3.75e17, 2.54e10, 6816294.0, 50296.62),
    ),
    FailsafeCase(
        "feasible",
        (30.16, 15.08, 10.05, 7.54, 6.03),
        (1.40e26, 1.257e11, 1279251.7, 4280.43, 146.0569),
    ),
    FailsafeCase("floor", (None, None, None, None, 2.0), (None, None, None, None, 0.0)),
    FailsafeCase("floor", (None, None, None, None, 1.0), (None, None, None, None, 0.0)),
)


class CheckRow(NamedTuple):
    case_index: int
    group: str
    check: str
    detail: str
    passed: bool


def run_structural_checks() -> list[CheckRow]:
    """Evaluate every structural property of the reference table.

    Three families of checks: mu(Q)*Q constancy against the Q=1 column,
    strict decrease of tau across defined cells of each non-degenerate
    row, and tau = 0 wherever mu is at or below the operability floor.
    """
    rows: list[CheckRow] = []
    for idx, case in enumerate(CASES):
        mu_q1 = case.mu[0]
        if mu_q1 is not None:
            for q, mu_q in zip(Q_VALUES, case.mu):
                rel = abs(mu_q * q - mu_q1) / mu_q1
                rows.append(
                    CheckRow(
                        idx, case.group, f"mu(Q={q})*Q vs mu(Q=1)",
                        f"{mu_q!r}*{q} = {mu_q * q:.9g} vs {mu_q1!r} (rel {rel:.3g})",
                        rel <= MU_RATIO_TOL,
                    )
                )
        else:
            rows.append(
                CheckRow(idx, case.group, "mu ratio", "degenerate row, skipped", True)
            )
        defined_tau = [t for t in case.tau if t is not None]
        if len(defined_tau) >= 2:
            decreasing = all(a > b for a, b in zip(defined_tau, defined_tau[1:]))
            rows.append(
                CheckRow(
                    idx, case.group, "tau strictly decreasing in Q",
                    f"{len(defined_tau)} defined cells", decreasing,
                )
            )
        for q, (mu_q, tau_q) in enumerate(zip(case.mu, case.tau), start=1):
            if mu_q is not None and mu_q <= SCALE_FLOOR:
                rows.append(
                    CheckRow(
                        idx, case.group, f"tau(Q={q}) zero at mu <= {SCALE_FLOOR:g}",
                        f"mu={mu_q!r} tau={tau_q!r}", tau_q == 0.0,
                    )
                )
    return rows
