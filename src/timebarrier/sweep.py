"""Batch experiments over parameter grids and initial conditions.

A sweep is the finite surrogate for "every initial condition": each
(params, x0) cell simulates the scalar law, then checks the deadline, the
dissipation certificate, the settling-bound gap and the closed-form oracle.
Failures are data, not exceptions -- the point of a sweep is to map the
failure boundary (for example the non-reaching regime below exponent 1).

Each cell's row comes from a plain ``simulate`` of its cell, in grid order,
so a row is the run a user gets from the same (params, x0) and a cell that
raises carries the error text of that run. A sweep with a fixed config is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .analytic import exact_solution_scalar_array
from .certify import check_dissipation
from .core import BarrierParams, NumericPolicy, TimeBarrierError, _check_law, validate_params
from .integrate import settling_report, simulate
from .systems import make_autonomous_power_law, make_time_barrier_scalar

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "SeparationRow",
    "DEFAULT_GRID",
    "run_sweep",
    "separation_table",
]

# 10.0**309 overflows a double and 10.0**-324 underflows to 0.0
_MAX_X0_DECADE = 308
_MIN_X0_DECADE = -323


def _check_x0_decades(lo: int, hi: int) -> None:
    """The decade range rule, also checked by the CLI on ``sweep.x0_decades``."""
    if lo > hi:
        raise ValueError(f"x0_decades lower {lo} exceeds upper {hi}")
    if hi > _MAX_X0_DECADE:
        raise ValueError(f"x0_decades upper {hi} exceeds {_MAX_X0_DECADE}")
    if lo < _MIN_X0_DECADE:
        raise ValueError(f"x0_decades lower {lo} is below {_MIN_X0_DECADE}")


@dataclass(frozen=True)
class SweepConfig:
    """Grid of parameter values and initial-condition decades.

    The grid is fixed, so a sweep draws nothing at random and takes no seed.
    """

    tc_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    beta_values: tuple[float, ...] = (2.0, 3.0, 4.0)
    q_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    alpha_values: tuple[float, ...] = (0.2, 0.4, 0.5)
    x0_decades: tuple[int, int] = (-6, 6)

    def __post_init__(self):
        # stored as tuples, so a config built from lists stays hashable
        for name in ("tc_values", "beta_values", "q_values", "alpha_values"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        decades = self.x0_decades
        if not isinstance(decades, (tuple, list)) or list(map(type, decades)) != [int, int]:
            raise ValueError(f"x0_decades must be two integers, got {decades!r}")
        object.__setattr__(self, "x0_decades", tuple(decades))
        _check_x0_decades(*self.x0_decades)
        for p in self.grid():
            _check_law(p)

    def grid(self) -> list[BarrierParams]:
        """Every (tc, beta, q, alpha) tuple, the last value varying fastest."""
        axes = (self.tc_values, self.beta_values, self.q_values, self.alpha_values)
        return [BarrierParams(*values) for values in product(*axes)]

    def x0_values(self) -> list[float]:
        lo, hi = self.x0_decades
        return [10.0**k for k in range(lo, hi + 1)]


DEFAULT_GRID = SweepConfig()


@dataclass(frozen=True)
class SweepRow:
    """Results for one (params, x0) cell.

    Rows whose simulation raised carry the exception in ``error`` and the
    defaults: ``False`` in the three pass flags, ``None`` in every other field.
    Otherwise ``converged_at`` and ``bound_gap`` are ``None`` only when the
    run did not converge (no crossing, or one whose closed form never
    reaches zero), and every other field holds a value.
    """

    index: int
    tc: float
    beta: float
    q: float
    alpha: float
    m: float
    admissible: bool
    x0: float
    converged_at: Optional[float] = None
    tau_bound: Optional[float] = None
    reaches_zero: Optional[bool] = None
    deadline_pass: bool = False
    certificate_pass: bool = False
    bound_gap: Optional[float] = None
    oracle_error: Optional[float] = None
    oracle_pass: bool = False
    terminal_norm: Optional[float] = None
    step_count: Optional[int] = None
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Ordered rows plus failure counts and worst-case row identifiers."""

    rows: list[SweepRow]
    summary: dict


def _oracle_tolerance(x0: float, policy: NumericPolicy) -> float:
    return max(1e-6 * abs(x0), 10.0 * policy.eps_conv)


def _compute_row(index, p, x0, policy, spec) -> tuple[SweepRow, int]:
    """The row of one cell and its rejected-step count."""
    verdict = validate_params(p)
    base = dict(
        index=index, tc=p.tc, beta=p.beta, q=p.q, alpha=p.alpha, m=p.m,
        admissible=verdict.admissible, x0=x0,
    )
    try:
        traj = simulate(spec, x0, p, policy)
    except TimeBarrierError as exc:
        return SweepRow(**base, error=f"{type(exc).__name__}: {exc}"), 0

    report = settling_report(traj, p)
    converged_at = report.converged_at
    exact = exact_solution_scalar_array(p, x0, traj.times)
    oracle_error = float(np.max(np.abs(traj.states[:, 0] - exact)))
    return SweepRow(
        **base,
        converged_at=converged_at,
        tau_bound=report.tau_bound,
        reaches_zero=report.reaches_zero,
        deadline_pass=report.deadline_pass,
        certificate_pass=check_dissipation(traj, p, policy).passed,
        bound_gap=None if converged_at is None else abs(converged_at - report.tau_bound),
        oracle_error=oracle_error,
        oracle_pass=oracle_error <= _oracle_tolerance(x0, policy),
        terminal_norm=traj.terminal_norm,
        step_count=traj.step_count,
    ), traj.rejected_steps


def _worst(pairs) -> tuple[float, Optional[int]]:
    """The largest positive value of (value or None, row index) pairs and
    the first row that has it; (0.0, None) when no value is positive."""
    positive = ((v, i) for v, i in pairs if v is not None and v > 0.0)
    return max(positive, key=lambda pair: pair[0], default=(0.0, None))


def run_sweep(cfg: SweepConfig, policy: Optional[NumericPolicy] = None) -> SweepResult:
    """Run every (params, x0) cell; rows come in lexicographic grid order.

    Every row is the one a plain ``simulate`` of its cell gives.
    Deterministic for a fixed config; simulation failures land in the row's
    ``error`` field instead of raising. A policy whose ``delta_end`` does
    not lie below the grid's smallest tc raises ``ValueError`` before any
    cell runs. The summary counts each failure once: a row that raised is a
    numeric error, and each check counts its failures among the rows that
    ran. It also gives the rows' accepted and rejected steps, so a change in
    speed can be told from a change in work.
    """
    policy = policy if policy is not None else NumericPolicy()
    policy.resolve_delta_end(min(cfg.tc_values))
    # one spec per tuple, shared by its cells: a spec keeps no state between runs
    tuples = [(p, make_time_barrier_scalar(p)) for p in cfg.grid()]
    cells = [(p, spec, x0) for p, spec in tuples for x0 in cfg.x0_values()]
    # (row, rejected steps) per cell
    results = [_compute_row(i, p, x0, policy, spec) for i, (p, spec, x0) in enumerate(cells)]
    rows = [row for row, _ in results]
    ran = [r for r in rows if not r.error]
    admissible = [r for r in ran if r.admissible]
    worst_gap, worst_gap_row = _worst((r.bound_gap, r.index) for r in admissible)
    worst_err, worst_err_row = _worst((r.oracle_error, r.index) for r in ran)

    summary = {
        "rows": len(rows),
        "admissible_rows": sum(r.admissible for r in rows),
        "inadmissible_rows": sum(not r.admissible for r in rows),
        "numeric_errors": len(rows) - len(ran),
        "deadline_failures": sum(not r.deadline_pass for r in admissible),
        "certificate_failures": sum(not r.certificate_pass for r in admissible),
        "oracle_failures": sum(not r.oracle_pass for r in ran),
        "bound_failures": sum(
            r.bound_gap is None or r.bound_gap > 1e-4 * r.tc for r in admissible
        ),
        "worst_bound_gap": worst_gap,
        "worst_bound_gap_row": worst_gap_row,
        "worst_oracle_error": worst_err,
        "worst_oracle_error_row": worst_err_row,
        "steps_accepted": sum(r.step_count for r in ran),
        "steps_rejected": sum(rejected for _, rejected in results),
    }
    summary["check_failures"] = sum(
        summary[key] for key in ("numeric_errors", "deadline_failures",
                                 "certificate_failures", "bound_failures", "oracle_failures")
    )
    return SweepResult(rows=rows, summary=summary)


@dataclass(frozen=True)
class SeparationRow:
    """One line of the deadline-versus-state-decay comparison table."""

    x0: float
    barrier_settling: Optional[float]
    autonomous_settling: float
    autonomous_exceeds_deadline: bool


def separation_table(
    tc: float,
    q: float,
    alpha: float,
    x0_list,
    policy: Optional[NumericPolicy] = None,
) -> list[SeparationRow]:
    """Compare deadline-enforced settling against the power-law comparator.

    The barrier exponent is set to 1/(1-alpha), the minimal admissible value,
    which makes the comparison least favorable to the deadline law. The
    comparator settling time |x0|**(1-alpha) / (q*(1-alpha)) grows without
    bound in |x0| while the simulated settling stays below tc.
    """
    beta = 1.0 / (1.0 - alpha)
    p = BarrierParams(tc, beta, q, alpha)
    law = make_autonomous_power_law(q, alpha)
    spec = make_time_barrier_scalar(p)
    rows = []
    for x0 in x0_list:
        traj = simulate(spec, x0, p, policy)  # names an x0 that is not finite
        auto = law.settling_time(abs(float(x0)))
        rows.append(
            SeparationRow(
                x0=float(x0),
                barrier_settling=traj.converged_at,
                autonomous_settling=auto,
                autonomous_exceeds_deadline=auto > tc,
            )
        )
    return rows
