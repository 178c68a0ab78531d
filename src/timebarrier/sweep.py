"""Batch experiments over parameter grids and initial conditions.

A sweep is the finite surrogate for "every initial condition": each
(params, x0) cell simulates the scalar law, then checks the deadline, the
dissipation certificate, the settling-bound gap and the closed-form oracle.
Failures are data, not exceptions -- the point of a sweep is to map the
failure boundary (for example the non-reaching regime below exponent 1).

The cells step as lockstep lanes of a fixed-width pool (``_LANES`` wide),
refilled from the cell queue in grid order: numpy arithmetic over the lanes
replaces a Python-level Dormand-Prince step per cell, and the law's ``**``
stays on Python floats, so each lane takes exactly the steps its cell takes
alone. When a lane finishes, its row is built at once through ``simulate``,
which turns the lane's step record into the trajectory with the same record
builder as a plain run, and the record is freed. A cell whose lane raised or
stalled is re-run through plain ``simulate``, so its error row carries the
same text. Rows land at their grid index, so a sweep with a fixed config is
bit-reproducible and equal to simulating each cell on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analytic import exact_solution_scalar_array
from .certify import check_dissipation
from .core import BarrierParams, NumericPolicy, TimeBarrierError, validate_params
from .integrate import _lane_start, _step_lanes, settling_report, simulate
from .systems import (
    _check_law_params,
    _scalar_law_lanes,
    make_autonomous_power_law,
    make_time_barrier_scalar,
)

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
# lanes stepped at once by run_sweep; each holds one cell's step record
_LANES = 64


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

    ``seed`` is not read by the sweep, whose grid is fixed; it is kept so
    that configs naming it stay valid.
    """

    tc_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    beta_values: tuple[float, ...] = (2.0, 3.0, 4.0)
    q_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    alpha_values: tuple[float, ...] = (0.2, 0.4, 0.5)
    x0_decades: tuple[int, int] = (-6, 6)
    seed: int = 0

    def __post_init__(self):
        for name in ("tc_values", "beta_values", "q_values", "alpha_values"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        _check_x0_decades(*self.x0_decades)
        for p in self.grid():
            _check_law_params(p)

    def grid(self) -> list[BarrierParams]:
        return [
            BarrierParams(tc, beta, q, alpha)
            for tc in self.tc_values
            for beta in self.beta_values
            for q in self.q_values
            for alpha in self.alpha_values
        ]

    def x0_values(self) -> list[float]:
        lo, hi = self.x0_decades
        return [10.0**k for k in range(lo, hi + 1)]


DEFAULT_GRID = SweepConfig()


@dataclass(frozen=True)
class SweepRow:
    """Results for one (params, x0) cell.

    Rows whose simulation raised carry the exception in ``error``, ``False``
    in the three pass flags and ``None`` in every other result field.
    Otherwise ``converged_at`` and ``bound_gap`` are ``None`` only when the
    run did not converge, and every other field holds a value.
    """

    index: int
    tc: float
    beta: float
    q: float
    alpha: float
    m: float
    admissible: bool
    x0: float
    converged_at: Optional[float]
    tau_bound: Optional[float]
    reaches_zero: Optional[bool]
    deadline_pass: Optional[bool]
    certificate_pass: Optional[bool]
    bound_gap: Optional[float]
    oracle_error: Optional[float]
    oracle_pass: Optional[bool]
    terminal_norm: Optional[float]
    step_count: Optional[int]
    error: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Ordered rows plus failure counts and worst-case row identifiers."""

    config: SweepConfig
    rows: list[SweepRow]
    summary: dict = field(default_factory=dict)


def _oracle_tolerance(x0: float, policy: NumericPolicy) -> float:
    return max(1e-6 * abs(x0), 10.0 * policy.eps_conv)


def _compute_row(index, p, x0, policy, spec, steps=None) -> tuple[SweepRow, int]:
    """The row of one cell and its rejected-step count; ``steps`` is the
    cell's record from a finished lane, None to simulate the cell here."""
    verdict = validate_params(p)
    base = dict(
        index=index, tc=p.tc, beta=p.beta, q=p.q, alpha=p.alpha, m=p.m,
        admissible=verdict.admissible, x0=x0,
    )
    try:
        traj = simulate(spec, x0, p, policy, _steps=steps)
    except TimeBarrierError as exc:
        return SweepRow(
            **base, converged_at=None, tau_bound=None, reaches_zero=None,
            deadline_pass=False, certificate_pass=False, bound_gap=None,
            oracle_error=None, oracle_pass=False, terminal_norm=None,
            step_count=None, error=f"{type(exc).__name__}: {exc}",
        ), 0

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


def run_sweep(cfg: SweepConfig, policy: Optional[NumericPolicy] = None) -> SweepResult:
    """Run every (params, x0) cell; rows come in lexicographic grid order.

    The cells step as lanes of a fixed-width pool (see the module docstring)
    and every row equals the one a plain ``simulate`` of its cell gives.
    Deterministic for a fixed config; simulation failures land in the row's
    ``error`` field instead of raising. The summary counts the rows' failures
    and their accepted and rejected steps, so a change in speed can be told
    from a change in work.
    """
    policy = policy if policy is not None else NumericPolicy()
    cells = [(p, x0) for p in cfg.grid() for x0 in cfg.x0_values()]
    results: list = [None] * len(cells)  # (row, rejected steps) per cell

    def lane_starts():
        # cells that take no step or fail before it get their row here
        for index, (p, x0) in enumerate(cells):
            spec = make_time_barrier_scalar(p, policy)
            try:
                column = _lane_start(spec, x0, p, policy, (p.tc, p.beta, p.q, p.alpha))
            except TimeBarrierError:
                column = None
            if column is None:
                results[index] = _compute_row(index, p, x0, policy, spec)
            else:
                yield (index, p, x0, spec), column

    lanes = _step_lanes(lane_starts(), _scalar_law_lanes(policy), policy, _LANES)
    for (index, p, x0, spec), steps in lanes:
        results[index] = _compute_row(index, p, x0, policy, spec, steps)
    rows = [row for row, _ in results]

    admissible_rows = [r for r in rows if r.admissible]
    numeric_errors = sum(1 for r in rows if r.error)

    def failures(rows_, attr):
        return sum(1 for r in rows_ if getattr(r, attr) is False)

    bound_failures = 0
    worst_gap = 0.0
    worst_gap_row = None
    for r in admissible_rows:
        if r.bound_gap is None:
            if not r.error and r.converged_at is None:
                bound_failures += 1
            continue
        if r.bound_gap > 1e-4 * r.tc:
            bound_failures += 1
        if r.bound_gap > worst_gap:
            worst_gap, worst_gap_row = r.bound_gap, r.index
    worst_err = 0.0
    worst_err_row = None
    for r in rows:
        if r.oracle_error is not None and r.oracle_error > worst_err:
            worst_err, worst_err_row = r.oracle_error, r.index

    summary = {
        "rows": len(rows),
        "admissible_rows": len(admissible_rows),
        "inadmissible_rows": len(rows) - len(admissible_rows),
        "numeric_errors": numeric_errors,
        "deadline_failures": failures(admissible_rows, "deadline_pass"),
        "certificate_failures": failures(admissible_rows, "certificate_pass"),
        "oracle_failures": failures(rows, "oracle_pass"),
        "bound_failures": bound_failures,
        "worst_bound_gap": worst_gap,
        "worst_bound_gap_row": worst_gap_row,
        "worst_oracle_error": worst_err,
        "worst_oracle_error_row": worst_err_row,
        "steps_accepted": sum(r.step_count or 0 for r in rows),
        "steps_rejected": sum(rejected for _, rejected in results),
    }
    summary["check_failures"] = numeric_errors + sum(
        summary[key] for key in
        ("deadline_failures", "certificate_failures", "bound_failures", "oracle_failures")
    )
    return SweepResult(config=cfg, rows=rows, summary=summary)


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
    policy = policy if policy is not None else NumericPolicy()
    beta = 1.0 / (1.0 - alpha)
    p = BarrierParams(tc, beta, q, alpha)
    law, _ = make_autonomous_power_law(q, alpha)
    spec = make_time_barrier_scalar(p, policy)
    rows = []
    for x0 in x0_list:
        traj = simulate(spec, float(x0), p, policy)
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
