"""Numerical verification of the dissipation inequality along trajectories,
plus numeric witnesses that the decay field is not a function of V alone.

The dissipation check compares dV/dt at every recorded sample with V above
the convergence threshold against the bound -beta*V/(tc-t) - q*V**alpha,
using the analytic derivative when the dynamics supply one and a
second-order finite difference on the dense output otherwise (centered, and
one-sided at the trajectory edges). Slacks are relative plus
absolute because the bound spans many orders of magnitude near the deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BarrierParams, NumericPolicy, ParamVerdict, validate_params, w_transform
from .integrate import Trajectory, resample

__all__ = [
    "Violation",
    "CertificateReport",
    "NonAutonomyWitness",
    "check_dissipation",
    "find_nonautonomy_witness",
    "w_transform",
]


@dataclass(frozen=True)
class Violation:
    """One sample where dV/dt exceeded the dissipation bound."""

    t: float
    v: float
    lhs: float
    rhs_bound: float
    residual: float


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the trajectory dissipation check."""

    checked_samples: int
    violations: list[Violation]
    max_residual: float
    w_monotone: bool
    worst_w_increase: float
    admissibility: ParamVerdict

    @property
    def passed(self) -> bool:
        return (
            not self.violations and self.w_monotone and self.admissibility.admissible
        )


@dataclass(frozen=True)
class NonAutonomyWitness:
    """Two dissipation rates at the same Lyapunov level but different times.

    A positive gap shows the decay field cannot be a single-valued function
    of V; the gap grows without bound as t2 approaches the deadline.
    """

    v_level: float
    t1: float
    t2: float
    vdot1: float
    vdot2: float
    gap: float
    note: str = ""


def _fd_vdot(traj: Trajectory, t: float, tc: float) -> float:
    """Second-order finite difference of V on the dense output.

    The spacing min(1e-6*tc, 0.01*(tc - t)) adapts to the barrier curvature
    near the deadline. The stencil is centered where both neighbours lie in
    [0, t_end]; at the trajectory edges it is the one-sided
    (-3 V(t) + 4 V(t +- h) - V(t +- 2h)) / (+-2h), which keeps second order
    (a first-order edge difference overstates dV/dt at t = 0 by far more than
    the default residual_tol).
    """
    h = min(1e-6 * tc, 0.01 * (tc - t))
    v_fn = traj.spec.v
    if t - h >= 0.0 and t + h <= traj.t_end:
        a, b = t - h, t + h
        xs = resample(traj, np.array([a, b]))
        return (v_fn(xs[1], b) - v_fn(xs[0], a)) / (b - a)
    if t + 2.0 * h <= traj.t_end:
        ts = [t, t + h, t + 2.0 * h]
    elif t - 2.0 * h >= 0.0:
        ts = [t - 2.0 * h, t - h, t]
    else:
        return math.nan
    v0, v1, v2 = (v_fn(x, s) for x, s in zip(resample(traj, np.array(ts)), ts))
    if ts[0] == t:
        return (-3.0 * v0 + 4.0 * v1 - v2) / (ts[2] - ts[0])
    return (v0 - 4.0 * v1 + 3.0 * v2) / (ts[2] - ts[0])


def check_dissipation(
    traj: Trajectory, p: BarrierParams, policy: Optional[NumericPolicy] = None
) -> CertificateReport:
    """Check the decay inequality and barrier-scaled monotonicity along ``traj``.

    Samples with V <= eps_conv are excluded (the inequality is quantified over
    nonzero states only). A violation is recorded when
    lhs > rhs_bound + residual_tol * (1 + |rhs_bound|).
    """
    policy = policy if policy is not None else traj.policy
    if traj.spec.v is None or all(s.v is None for s in traj.samples):
        raise ValueError("trajectory carries no Lyapunov samples")
    tc, beta, q, alpha = p.tc, p.beta, p.q, p.alpha
    eps = policy.eps_conv
    tol = policy.residual_tol

    violations: list[Violation] = []
    max_residual = 0.0
    checked = 0
    for sample in traj.samples:
        v = sample.v
        if v is None or v <= eps:
            continue
        checked += 1
        t = sample.t
        if sample.vdot is not None:
            lhs = sample.vdot
        else:
            lhs = _fd_vdot(traj, t, tc)
            if math.isnan(lhs):
                continue
        rhs_bound = -beta * v / (tc - t) - q * v**alpha
        residual = lhs - rhs_bound
        if residual > tol * (1.0 + abs(rhs_bound)):
            violations.append(Violation(t, v, lhs, rhs_bound, residual))
            max_residual = max(max_residual, residual)

    w_monotone = True
    worst_increase = 0.0
    prev_w: Optional[float] = None
    for sample in traj.samples:
        w = sample.w
        if w is None:
            continue
        if prev_w is not None:
            increase = w - prev_w
            worst_increase = max(worst_increase, increase)
            if increase > tol * (1.0 + abs(prev_w)):
                w_monotone = False
        prev_w = w

    return CertificateReport(
        checked_samples=checked,
        violations=violations,
        max_residual=max_residual,
        w_monotone=w_monotone,
        worst_w_increase=worst_increase,
        admissibility=validate_params(p),
    )


def find_nonautonomy_witness(
    p: BarrierParams,
    v_level: float,
    t1: float,
    t2: float,
    policy: Optional[NumericPolicy] = None,
) -> NonAutonomyWitness:
    """Evaluate the equality dissipation rate at one V level and two times.

    The barrier term makes the rates differ whenever beta > 0 and t1 != t2,
    so no state-only decay law can reproduce the field. beta = 0 is the
    degenerate autonomous limit and is reported as carrying no witness.
    """
    if not (math.isfinite(v_level) and v_level > 0.0):
        raise ValueError(f"v_level must be > 0, got {v_level!r}")
    if t1 == t2:
        raise ValueError("t1 must differ from t2")
    if not (0.0 <= t1 < t2 < p.tc):
        raise ValueError(
            f"times must satisfy 0 <= t1 < t2 < tc, got t1={t1!r}, t2={t2!r}"
        )

    def rate(t: float) -> float:
        return -p.beta * v_level / (p.tc - t) - p.q * v_level**p.alpha

    vdot1 = rate(t1)
    vdot2 = rate(t2)
    gap = abs(vdot1 - vdot2)
    note = "no witness (autonomous limit)" if p.beta == 0.0 else ""
    return NonAutonomyWitness(v_level, t1, t2, vdot1, vdot2, gap, note)
