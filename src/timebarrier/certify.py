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

from .core import (
    BarrierParams,
    NumericPolicy,
    ParamVerdict,
    _evaluate,
    _map_floats,
    validate_params,
)
from .integrate import Trajectory, _eval_trajectory

__all__ = [
    "Violation",
    "CertificateReport",
    "NonAutonomyWitness",
    "check_dissipation",
    "find_nonautonomy_witness",
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


def _fd_vdot(traj: Trajectory, t: np.ndarray, tc: float) -> np.ndarray:
    """Second-order finite difference of V on the dense output at times ``t``.

    The spacing min(1e-6*tc, 0.01*(tc - t), 0.25*t_end) adapts to the barrier
    curvature near the deadline, and its last term keeps every stencil inside
    [0, t_end] on short horizons. The stencil is centered where both
    neighbours lie in [0, t_end]; at the trajectory edges it is the one-sided
    (-3 V(t) + 4 V(t +- h) - V(t +- 2h)) / (+-2h), which keeps second order
    (a first-order edge difference overstates dV/dt at t = 0 by far more than
    the default residual_tol). The dense output and V are evaluated at all
    stencil points in one call each (V in one block call when it is a
    built-in block form).
    """
    t_end = traj.t_end
    h = np.minimum(np.minimum(1e-6 * tc, 0.01 * (tc - t)), 0.25 * t_end)
    mid = (t - h >= 0.0) & (t + h <= t_end)
    fwd = ~mid & (t + 2.0 * h <= t_end)
    bwd = ~(mid | fwd)
    tm, hm, tf, hf, tb, hb = t[mid], h[mid], t[fwd], h[fwd], t[bwd], h[bwd]
    stencil = [tm - hm, tm + hm, tf, tf + hf, tf + 2.0 * hf, tb - 2.0 * hb, tb - hb, tb]
    points = np.concatenate(stencil)
    xs = _eval_trajectory(traj, points, traj.states[0])
    v = _evaluate(traj.spec.v, xs, points)
    vm0, vm1, vf0, vf1, vf2, vb0, vb1, vb2 = np.split(v, np.cumsum([s.size for s in stencil[:-1]]))

    vdot = np.empty(t.size)
    vdot[mid] = (vm1 - vm0) / (stencil[1] - stencil[0])
    vdot[fwd] = (-3.0 * vf0 + 4.0 * vf1 - vf2) / (stencil[4] - tf)
    vdot[bwd] = (vb0 - 4.0 * vb1 + 3.0 * vb2) / (tb - stencil[5])
    return vdot


def check_dissipation(
    traj: Trajectory, p: BarrierParams, policy: Optional[NumericPolicy] = None
) -> CertificateReport:
    """Check the decay inequality and barrier-scaled monotonicity along ``traj``.

    Samples with V <= eps_conv are excluded (the inequality is quantified over
    nonzero states only). A violation is recorded when
    lhs > rhs_bound + residual_tol * (1 + |rhs_bound|).
    """
    policy = policy if policy is not None else traj.policy
    if traj.spec.v is None:
        raise ValueError("trajectory carries no Lyapunov samples")
    tc, beta, q, alpha = p.tc, p.beta, p.q, p.alpha
    tol = policy.residual_tol

    # a NaN V counts as checked; its residual is NaN and never flagged
    checked = ~(traj.v_values <= policy.eps_conv)
    t = traj.times[checked]
    v = traj.v_values[checked]
    if traj.spec.vdot is not None:
        lhs = traj.vdot_values[checked]
    else:
        lhs = _fd_vdot(traj, t, tc)
    # V**alpha on Python floats: numpy's vectorized power can differ in the
    # last bit, and the certificate must not depend on the platform's loops
    decay = q * _map_floats(pow, v, alpha)
    rhs_bound = -beta * v / (tc - t) - decay
    residual = lhs - rhs_bound
    flagged = residual > tol * (1.0 + np.abs(rhs_bound))
    violations = [
        Violation(*row)
        for row in zip(
            *(a[flagged].tolist() for a in (t, v, lhs, rhs_bound, residual))
        )
    ]

    w = traj.w_values
    with np.errstate(invalid="ignore"):  # inf - inf: decided on log W below
        increase = np.diff(w)
    rising = increase > tol * (1.0 + np.abs(w[:-1]))
    # a step with W past the float range at both ends is decided on
    # log W = log V - beta*log(tc - t), and a rise there counts as inf
    over = np.flatnonzero(np.isinf(w[:-1]) & np.isinf(w[1:]))
    if over.size:
        log_w0, log_w1 = (
            _map_floats(math.log, traj.v_values[i])
            - beta * _map_floats(math.log, tc - traj.times[i])
            for i in (over, over + 1)
        )
        rising[over] = log_w1 - log_w0 > math.log1p(tol)
        increase[over] = np.where(log_w1 > log_w0, np.inf, 0.0)
    w_monotone = not rising.any()
    # only rises count, so a NaN increase is skipped as Python's max() skips it
    rises = increase[increase > 0.0]

    return CertificateReport(
        checked_samples=int(np.count_nonzero(checked)),
        violations=violations,
        max_residual=max([0.0] + [x.residual for x in violations]),
        w_monotone=w_monotone,
        worst_w_increase=rises.max().item() if rises.size else 0.0,
        admissibility=validate_params(p),
    )


def find_nonautonomy_witness(
    p: BarrierParams,
    v_level: float,
    t1: float,
    t2: float,
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
