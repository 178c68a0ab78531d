"""Numerical verification of the dissipation inequality along trajectories,
plus numeric witnesses that the decay field is not a function of V alone.

The dissipation check compares dV/dt with the bound -beta*V/(tc-t) - q*V**alpha
at every recorded sample with V above the convergence threshold, evaluating it
there only: the dynamics' own ``vdot`` when they supply one, and otherwise the
Lie derivative of V along the field, grad V . f, the quantity the bound
constrains: one second-order one-sided difference of V forward along
f = rhs(x, t) from the recorded state, which reads V's right derivative.
Slacks are relative plus absolute because the bound spans many orders of
magnitude near the deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    BarrierParams,
    DynamicsSpec,
    NumericPolicy,
    ParamVerdict,
    _check_law,
    _check_times,
    _dissipation_bound,
    _evaluate,
    _finite,
    _or_on_overflow,
    validate_params,
)
from .integrate import Trajectory, _checked_rhs, _own_params

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
    """Outcome of the trajectory dissipation check: the samples checked, the decay
    bound's violations and their largest residual, whether W never rose."""

    checked_samples: int
    violations: list[Violation]
    max_residual: float
    w_monotone: bool
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


def _lie_vdot(spec: DynamicsSpec, states: np.ndarray, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """grad V . f at each row of ``states`` and each time: the one-sided difference
    (-3V(x) + 4V(x + eps*f) - V(x + 2*eps*f)) / (2*eps) with eps = 1e-6*max|x|/max|f|,
    formed as a shift of 1e-6*max|x| (1e-6 at x = 0) along f/max|f| so that no eps
    leaves the float range; 0 where f = 0. Forward only, it reads V's right
    derivative, which the bound constrains; at a tie of V = max_i |x_i| a central
    difference would average the two sides' rates. It is exact for V linear along
    f and O(eps**2) for smooth V. V(x) is ``v``, the record's.

    f on all rows and V on the 2n shifted states are :func:`~timebarrier.core._evaluate`'s.
    An f that raises (a value ``_value`` rejects included) or is not finite is re-run
    row by row through ``_checked_rhs``, which raises the first bad row's error (the
    rhs's own, ``_value``'s, or the ``BlowUpError`` of a non-finite value).
    """
    n, dim = states.shape
    try:
        f = _evaluate(spec, "rhs", states, t)
    except Exception:
        f = None
    if f is None or not np.isfinite(f).all():
        f = np.reshape([_checked_rhs(spec, x, ti) for x, ti in zip(states, t.tolist())], (n, dim))
    f_max = np.abs(f).max(axis=1)
    x_max = np.abs(states).max(axis=1)
    h = 1e-6 * np.where(x_max > 0.0, x_max, 1.0)
    shift = f / np.where(f_max > 0.0, f_max, 1.0)[:, None] * h[:, None]
    stencil = np.concatenate((states + shift, states + 2.0 * shift))
    ahead = _evaluate(spec, "v", stencil, np.concatenate((t, t)))
    return (-3.0 * v + 4.0 * ahead[:n] - ahead[n:]) / (2.0 * h) * f_max


def _v_error(v0: np.ndarray, v1: np.ndarray, policy: NumericPolicy) -> np.ndarray:
    """e0/V0 + e1/V1 with e = abs_tol + rel_tol*V: the relative error the
    policy allows V at both ends of a step (inf where a V is 0)."""
    e0, e1 = (policy.abs_tol + policy.rel_tol * v for v in (v0, v1))
    with np.errstate(divide="ignore"):
        return e0 / v0 + e1 / v1


def check_dissipation(
    traj: Trajectory, p: BarrierParams, policy: Optional[NumericPolicy] = None
) -> CertificateReport:
    """Check the decay inequality and barrier-scaled monotonicity along ``traj``.

    V is the record's, which holds no negative value (``Trajectory``). Samples
    with V <= eps_conv are excluded (the inequality is quantified over nonzero states
    only); dV/dt (``vdot``, else :func:`_lie_vdot`) is evaluated at the checked samples
    only. The bound at each checked (V, t) is
    :func:`~timebarrier.core._dissipation_bound` of the run's own tuple ``traj.params``;
    another ``p`` raises ``ValueError``. A violation is recorded when lhs > rhs_bound +
    residual_tol * (1 + |rhs_bound|) or lhs - rhs_bound = inf (a finite dV/dt against a
    -inf bound), and when V or dV/dt is NaN, which makes ``max_residual`` NaN.
    Monotonicity is one rule on log W = log V - beta*log(tc - t), from ``v_values`` and
    ``times``, so it holds at every scale of W, past the float range included: a step
    counts as a rise when log W grows by more than log1p(residual_tol) + e0/V0 + e1/V1,
    where e = abs_tol + rel_tol * V is the error the policy allows the stepper in V, or
    when V goes from 0 to a value > 0. A step that ends at V = 0, or that has a NaN V,
    is not a rise. It stores no value, so it takes numpy's logs.
    """
    p = _own_params(traj, p)
    policy = policy if policy is not None else traj.policy
    if traj.spec.v is None:
        raise ValueError("trajectory carries no Lyapunov samples")
    tol = policy.residual_tol

    # a NaN V or dV/dt is a violation; a NaN residual of two -inf sides is not
    checked = ~(traj.v_values <= policy.eps_conv)
    t = traj.times[checked]
    v = traj.v_values[checked]
    if traj.spec.vdot is not None:
        lhs = _evaluate(traj.spec, "vdot", traj.states[checked], t)
    else:
        lhs = _lie_vdot(traj.spec, traj.states[checked], t, v)
    rhs_bound = _dissipation_bound(v, t, p)
    residual = lhs - rhs_bound
    flagged = (residual > tol * (1.0 + np.abs(rhs_bound))) | (residual == np.inf)
    flagged |= np.isnan(v) | np.isnan(lhs)
    rows = zip(*(a[flagged].tolist() for a in (t, v, lhs, rhs_bound, residual)))
    violations = [Violation(*row) for row in rows]

    # a rise within the error the policy allows V at both ends of the step is
    # the stepper's, not the flow's; a rise from V0 = 0 has no such band
    v0, v1 = traj.v_values[:-1], traj.v_values[1:]
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf; -inf - -inf is NaN
        rise = np.diff(np.log(traj.v_values) - p.beta * np.log(p.tc - traj.times))
        rising = (rise > math.log1p(tol) + _v_error(v0, v1, policy)) | ((v0 == 0.0) & (v1 > 0.0))

    return CertificateReport(
        checked_samples=int(np.count_nonzero(checked)),
        violations=violations,
        max_residual=residual[flagged].max().item() if violations else 0.0,
        w_monotone=not rising.any(),
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
    degenerate autonomous limit and is reported as carrying no witness. The q*V**alpha
    terms cancel, so ``gap`` is beta*V*(t2 - t1)/((tc - t1)*(tc - t2)), taken exactly
    and rounded once: it does not cancel, and is inf only past the float range.
    A tuple outside the law's domain raises its ``ValueError`` first, then
    t1 or t2 outside [0, tc) its :class:`DomainError`, then t1 >= t2.
    """
    _check_law(p)
    if not (_finite(v_level) and v_level > 0.0):
        raise ValueError(f"v_level must be > 0, got {v_level!r}")
    _check_times((t1, t2), p.tc)
    if t1 == t2:
        raise ValueError("t1 must differ from t2")
    if t1 > t2:
        raise ValueError(f"t1 must be < t2, got t1={t1!r}, t2={t2!r}")

    vdot1, vdot2 = _dissipation_bound(np.array([v_level, v_level]), np.array([t1, t2]), p).tolist()
    beta, v, tc, a, b = (Fraction(float(x)) for x in (p.beta, v_level, p.tc, t1, t2))
    gap = _or_on_overflow(float, math.inf)(beta * v * (b - a) / ((tc - a) * (tc - b)))
    note = "no witness (autonomous limit)" if p.beta == 0.0 else ""
    return NonAutonomyWitness(v_level, t1, t2, vdot1, vdot2, gap, note)
