"""Built-in dynamics: the scalar deadline-decay law, its componentwise vector
extension, and the autonomous power-law comparator.

Constructors are pure and the returned evaluators are stateless, so one spec
can drive any number of runs. Every built-in law writes V and dV/dt once, as
a block form over many states (a one-state call evaluates a block of one
row), and the scalar law has a lane form of its rhs for stepping many runs
in lockstep, which gives the bits of the one-state rhs; every ``**`` is on
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    BarrierParams,
    DomainError,
    DynamicsSpec,
    NumericPolicy,
    _Blockwise,
    _map_floats,
)

__all__ = [
    "AutonomousLaw",
    "make_time_barrier_scalar",
    "make_time_barrier_componentwise",
    "make_autonomous_power_law",
]


@dataclass(frozen=True)
class AutonomousLaw:
    """A state-only decay law phi(V).

    ``settling_time(v0)``, when present, is the closed form of the settling
    integral of dV/phi(V) over [0, v0]. Any other phi goes through
    :func:`timebarrier.analytic.autonomous_settling_integral`, a Gauss-Legendre
    quadrature on pieces that halve toward V = 0 with a geometric tail.
    """

    phi: Callable[[float], float]
    label: str
    settling_time: Optional[Callable[[float], float]] = None


def _check_law_params(p: BarrierParams) -> None:
    """Constructor preconditions, also checked by the CLI before any command
    and by ``SweepConfig`` on every grid tuple.

    Inadmissible exponents (m < 1) pass; callers that need the admissibility
    verdict ask :func:`timebarrier.core.validate_params`.
    """
    for name in ("tc", "beta", "q", "alpha"):
        if not math.isfinite(getattr(p, name)):
            raise ValueError(f"non-finite parameter: {name}")
    if p.tc <= 0.0:
        raise ValueError("tc must be > 0")
    if p.beta < 0.0:
        raise ValueError("beta must be >= 0")
    if p.q < 0.0:
        raise ValueError("q must be >= 0")
    if not 0.0 < p.alpha < 1.0:
        raise ValueError("alpha in (0,1) violated")


def _max_abs(states: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The built-in V = max_i |x_i|, one value per row."""
    return np.abs(states).max(axis=1)


def make_time_barrier_scalar(
    p: BarrierParams, policy: Optional[NumericPolicy] = None, bias: float = 0.0
) -> DynamicsSpec:
    """Scalar law dx/dt = -beta*x/(tc-t) - q*|x|**alpha * sgn(x) (+ bias).

    Admissibility (m >= 1, q > 0) is deliberately not required: q = 0 gives
    the pure-barrier flow whose closed form is the best integrator oracle, and
    m < 1 maps the non-reaching regime. ``bias`` adds a constant to the
    right-hand side; it exists to construct dissipation counterexamples and
    breaks the equilibrium at the origin on purpose.

    The Lyapunov pair is V = |x| with its derivative along trajectories;
    sgn() follows the policy (sign_eps > 0 regularizes, 0 keeps the exact
    sign for event-detection handling). Note that the regularized law only
    satisfies the strict dissipation bound outside the regularization width:
    inside |x| < sign_eps the decay term is scaled down and a certificate
    check will truthfully flag that layer.
    """
    spec = make_time_barrier_componentwise(p, 1, policy, _bias=float(bias))
    label = f"time-barrier scalar (tc={p.tc:g}, beta={p.beta:g}, q={p.q:g}, alpha={p.alpha:g})"
    if bias:
        label += f" + bias {bias:g}"
    return replace(spec, label=label)


def make_time_barrier_componentwise(
    p: BarrierParams,
    dim: int,
    policy: Optional[NumericPolicy] = None,
    _bias: float = 0.0,
) -> DynamicsSpec:
    """Vector law where every coordinate follows the scalar dynamics.

    The max-norm V(x) = max_i |x_i| satisfies the same dissipation bound with
    unchanged (beta, q, alpha), so the scalar certificate applies per
    coordinate.

    The returned ``rhs`` carries ``rhs.decoupled = True`` (see
    :class:`timebarrier.core.DynamicsSpec`): the integrator holds each
    coordinate at zero from its own eps_conv crossing, so a coordinate that
    settles early costs no extra steps, also when ``rhs`` is reused in a
    user's own ``DynamicsSpec``.
    """
    _check_law_params(p)
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim!r}")
    policy = policy if policy is not None else NumericPolicy()
    tc, beta, q, alpha = p.tc, p.beta, p.q, p.alpha
    sign_eps = policy.sign_eps
    bias = _bias

    if dim == 1:
        # scalar fast path: the integrator calls rhs thousands of times
        def rhs(x: np.ndarray, t: float) -> np.ndarray:
            if not 0.0 <= t < tc:
                raise DomainError(f"domain exceeded: t={t!r} not in [0, tc={tc!r})")
            xi = float(x[0])
            ax = abs(xi)
            if sign_eps > 0.0:
                sgn = xi / max(ax, sign_eps)
            else:
                sgn = float((xi > 0.0) - (xi < 0.0))
            return np.array([-beta * xi / (tc - t) - q * ax**alpha * sgn + bias])

    else:
        def rhs(x: np.ndarray, t: float) -> np.ndarray:
            if not 0.0 <= t < tc:
                raise DomainError(f"domain exceeded: t={t!r} not in [0, tc={tc!r})")
            ax = np.abs(x)
            if sign_eps > 0.0:
                sgn = x / np.maximum(ax, sign_eps)
            else:
                sgn = np.sign(x)
            return -beta * x / (tc - t) - q * ax**alpha * sgn + bias

    def vdot(states: np.ndarray, times: np.ndarray) -> np.ndarray:
        outside = ~((0.0 <= times) & (times < tc))
        if outside.any():
            t = times[outside][0].item()
            raise DomainError(f"domain exceeded: t={t!r} not in [0, tc={tc!r})")
        av = _max_abs(states, times)
        decay = q * _map_floats(pow, av, alpha)
        if sign_eps > 0.0:
            inside = av < sign_eps
            decay[inside] *= av[inside] / sign_eps
        value = -beta * av / (tc - times) - decay
        if bias:
            # derivative of the max coordinate; for the biased scalar demo
            # this is sgn(x)*rhs(x, t)
            top = states[np.arange(len(states)), np.argmax(np.abs(states), axis=1)]
            value += bias * np.where(top > 0, 1.0, -1.0)
        value[av == 0.0] = 0.0
        return value

    # the bias of the scalar demo breaks rhs(0, t) = 0, which the hold needs
    rhs.decoupled = not bias
    label = (
        f"time-barrier componentwise n={dim} "
        f"(tc={tc:g}, beta={beta:g}, q={q:g}, alpha={alpha:g})"
    )
    return DynamicsSpec(
        dim=dim, rhs=rhs, label=label, v=_Blockwise(_max_abs), vdot=_Blockwise(vdot), tc=tc
    )


def _scalar_law_lanes(policy: Optional[NumericPolicy] = None):
    """Lane form of the rhs of :func:`make_time_barrier_scalar` (no bias).

    Returns ``rhs(x, t, tc, beta, q, alpha)``, where every argument is an
    array over lanes and each lane carries its own parameters. A lane's value
    has the bits of the scalar rhs at the lane's (x, t) and parameters; a
    lane whose time lies outside [0, tc) gets NaN where the scalar rhs raises
    :class:`DomainError`.
    """
    sign_eps = (policy if policy is not None else NumericPolicy()).sign_eps

    def rhs(x, t, tc, beta, q, alpha):
        ax = np.abs(x)
        if sign_eps > 0.0:
            sgn = x / np.maximum(ax, sign_eps)
        else:
            sgn = np.sign(x)
        # "+ 0.0" is the scalar law's zero bias, which turns -0.0 into 0.0
        f = -beta * x / (tc - t) - q * _map_floats(pow, ax, alpha) * sgn + 0.0
        f[~((0.0 <= t) & (t < tc))] = np.nan
        return f

    return rhs


def make_autonomous_power_law(q: float, alpha: float):
    """Comparator phi(V) = q * V**alpha and its scalar dynamics.

    The power law is the classical finite-time decay; its settling integral
    has the closed form v0**(1-alpha) / (q*(1-alpha)), which grows without
    bound in v0 -- the numeric heart of the separation from deadline-enforced
    convergence. Returns the (law, dynamics) pair.
    """
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError("q must be > 0")
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ValueError("alpha in (0,1) violated")

    def phi(value: float) -> float:
        return q * value**alpha

    def settling_time(v0: float) -> float:
        return v0 ** (1.0 - alpha) / (q * (1.0 - alpha))

    law = AutonomousLaw(
        phi=phi,
        label=f"power-law decay (q={q:g}, alpha={alpha:g})",
        settling_time=settling_time,
    )

    def rhs(x: np.ndarray, t: float) -> np.ndarray:
        return -q * np.abs(x) ** alpha * np.sign(x)

    def vdot(states: np.ndarray, times: np.ndarray) -> np.ndarray:
        av = _max_abs(states, times)
        value = -q * _map_floats(pow, av, alpha)
        value[av == 0.0] = 0.0
        return value

    spec = DynamicsSpec(
        dim=1, rhs=rhs, label=law.label, v=_Blockwise(_max_abs), vdot=_Blockwise(vdot), tc=None
    )
    return law, spec
