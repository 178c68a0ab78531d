"""Built-in dynamics: the scalar deadline-decay law, its componentwise vector
extension, and the autonomous power-law comparator.

Constructors are pure and the returned evaluators are stateless, so one spec
can drive any number of runs. Every built-in law writes V and dV/dt once, as
a block form over many states (a one-state call evaluates a block of one
row), and its rhs once, as a plain-float kernel that the integrator steps on
Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    BarrierParams,
    DynamicsSpec,
    NumericPolicy,
    _Blockwise,
    _check_law,
    _check_times,
    _map_floats,
    _Pointwise,
    _time_error,
)

__all__ = [
    "AutonomousLaw",
    "make_time_barrier_scalar",
    "make_time_barrier_componentwise",
    "make_autonomous_power_law",
]


@dataclass(frozen=True)
class AutonomousLaw:
    """A state-only decay law dV/dt = -phi(V), known by its settling time.

    ``settling_time(v0)`` is the closed form of the settling integral of
    dV/phi(V) over [0, v0], the time the law takes from V = v0 to zero.
    """

    label: str
    settling_time: Callable[[float], float]


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

    The Lyapunov pair is V = |x| with its derivative along trajectories.
    ``policy`` is not read; it is kept so that callers passing it stay valid.
    """
    spec = make_time_barrier_componentwise(p, 1, _bias=float(bias))
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

    The ``rhs`` is one plain-float kernel wrapped in
    :class:`timebarrier.core._Pointwise` for every dim, declared decoupled
    (see :class:`timebarrier.core.DynamicsSpec`) unless it has a bias.

    ``policy`` is not read; it is kept so that callers passing it stay valid.
    """
    _check_law(p)
    if not math.isfinite(_bias):
        raise ValueError(f"bias must be finite, got {_bias!r}")
    tc, beta, q, alpha = p.tc, p.beta, p.q, p.alpha
    bias = _bias

    # a plain-float kernel: the integrator calls it thousands of times
    def kernel(x: float, t: float) -> float:
        if not 0.0 <= t < tc:  # compared inline once per stage; raised on failure only
            _time_error(t, tc)
        # the exact sign by branch: the bits of q*|x|**alpha*sgn(x) with
        # sgn(x) a float, signed zeros and NaN included
        if x > 0.0:
            return -beta * x / (tc - t) - q * x**alpha + bias
        if x < 0.0:
            return -beta * x / (tc - t) + q * (-x) ** alpha + bias
        return -beta * x / (tc - t) - q * abs(x) ** alpha * 0.0 + bias

    # a bias breaks rhs(0, t) = 0, which the hold needs
    rhs = _Pointwise(kernel, decoupled=not bias)

    def vdot(states: np.ndarray, times: np.ndarray) -> np.ndarray:
        _check_times(times, tc)
        av = _max_abs(states, times)
        decay = q * _map_floats(pow, av, alpha)
        value = -beta * av / (tc - times) - decay
        if bias:
            # derivative of the max coordinate; for the biased scalar demo
            # this is sgn(x)*rhs(x, t)
            top = states[np.arange(len(states)), np.argmax(np.abs(states), axis=1)]
            value += bias * np.where(top > 0, 1.0, -1.0)
        value[av == 0.0] = 0.0
        return value

    label = (
        f"time-barrier componentwise n={dim} "
        f"(tc={tc:g}, beta={beta:g}, q={q:g}, alpha={alpha:g})"
    )
    return DynamicsSpec(
        dim=dim, rhs=rhs, label=label, v=_Blockwise(_max_abs), vdot=_Blockwise(vdot), tc=tc
    )


def make_autonomous_power_law(q: float, alpha: float):
    """Comparator dV/dt = -q * V**alpha and its scalar dynamics.

    The power law is the classical finite-time decay; its settling time has
    the closed form v0**(1-alpha) / (q*(1-alpha)), which grows without bound
    in v0 -- the numeric heart of the separation from deadline-enforced
    convergence. Returns the (law, dynamics) pair.
    """
    if not (math.isfinite(q) and q > 0.0):
        raise ValueError("q must be > 0")
    if not (math.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ValueError("alpha in (0,1) violated")

    def settling_time(v0: float) -> float:
        return v0 ** (1.0 - alpha) / (q * (1.0 - alpha))

    law = AutonomousLaw(
        label=f"power-law decay (q={q:g}, alpha={alpha:g})", settling_time=settling_time
    )

    def kernel(x: float, t: float) -> float:
        return -q * abs(x) ** alpha * float((x > 0.0) - (x < 0.0))

    def vdot(states: np.ndarray, times: np.ndarray) -> np.ndarray:
        av = _max_abs(states, times)
        value = -q * _map_floats(pow, av, alpha)
        value[av == 0.0] = 0.0
        return value

    spec = DynamicsSpec(
        dim=1, rhs=_Pointwise(kernel), label=law.label, v=_Blockwise(_max_abs),
        vdot=_Blockwise(vdot), tc=None,
    )
    return law, spec
