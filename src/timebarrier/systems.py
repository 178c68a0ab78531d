"""Built-in dynamics: the scalar deadline-decay law and its componentwise vector
extension.

Constructors are pure and the returned evaluators are stateless, so one spec
can drive any number of runs. Every built-in law writes V once, as a block form
over many states (a one-state call evaluates a block of one row), and its rhs
once, as a plain-float kernel that the integrator steps on Python floats. An
unbiased law's dV/dt is the bound itself, so its certificate tests V's record
and W, not the field; a biased law states none and is certified through its
field. The power-law comparator builds no dynamics:
:func:`timebarrier.sweep.separation_table` computes its closed-form settling
time inline.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .core import (
    BarrierParams,
    DynamicsSpec,
    NumericPolicy,
    _Blockwise,
    _check_law,
    _check_times,
    _dissipation_bound,
    _float,
    _Pointwise,
    _time_error,
)

__all__ = [
    "make_time_barrier_scalar",
    "make_time_barrier_componentwise",
]


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

    V = |x|; the unbiased law's dV/dt is the bound, and a biased law states none.
    ``policy`` is not read; it is kept so that callers passing it stay valid.
    """
    spec = make_time_barrier_componentwise(p, 1, _bias=_float(bias))
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

    The ``rhs`` is one plain-float kernel in a :class:`timebarrier.core._Pointwise`.

    ``policy`` is not read; it is kept so that callers passing it stay valid.
    """
    _check_law(p)
    if not math.isfinite(_bias):
        raise ValueError(f"bias must be finite, got {_bias!r}")
    tc, beta, q, alpha, bias = p.tc, p.beta, p.q, p.alpha, _bias

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

    rhs = _Pointwise(kernel)

    def vdot(states: np.ndarray, times: np.ndarray) -> np.ndarray:
        _check_times(times, tc)
        av = _max_abs(states, times)
        value = _dissipation_bound(av, times, p)
        value[av == 0.0] = 0.0
        return value

    label = (
        f"time-barrier componentwise n={dim} "
        f"(tc={tc:g}, beta={beta:g}, q={q:g}, alpha={alpha:g})"
    )
    return DynamicsSpec(
        dim=dim, rhs=rhs, label=label,
        v=_Blockwise(_max_abs), vdot=None if bias else _Blockwise(vdot), tc=tc,
    )
