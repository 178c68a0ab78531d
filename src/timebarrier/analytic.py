"""Closed forms for the reference decay law: barrier integrals, settling
times, and the exact trajectory.

The scalar law linearizes under the substitution z = |x|**(1-alpha), giving

    z(t) * lam(t)**(-m) = z0 - q*(1-alpha) * J(t),      lam(t) = (tc-t)/tc,

where J(t) = integral of lam(s)**(-m) over [0, t] and m = beta*(1-alpha).
Everything here is derived from that identity, with log(lam) taken as
log1p(-t/tc), stable for t << tc, and one float-range rule: the direct form
where it is finite, its log form exactly where it is not. As the oracles the
adaptive integrator is verified against, they share no code with it.
Each first raises the ``ValueError`` of a tuple outside the law's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _MIN_NORMAL, BarrierParams, DivergentIntegralError, _check_law, _check_times, _exp_or_inf,
    _finite, _float_array, _map_floats, _time_error, _x0_error,
)

__all__ = [
    "SettlingBound",
    "barrier_integral",
    "settling_bound",
    "exact_solution_scalar",
    "exact_solution_scalar_array",
]


@dataclass(frozen=True)
class SettlingBound:
    """Crossing time of the transformed-envelope argument.

    ``tau_bound`` is where the envelope reaches zero (tc when no finite
    crossing exists); ``reaches_zero`` distinguishes exact-zero reaching from
    mere limit convergence.
    """

    tau_bound: float
    reaches_zero: bool


def barrier_integral(p: BarrierParams, t: float) -> float:
    """I(t) = integral of (tc - s)**(-m) over [0, t], in closed form.

    For m != 1, I = exp((1-m)*log(tc) + log|expm1(arg)| - log|m-1|) with
    arg = (1-m)*log(lam): no factor leaves the float range; past it, I is inf.
    Defined on [0, tc]: at t = tc the finite limit for m < 1, and
    :class:`DivergentIntegralError` for m >= 1; any other time outside
    [0, tc) raises the time domain's :class:`DomainError`.
    """
    _check_law(p)
    tc, m = p.tc, p.m
    if not 0.0 <= t <= tc:
        _time_error(t, tc)
    if t == tc and m >= 1.0:
        raise DivergentIntegralError(f"barrier integral diverges at t = tc (m={m:g} >= 1)")
    if t == 0.0:
        return 0.0
    if m == 1.0:
        return -math.log1p(-t / tc)
    log_lam = math.log1p(-t / tc) if t < tc else -math.inf
    if abs((1.0 - m) * log_lam) < _MIN_NORMAL:  # t/tc below the normal range: I = t * tc**(-m)
        return _exp_or_inf(math.log(t) - m * math.log(tc))
    return _exp_or_inf((1.0 - m) * math.log(tc) + _log_j(m, log_lam))


def _log_j(m: float, log_lam: float) -> float:
    """log(J(t)/tc) from log lam(t), with log|expm1(arg)| as arg + log1p(-exp(-arg)) past 40."""
    arg = (1.0 - m) * log_lam
    if arg > 40.0:  # so m > 1, and expm1(arg) may overflow
        return arg + math.log1p(-math.exp(-arg)) - math.log(m - 1.0)
    return math.log(-log_lam) if m == 1.0 else math.log(abs(math.expm1(arg))) - math.log(abs(m - 1.0))


def settling_bound(p: BarrierParams, v_start: float, t_start: float = 0.0) -> SettlingBound:
    """Time at which the decay envelope started at (t_start, v_start) hits zero:
    the settling-time bound at t_start = 0, the envelope restarted at any later (t, V).

    Solves z0 * lam0**(-m) = q*(1-alpha) * (J(tau) - J(t_start)) for tau with
    z0 = v_start**(1-alpha). A finite crossing always exists for m >= 1 and
    q > 0; for m < 1 it exists only below the finite-integral threshold, and
    for q = 0 never (the pure-barrier flow converges only in the limit).
    A and g = (m-1)*A are taken by their logs where they leave the float range.
    """
    _check_law(p)
    if not (_finite(v_start) and v_start >= 0.0):
        raise ValueError(f"initial Lyapunov value must be finite and >= 0, got {v_start!r}")
    tc, q, alpha, m = p.tc, p.q, p.alpha, p.m
    if not 0.0 <= t_start < tc:
        _time_error(t_start, tc)
    if v_start == 0.0:
        return SettlingBound(t_start, True)
    if q == 0.0:
        return SettlingBound(tc, False)
    one_minus_a = 1.0 - alpha
    log_lam0 = math.log1p(-t_start / tc)
    # A = z0 / (lam0 * q * (1-alpha) * tc) by its log; past the float range, log1p(g) = log g
    log_a = one_minus_a * math.log(v_start) - log_lam0 - math.log(q * one_minus_a * tc)
    if m == 1.0:
        log_lam_tau = log_lam0 - _exp_or_inf(log_a)
    else:
        g = (m - 1.0) * _exp_or_inf(log_a)
        if g <= -1.0:  # m < 1 past the finite-integral threshold
            return SettlingBound(tc, False)
        log1p_g = math.log1p(g) if g < math.inf else log_a + math.log(m - 1.0)
        log_lam_tau = log_lam0 - log1p_g / (m - 1.0)
    # tc - tc*lam_tau, without its cancellation where tau << tc
    tau = min(max(-tc * math.expm1(log_lam_tau), t_start), tc)
    return SettlingBound(tau, True)


def exact_solution_scalar(p: BarrierParams, x0: float, t: float) -> float:
    """Exact trajectory of the scalar law, clamped to 0 past the crossing.

    For q = 0, x0 * ((tc - t)/tc)**beta. Exactly x0 at t = 0 and 0 at or past the
    crossing; q*(1-alpha)*J is taken by its log where its direct form is not finite.
    """
    _check_law(p)
    tc, q, alpha, m = p.tc, p.q, p.alpha, p.m
    try:  # not _finite: a try costs nothing unless raised
        finite = math.isfinite(x0)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        _x0_error(x0)
    if not 0.0 <= t < tc:  # compared inline: the oracle is called once per sample
        _time_error(t, tc)
    if t == 0.0:
        return float(x0)
    one_minus_a = 1.0 - alpha
    z0 = abs(x0) ** one_minus_a
    log_lam = math.log1p(-t / tc)
    # z0 - q*(1-alpha)*J(t), J(t) = integral of lam(s)**(-m) ds over [0, t]
    if q == 0.0:
        bracket = z0
    elif m == 1.0:
        bracket = z0 - q * one_minus_a * (-tc * log_lam)
    else:  # -inf past 700, where expm1 may overflow
        arg = (1.0 - m) * log_lam
        bracket = z0 - q * one_minus_a * (tc * math.expm1(arg) / (m - 1.0)) if arg <= 700.0 else -math.inf
    if not bracket > -math.inf:  # the direct q*(1-alpha)*J is past the float range: by its log
        log_qj = math.log(q) + math.log(one_minus_a) + math.log(tc) + _log_j(m, log_lam)
        bracket = z0 - _exp_or_inf(log_qj)
    if bracket <= 0.0:
        return 0.0
    log_x = (m * log_lam + math.log(bracket)) / one_minus_a
    return math.copysign(math.exp(log_x), x0)


@np.errstate(over="ignore", invalid="ignore")  # Python floats overflow to inf without a warning
def exact_solution_scalar_array(p: BarrierParams, x0: float, times) -> np.ndarray:
    """:func:`exact_solution_scalar` at every time of ``times``, bit for bit.

    The same formula on arrays, with every ``math`` call on Python floats.
    It checks the tuple, then ``x0``, then the times, as the scalar form
    does: the first time outside [0, tc) raises its :class:`DomainError`.
    """
    _check_law(p)
    t = _float_array(times)
    tc, q, alpha, m = p.tc, p.q, p.alpha, p.m
    if not _finite(x0):
        _x0_error(x0)
    _check_times(t, tc)
    out = np.full(t.shape, float(x0))
    later = t > 0.0
    t = t[later]
    one_minus_a = 1.0 - alpha
    z0 = abs(x0) ** one_minus_a
    log_lam = _map_floats(math.log1p, -t / tc)
    if q == 0.0:
        bracket = np.full(t.shape, z0)
    else:  # as exact_solution_scalar takes it
        arg = (1.0 - m) * log_lam
        j = -tc * log_lam if m == 1.0 else tc * _map_floats(math.expm1, arg.clip(max=700.0)) / (m - 1.0)
        bracket = np.where(arg <= 700.0, z0 - q * one_minus_a * j, -math.inf)
        far = ~(bracket > -math.inf)
        log_qt = math.log(q) + math.log(one_minus_a) + math.log(tc)
        bracket[far] = z0 - _map_floats(_exp_or_inf, log_qt + _map_floats(_log_j, m, log_lam[far]))
    live = bracket > 0.0
    log_x = (m * log_lam[live] + _map_floats(math.log, bracket[live])) / one_minus_a
    values = np.zeros(t.shape)
    values[live] = np.copysign(_map_floats(math.exp, log_x), x0)
    out[later] = values
    return out
