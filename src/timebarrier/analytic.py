"""Closed forms for the reference decay law: barrier integrals, settling
times, and the exact trajectory.

The scalar law linearizes under the substitution z = |x|**(1-alpha), giving

    z(t) * lam(t)**(-m) = z0 - q*(1-alpha) * J(t),      lam(t) = (tc-t)/tc,

where J(t) = integral of lam(s)**(-m) over [0, t] and m = beta*(1-alpha).
Everything here is derived from that identity, with log(lam) taken as
log1p(-t/tc), stable for t << tc, and log-space forms where a direct factor
would leave the float range. These functions are the oracles the
adaptive integrator is verified against, so they must not share code with it.
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
    arg = (1.0 - m) * (math.log1p(-t / tc) if t < tc else -math.inf)
    if abs(arg) < _MIN_NORMAL:  # t/tc below the normal range: I = t * tc**(-m) to first order
        return _exp_or_inf(math.log(t) - m * math.log(tc))
    if arg > 40.0:  # log expm1(arg), also where expm1 overflows
        log_expm1 = arg + math.log1p(-math.exp(-arg))
    else:
        log_expm1 = math.log(abs(math.expm1(arg)))
    return _exp_or_inf((1.0 - m) * math.log(tc) + log_expm1 - math.log(abs(m - 1.0)))


def settling_bound(p: BarrierParams, v_start: float, t_start: float = 0.0) -> SettlingBound:
    """Time at which the decay envelope started at (t_start, v_start) hits zero:
    the settling-time bound at t_start = 0, the envelope restarted at any later (t, V).

    Solves z0 * lam0**(-m) = q*(1-alpha) * (J(tau) - J(t_start)) for tau with
    z0 = v_start**(1-alpha). A finite crossing always exists for m >= 1 and
    q > 0; for m < 1 it exists only below the finite-integral threshold, and
    for q = 0 never (the pure-barrier flow converges only in the limit).
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
    # A = z0 / (lam0 * q * (1-alpha) * tc), kept in log space
    log_a = one_minus_a * math.log(v_start) - log_lam0 - math.log(q * one_minus_a * tc)
    a = _exp_or_inf(log_a)
    if m == 1.0:
        log_lam_tau = log_lam0 - a
    else:
        g = (m - 1.0) * a
        if g <= -1.0:  # m < 1 past the finite-integral threshold
            return SettlingBound(tc, False)
        log_lam_tau = log_lam0 - math.log1p(g) / (m - 1.0)
    # tc - tc*lam_tau, without its cancellation where tau << tc
    tau = min(max(-tc * math.expm1(log_lam_tau), t_start), tc)
    return SettlingBound(tau, True)


def exact_solution_scalar(p: BarrierParams, x0: float, t: float) -> float:
    """Exact trajectory of the scalar law, clamped to 0 past the crossing.

    For q = 0 this reduces to x0 * ((tc - t)/tc)**beta. The value is exactly
    x0 at t = 0 and exactly 0 for all t at or past the crossing time.
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
    else:
        arg = (1.0 - m) * log_lam
        j = math.inf if arg > 700.0 else tc * math.expm1(arg) / (m - 1.0)  # inf past exp's range
        bracket = z0 - q * one_minus_a * j
    if bracket <= 0.0 or not math.isfinite(bracket):
        return 0.0
    log_x = (m * log_lam + math.log(bracket)) / one_minus_a
    return math.copysign(math.exp(log_x), x0)


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
    out = np.zeros(t.shape)
    start = t == 0.0
    out[start] = x0
    t = t[~start]
    one_minus_a = 1.0 - alpha
    z0 = abs(x0) ** one_minus_a
    log_lam = _map_floats(math.log1p, -t / tc)
    if q == 0.0:
        bracket = np.full(t.shape, z0)
    else:
        # J(t), as exact_solution_scalar takes it
        if m == 1.0:
            j = -tc * log_lam
        else:
            arg = (1.0 - m) * log_lam
            j = np.full(t.shape, math.inf)
            finite = ~(arg > 700.0)
            j[finite] = tc * _map_floats(math.expm1, arg[finite]) / (m - 1.0)
        bracket = z0 - q * one_minus_a * j
    live = (bracket > 0.0) & np.isfinite(bracket)
    log_x = (m * log_lam[live] + _map_floats(math.log, bracket[live])) / one_minus_a
    values = np.zeros(t.shape)
    values[live] = np.copysign(_map_floats(math.exp, log_x), x0)
    out[~start] = values
    return out
