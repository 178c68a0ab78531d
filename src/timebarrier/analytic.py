"""Closed forms for the reference decay law: barrier integrals, settling
times, and the exact trajectory.

The scalar law linearizes under the substitution z = |x|**(1-alpha), giving

    z(t) * lam(t)**(-m) = z0 - q*(1-alpha) * J(t),      lam(t) = (tc-t)/tc,

where J(t) = integral of lam(s)**(-m) over [0, t] and m = beta*(1-alpha).
Everything here is derived from that identity, with log-space fallbacks so the
formulas survive extreme exponents. These functions are the oracles the
adaptive integrator is verified against, so they must not share code with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .core import BarrierParams, DivergentIntegralError, DomainError

__all__ = [
    "SettlingBound",
    "barrier_integral",
    "settling_bound",
    "remaining_settling_time",
    "exact_solution_scalar",
    "autonomous_settling_integral",
]


@dataclass(frozen=True)
class SettlingBound:
    """Crossing time of the transformed-envelope argument.

    ``tau_bound`` is where the envelope reaches zero (tc when no finite
    crossing exists); ``reaches_zero`` distinguishes exact-zero reaching from
    mere limit convergence; ``v0`` is the initial Lyapunov value used.
    """

    tau_bound: float
    reaches_zero: bool
    v0: float


def _log_lambda(tc: float, t: float) -> float:
    """log((tc - t)/tc), stable for t << tc."""
    return math.log1p(-t / tc)


def _scaled_integral(m: float, tc: float, t: float) -> float:
    """J(t) = integral of ((tc-s)/tc)**(-m) ds over [0, t]; inf if divergent."""
    if t == 0.0:
        return 0.0
    u = _log_lambda(tc, t) if t < tc else -math.inf
    if m == 1.0:
        return math.inf if t >= tc else -tc * u
    if t >= tc:
        return math.inf if m > 1.0 else tc / (1.0 - m)
    arg = (1.0 - m) * u
    if arg > 700.0:
        return math.inf
    return tc * math.expm1(arg) / (m - 1.0)


def barrier_integral(p: BarrierParams, t: float) -> float:
    """I(t) = integral of (tc - s)**(-m) over [0, t], in closed form.

    Uses log-space arithmetic for m > 30 to avoid intermediate overflow.
    Divergence at the deadline (t >= tc with m >= 1) raises
    :class:`DivergentIntegralError`; for m < 1 the finite limit at t = tc is
    returned.
    """
    tc, m = p.tc, p.m
    if not math.isfinite(t) or t < 0.0:
        raise DomainError(f"t={t!r} outside [0, tc={tc!r}]")
    if t >= tc:
        if m >= 1.0:
            raise DivergentIntegralError(
                f"barrier integral diverges for t >= tc (m={m:g} >= 1)"
            )
        if t > tc:
            raise DomainError(f"t={t!r} outside [0, tc={tc!r}]")
    if t == 0.0:
        return 0.0
    if m == 1.0:
        return -_log_lambda(tc, t)
    if m <= 30.0:
        return _scaled_integral(m, tc, t) * tc ** (-m)
    # log space: I = tc**(1-m) * expm1((1-m)*log(lam)) / (m-1)
    arg = (1.0 - m) * _log_lambda(tc, t)
    if arg > 40.0:
        log_expm1 = arg + math.log1p(-math.exp(-arg))
    else:
        log_expm1 = math.log(math.expm1(arg))
    log_i = (1.0 - m) * math.log(tc) + log_expm1 - math.log(m - 1.0)
    return math.exp(log_i)


def remaining_settling_time(
    p: BarrierParams, v_start: float, t_start: float = 0.0
) -> SettlingBound:
    """Time at which the decay envelope started at (t_start, v_start) hits zero.

    Solves z0 * lam0**(-m) = q*(1-alpha) * (J(tau) - J(t_start)) for tau with
    z0 = v_start**(1-alpha). A finite crossing always exists for m >= 1 and
    q > 0; for m < 1 it exists only below the finite-integral threshold, and
    for q = 0 never (the pure-barrier flow converges only in the limit).
    """
    if not (math.isfinite(v_start) and v_start >= 0.0):
        raise ValueError(f"initial Lyapunov value must be finite and >= 0, got {v_start!r}")
    tc, q, alpha, m = p.tc, p.q, p.alpha, p.m
    if not 0.0 <= t_start < tc:
        raise DomainError(f"t_start={t_start!r} outside [0, tc={tc!r})")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha in (0,1) violated, got {alpha!r}")
    if v_start == 0.0:
        return SettlingBound(t_start, True, v_start)
    if q <= 0.0:
        return SettlingBound(tc, False, v_start)
    one_minus_a = 1.0 - alpha
    log_lam0 = _log_lambda(tc, t_start)
    # A = z0 / (lam0 * q * (1-alpha) * tc), kept in log space
    log_a = (
        one_minus_a * math.log(v_start)
        - log_lam0
        - math.log(q * one_minus_a * tc)
    )
    a = math.exp(log_a) if log_a < 710.0 else math.inf
    if m == 1.0:
        log_lam_tau = log_lam0 - a
    else:
        g = (m - 1.0) * a
        if m > 1.0:
            log_lam_tau = log_lam0 - math.log1p(g) / (m - 1.0)
        else:
            if g <= -1.0:
                return SettlingBound(tc, False, v_start)
            log_lam_tau = log_lam0 + math.log1p(g) / (1.0 - m)
    lam_tau = math.exp(log_lam_tau)
    tau = tc - tc * lam_tau
    tau = min(max(tau, t_start), tc)
    return SettlingBound(tau, True, v_start)


def settling_bound(p: BarrierParams, v0: float) -> SettlingBound:
    """Settling-time bound from the initial Lyapunov value v0 at t = 0."""
    return remaining_settling_time(p, v0, 0.0)


def exact_solution_scalar(p: BarrierParams, x0: float, t: float) -> float:
    """Exact trajectory of the scalar law, clamped to 0 past the crossing.

    For q = 0 this reduces to x0 * ((tc - t)/tc)**beta. The value is exactly
    x0 at t = 0 and exactly 0 for all t at or past the crossing time.
    """
    tc, q, alpha, m = p.tc, p.q, p.alpha, p.m
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    if not 0.0 <= t < tc:
        raise DomainError(f"t={t!r} outside [0, tc={tc!r})")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha in (0,1) violated, got {alpha!r}")
    if p.beta < 0.0 or q < 0.0:
        raise ValueError("beta and q must be nonnegative")
    if x0 == 0.0:
        return 0.0
    if t == 0.0:
        return float(x0)
    one_minus_a = 1.0 - alpha
    z0 = abs(x0) ** one_minus_a
    if q == 0.0:
        bracket = z0
    else:
        j = _scaled_integral(m, tc, t)
        bracket = z0 - q * one_minus_a * j
    if bracket <= 0.0 or not math.isfinite(bracket):
        return 0.0
    log_x = (m * _log_lambda(tc, t) + math.log(bracket)) / one_minus_a
    return math.copysign(math.exp(log_x), x0)


def autonomous_settling_integral(law, v0: float) -> float:
    """Settling integral of an autonomous decay law, integral dV/phi(V).

    Evaluated by adaptive quadrature with the substitution V = u**2 so the
    endpoint V = 0 is integrable without a cutoff; relative accuracy 1e-8.
    Raises :class:`DivergentIntegralError` when the quadrature does not
    converge, which signals a (possibly) divergent integral.
    """
    if not (math.isfinite(v0) and v0 >= 0.0):
        raise ValueError(f"v0 must be finite and >= 0, got {v0!r}")
    if v0 == 0.0:
        return 0.0
    phi = law.phi

    def integrand(u: float) -> float:
        return 2.0 * u / phi(u * u)

    value, abserr, info, *tail = quad(
        integrand, 0.0, math.sqrt(v0), epsabs=0.0, epsrel=1e-8, limit=200,
        full_output=1,
    )
    if tail or not math.isfinite(value) or abserr > 1e-6 * max(abs(value), 1.0):
        raise DivergentIntegralError("integral may diverge")
    return value
