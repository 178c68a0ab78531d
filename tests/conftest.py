"""Shared fixtures and independent numerical oracles.

The oracles deliberately avoid the library's own closed forms and integrator:
plain quadrature, bracketed root finding, and scipy's DOP853 on the smooth
branch of the dynamics. Tests compare the library against these.
"""

from __future__ import annotations

import numpy as np
import pytest

from timebarrier import BarrierParams, NumericPolicy


@pytest.fixture
def default_params():
    return BarrierParams(1.0, 2.0, 1.0, 0.5)


@pytest.fixture
def default_policy():
    return NumericPolicy()


def random_admissible(rng, beta_margin=(1.0, 2.0), alpha_range=(0.1, 0.9)):
    """Random parameter tuple with m = beta*(1-alpha) in beta_margin."""
    alpha = rng.uniform(*alpha_range)
    beta = rng.uniform(*beta_margin) / (1.0 - alpha)
    q = 10.0 ** rng.uniform(-0.5, 0.5)
    tc = 10.0 ** rng.uniform(-0.5, 0.5)
    return BarrierParams(tc, beta, q, alpha)


def quad_barrier_integral(p, t):
    """Plain adaptive quadrature of (tc - s)**(-m); reliable away from tc."""
    quad = pytest.importorskip("scipy.integrate").quad

    with np.errstate(all="ignore"):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value, _ = quad(lambda s: (p.tc - s) ** (-p.m), 0.0, t, limit=300)
    return value


def oracle_settling(p, v0):
    """Root of the settling identity via quadrature + brentq.

    Returns None when the crossing lies too close to the deadline for the
    quadrature to bracket (within ~1e-10 of tc relative).
    """
    brentq = pytest.importorskip("scipy.optimize").brentq

    target = v0 ** (1 - p.alpha) * p.tc ** (-p.m) / (p.q * (1 - p.alpha))
    f = lambda t: quad_barrier_integral(p, t) - target
    hi = None
    for k in range(1, 34):
        b = p.tc * (1.0 - 2.0**-k)
        if f(b) > 0:
            hi = b
            break
    if hi is None:
        return None
    return brentq(f, 0.0, hi, xtol=1e-15, rtol=8.9e-16)


def dop853_solution(p, x0, times):
    """High-accuracy reference trajectory on the smooth (fixed-sign) branch."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    s = 1.0 if x0 > 0 else -1.0

    def rhs(t, y):
        return [-p.beta * y[0] / (p.tc - t) - p.q * abs(y[0]) ** p.alpha * s]

    sol = solve_ivp(
        rhs, (0.0, times[-1]), [float(x0)], t_eval=times, method="DOP853",
        rtol=1e-12, atol=1e-14, max_step=p.tc / 50,
    )
    return sol.y[0]
