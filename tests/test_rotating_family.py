"""A coupled vector law with an exact oracle: the rotating family.

x' = -beta x/(tc - t) - q ||x||_2**(alpha-1) x + omega J x, with J the
rotation generator of coordinates 1 and 2 and V = ||x||_2. The rotation
leaves ||x|| alone, so ||x|| follows the scalar law exactly while the
direction turns at rate omega: x(t) = r(t) R(omega t) x0/||x0||, with r the
scalar law's closed form from ||x0||. The rhs is a plain function, so every
run steps through the array contract, and vdot is withheld, so the
certificate takes the Lie derivative of V along the rhs.
"""

import math

import numpy as np
import pytest

from timebarrier import DynamicsSpec, check_dissipation, simulate
from timebarrier.analytic import exact_solution_scalar_array

STARTS = [(3.0, 4.0, 12.0), (1e-3, 2e-3, -2e-3), (3e4, -4e4, 1e4)]


def rotating_spec(p, dim, omega):
    def rhs(x, t):
        norm = math.sqrt(float(x @ x))
        if norm == 0.0:
            return np.zeros(dim)  # ||x||**(alpha-1) is inf at the origin
        dx = (-p.beta / (p.tc - t) - p.q * norm ** (p.alpha - 1.0)) * x
        dx[0] -= omega * x[1]
        dx[1] += omega * x[0]
        return dx

    def v(x, t):
        return math.sqrt(float(x @ x))

    return DynamicsSpec(dim, rhs, f"rotating omega={omega}", v=v, tc=p.tc)


def rotated(x0, omega, times):
    """R(omega t) x0 at each time: x0 turned in the plane of coordinates 1 and 2."""
    c, s = np.cos(omega * times), np.sin(omega * times)
    out = np.tile(x0, (times.size, 1))
    out[:, 0] = c * x0[0] - s * x0[1]
    out[:, 1] = s * x0[0] + c * x0[1]
    return out


@pytest.mark.parametrize("start", STARTS, ids=["unit", "small", "large"])
@pytest.mark.parametrize("omega", [0.0, 5.0, 50.0])
@pytest.mark.parametrize("dim", [2, 3])
def test_rotating_family_follows_its_closed_form(default_params, dim, omega, start):
    p = default_params
    x0 = np.array(start[:dim])
    traj = simulate(rotating_spec(p, dim, omega), x0, p)

    r0 = math.sqrt(float(x0 @ x0))
    r = exact_solution_scalar_array(p, r0, traj.times)
    exact = r[:, None] * rotated(x0 / r0, omega, traj.times)
    error = np.sqrt(np.sum((traj.states - exact) ** 2, axis=1))
    assert error.max() <= 1e-8 * r0 + 10 * traj.policy.eps_conv
    # converged_at is not checked: the reference bound from the event reads early here
    assert check_dissipation(traj, p).passed
