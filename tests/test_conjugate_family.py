"""Nonlinear specs with a known answer: conjugates of the componentwise law.

For a diffeomorphism Phi with Phi(0) = 0, the spec
f(x, t) = DPhi(x)^-1 . law.rhs(Phi(x), t) with V(x) = max_i |Phi(x)_i| makes
y = Phi(x) follow the law exactly, so a run of the spec from x0 settles as
the law's run from Phi(x0) does, V follows the scalar closed form from
V(x0) (each |y_i| does, and the scalar flow keeps their order), and the
certificate passes. The rhs and V are plain functions, so every run steps
through the array contract, and vdot is withheld, so the certificate takes
the Lie derivative of V along the rhs. Each case runs in a few hundredths
of a second. The bend from a start such as Phi^-1([1, -0.5]) chatters on its
curved settled surface x2 + x1**2 = 0 (over 20,000 steps), so it is not a
case here.
"""

import numpy as np
import pytest

from timebarrier import DynamicsSpec, check_dissipation, simulate
from timebarrier.analytic import exact_solution_scalar_array
from timebarrier.systems import make_time_barrier_componentwise


def _cubic_inverse(y):
    """The real root x of x + x**3/3 = y, per coordinate (Cardano)."""
    root = np.sqrt(2.25 * y * y + 1.0)
    return np.cbrt(1.5 * y + root) + np.cbrt(1.5 * y - root)


# name -> (Phi, (x, g) -> DPhi(x)^-1 g, Phi^-1)
CONJUGATES = {
    "cubic": (
        lambda x: x + x**3 / 3.0,
        lambda x, g: g / (1.0 + x * x),
        _cubic_inverse,
    ),
    "bend": (
        lambda x: np.array([x[0], x[1] + x[0] ** 2]),
        lambda x, g: np.array([g[0], g[1] - 2.0 * x[0] * g[0]]),
        lambda y: np.array([y[0], y[1] - y[0] ** 2]),
    ),
}


def conjugate_spec(law, name):
    phi, solve, _ = CONJUGATES[name]

    def rhs(x, t):
        return solve(x, law.rhs(phi(x), t))

    def v(x, t):
        return float(np.abs(phi(x)).max())

    return DynamicsSpec(law.dim, rhs, f"{name} conjugate of {law.label}", v=v, tc=law.tc)


@pytest.mark.parametrize(
    "name, y0",
    [("cubic", [1.0, 0.1]), ("cubic", [3.0, 2.0]), ("bend", [0.1, 1.0])],
    ids=["cubic_unit", "cubic_large", "bend_off_its_surface"],
)
def test_conjugate_settles_as_the_law_from_its_image(default_params, name, y0):
    p = default_params
    law = make_time_barrier_componentwise(p, 2)
    phi, _, inverse = CONJUGATES[name]
    x0 = inverse(np.array(y0))
    traj = simulate(conjugate_spec(law, name), x0, p)
    reference = simulate(law, phi(x0), p)

    v0 = traj.v_values[0]
    error = np.abs(traj.v_values - exact_solution_scalar_array(p, v0, traj.times))
    assert error.max() <= 1e-8 * v0 + 10 * traj.policy.eps_conv
    report = check_dissipation(traj, p)
    assert report.violations == [] and report.w_monotone
    assert traj.converged_at is not None and reference.converged_at is not None
    assert abs(traj.converged_at - reference.converged_at) <= 2e-9
    assert traj.step_count <= 2 * reference.step_count
    assert traj.rejected_steps <= 2 * reference.rejected_steps
