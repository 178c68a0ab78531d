"""Adaptive integration against the closed forms: accuracy, events, clamping."""

import numpy as np
import pytest

from timebarrier import (
    DEFAULT_GRID,
    BarrierParams,
    BlowUpError,
    DynamicsSpec,
    NumericPolicy,
    StallError,
    exact_solution_scalar,
    resample,
    settling_bound,
    settling_report,
    simulate,
)
from timebarrier.systems import make_time_barrier_componentwise, make_time_barrier_scalar

from conftest import random_admissible

TAU_DEFAULT = 0.8646647167633873


@pytest.fixture
def default_traj(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    return simulate(spec, 1.0, default_params, default_policy)


def test_settling_matches_bound(default_traj):
    assert default_traj.converged_at == pytest.approx(TAU_DEFAULT, abs=1e-4)


def test_event_precedes_settling(default_traj):
    assert default_traj.event_time is not None
    assert default_traj.event_time <= default_traj.converged_at <= default_traj.t_end


def test_trajectory_structure(default_traj):
    times = default_traj.times
    assert len(default_traj.samples) >= 512
    assert np.all(np.diff(times) > 0.0)
    assert times[0] == 0.0
    assert times[-1] == default_traj.t_end
    assert default_traj.t_end == 1.0 - 1e-9
    assert default_traj.step_count > 0
    assert default_traj.step_count + default_traj.rejected_steps < 20_000
    assert default_traj.terminal_norm == 0.0


def test_clamped_after_event(default_traj):
    times = default_traj.times
    states = default_traj.states
    after = times > default_traj.converged_at
    assert np.all(states[after] == 0.0)
    assert np.all(default_traj.w_values[after] == 0.0)


def test_equilibrium_start(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    traj = simulate(spec, 0.0, default_params, default_policy)
    assert traj.converged_at == 0.0
    assert np.all(traj.states == 0.0)
    assert traj.terminal_norm == 0.0


def test_pure_barrier_flow_matches_closed_form(default_policy):
    p = BarrierParams(2.0, 3.0, 0.0, 0.5)
    spec = make_time_barrier_scalar(p, default_policy)
    traj = simulate(spec, 2.0, p, default_policy)
    x_mid = resample(traj, [1.0])[0, 0]
    assert x_mid == pytest.approx(0.25, rel=1e-6)
    # no exact-zero crossing exists, so settling is the eps-crossing itself
    assert traj.converged_at == traj.event_time


def test_oracle_equivalence_sampled(default_policy):
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_admissible(rng)
        spec = make_time_barrier_scalar(p, default_policy)
        x0 = rng.uniform(-1e3, 1e3)
        traj = simulate(spec, x0, p, default_policy)
        exact = np.array(
            [exact_solution_scalar(p, x0, t) for t in traj.times]
        )
        dev = np.max(np.abs(traj.states[:, 0] - exact))
        assert dev <= max(1e-6 * abs(x0), 10 * default_policy.eps_conv)


def test_deadline_independent_of_initial_condition(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    accepted = rejected = 0
    for k in range(-6, 7):
        for sign in (1.0, -1.0):
            traj = simulate(spec, sign * 10.0**k, default_params, default_policy)
            assert traj.converged_at is not None
            assert traj.converged_at <= 1.0 - 1e-9
            accepted += traj.step_count
            rejected += traj.rejected_steps
    # the work of these 26 runs (Acceptance 1) is pinned, so that a change in
    # speed can be told apart from a change in work
    assert (accepted, rejected) == (5232, 108)


@pytest.mark.parametrize(
    "p",
    DEFAULT_GRID.grid()[::7],
    ids=lambda p: f"tc={p.tc:g},beta={p.beta:g},q={p.q:g},alpha={p.alpha:g}",
)
def test_float_step_matches_array_step(p, default_policy):
    # the scalar law steps on Python floats; the componentwise law started at
    # [x0, x0] steps on numpy arrays through the same controller
    scalar = make_time_barrier_scalar(p, default_policy)
    pair = make_time_barrier_componentwise(p, 2, default_policy)
    for k in range(-6, 7, 3):
        x0 = (-1.0) ** k * 10.0**k
        a = simulate(scalar, x0, p, default_policy)
        b = simulate(pair, [x0, x0], p, default_policy)
        assert (a.step_count, a.rejected_steps) == (b.step_count, b.rejected_steps)
        assert a.converged_at == pytest.approx(b.converged_at, rel=1e-12, abs=0.0)


def test_w_monotone_along_flow(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    for x0 in (1e-6, 1e-2, 1.0, 1e3, 1e6):
        traj = simulate(spec, x0, default_params, default_policy)
        increases = np.diff(traj.w_values)
        assert np.max(increases) <= default_policy.residual_tol


def test_pure_barrier_linearity(default_params):
    policy = NumericPolicy(rel_tol=1e-12, abs_tol=1e-20)
    p = BarrierParams(1.0, 2.0, 0.0, 0.5)
    spec = make_time_barrier_scalar(p, policy)
    base = simulate(spec, 1.0, p, policy)
    ref = base.states[:, 0]
    keep = np.abs(ref) > 100 * policy.eps_conv
    for lam in (-2.0, 0.5, 10.0):
        traj = simulate(spec, lam, p, policy)
        scaled = resample(traj, base.times[keep])[:, 0]
        rel = np.abs(scaled - lam * ref[keep]) / np.abs(lam * ref[keep])
        assert np.max(rel) <= 1e-9


def test_componentwise_vector_run(default_params, default_policy):
    spec = make_time_barrier_componentwise(default_params, 2, default_policy)
    traj = simulate(spec, np.array([1.0, 0.1]), default_params, default_policy)
    scalar_spec = make_time_barrier_scalar(default_params, default_policy)
    scalar_traj = simulate(scalar_spec, 1.0, default_params, default_policy)
    # the slower (max-norm) coordinate dictates the settling instant
    assert traj.converged_at == pytest.approx(scalar_traj.converged_at, abs=1e-6)
    exact = np.array(
        [exact_solution_scalar(default_params, 1.0, t) for t in traj.times]
    )
    dev = np.max(np.abs(traj.states[:, 0] - exact))
    assert dev <= max(1e-6, 10 * default_policy.eps_conv)


@pytest.mark.parametrize("one_per_call", [False, True], ids=["batch", "one-per-call"])
@pytest.mark.parametrize(
    "x0, sign_eps",
    # the regularized sign keeps the dim-2 run with unequal magnitudes short
    [([1.0], 0.0), ([1.0, -0.1], 1e-10)],
    ids=["dim1", "dim2"],
)
def test_resample_reproduces_nodes(x0, sign_eps, one_per_call, default_params):
    policy = NumericPolicy(sign_eps=sign_eps)
    spec = make_time_barrier_componentwise(default_params, len(x0), policy)
    traj = simulate(spec, x0, default_params, policy)
    times, states = traj.times[::5], traj.states[::5]
    if one_per_call:
        # how the finite-difference certificate calls it
        values = np.concatenate([resample(traj, [t]) for t in times])
    else:
        values = resample(traj, times)
    assert values.shape == states.shape
    assert np.array_equal(values, states)


def test_resample_zero_after_settling(default_traj):
    t = 0.5 * (default_traj.converged_at + default_traj.t_end)
    assert np.all(resample(default_traj, [t, default_traj.t_end]) == 0.0)


def test_resample_rejects_bad_times(default_traj):
    with pytest.raises(ValueError):
        resample(default_traj, [-0.1])
    with pytest.raises(ValueError):
        resample(default_traj, [default_traj.t_end + 1e-6])
    with pytest.raises(ValueError):
        resample(default_traj, [0.5, 0.4])


def test_settling_report(default_traj, default_params):
    report = settling_report(default_traj, default_params)
    assert report.deadline_pass
    assert report.reaches_zero
    assert report.tau_bound == pytest.approx(TAU_DEFAULT, abs=1e-15)
    assert abs(report.converged_at - report.tau_bound) <= 1e-4


def test_blow_up_error(default_params, default_policy):
    def exploding(x, t):
        with np.errstate(over="ignore"):
            return np.array([1e300 * (x[0] ** 3 + 1.0)])

    spec = DynamicsSpec(dim=1, rhs=exploding, label="exploding cubic")
    with pytest.raises(BlowUpError) as info:
        simulate(spec, 1.0, default_params, default_policy)
    assert np.isfinite(info.value.t)


def test_stall_error_carries_state(default_params, default_policy):
    import math as _math

    def wild(x, t):
        # bounded but violently oscillatory: the error estimate never shrinks
        # with h, so the controller collapses the step to the stall floor
        s = 1.0 if _math.sin(x[0] * 1e8 + t * 1e9) > 0 else -1.0
        return np.array([1e12 * s])

    spec = DynamicsSpec(dim=1, rhs=wild, label="oscillatory jump field")
    with pytest.raises(StallError) as info:
        simulate(spec, 1.0, default_params, default_policy)
    assert info.value.x.shape == (1,)


def test_simulate_validates_inputs(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    with pytest.raises(ValueError):
        simulate(spec, np.array([1.0, 2.0]), default_params, default_policy)
    with pytest.raises(ValueError):
        simulate(spec, np.nan, default_params, default_policy)


def test_tiny_initial_condition_immediate_event(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    traj = simulate(spec, 1e-9, default_params, default_policy)
    assert traj.event_time == 0.0
    assert traj.converged_at is not None
    # remaining settling from 1e-9 at t=0: z0/(q(1-alpha)) with z0 = sqrt(1e-9)
    want = settling_bound(default_params, 1e-9).tau_bound
    assert traj.converged_at == pytest.approx(want, abs=1e-12)
    assert traj.samples[0].x[0] == 1e-9
    assert np.all(traj.states[1:] == 0.0)


def test_bound_tightness_across_decades(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    for k in range(-6, 7):
        x0 = 10.0**k
        traj = simulate(spec, x0, default_params, default_policy)
        tau = settling_bound(default_params, x0).tau_bound
        assert abs(traj.converged_at - tau) <= 1e-4
