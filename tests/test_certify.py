"""Dissipation certificates, finite-difference fallback, and the time-dependence witness."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from timebarrier import (
    BarrierParams,
    DynamicsSpec,
    NumericPolicy,
    check_dissipation,
    find_nonautonomy_witness,
    simulate,
    w_transform,
)
from timebarrier.systems import make_time_barrier_scalar

from conftest import random_admissible


@pytest.fixture
def default_traj(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    return simulate(spec, 1.0, default_params, default_policy)


def test_builtin_law_passes(default_traj, default_params, default_policy):
    report = check_dissipation(default_traj, default_params, default_policy)
    assert report.violations == []
    assert report.max_residual == 0.0
    assert report.w_monotone
    assert report.admissibility.admissible
    assert report.passed
    assert report.checked_samples > 0


def test_builtin_law_passes_random(default_policy):
    rng = np.random.default_rng(41)
    for _ in range(30):
        p = random_admissible(rng)
        spec = make_time_barrier_scalar(p, default_policy)
        x0 = 10.0 ** rng.uniform(-3, 3) * rng.choice([-1.0, 1.0])
        traj = simulate(spec, x0, p, default_policy)
        assert check_dissipation(traj, p, default_policy).passed


def test_bias_produces_violations(default_params, default_policy):
    previous = 0.0
    for bias in (0.01, 0.1, 1.0):
        spec = make_time_barrier_scalar(default_params, default_policy, bias=bias)
        traj = simulate(spec, 1.0, default_params, default_policy)
        report = check_dissipation(traj, default_params, default_policy)
        assert len(report.violations) >= 1
        assert report.max_residual >= previous
        assert report.max_residual == pytest.approx(bias, rel=1e-6)
        assert not report.passed
        previous = report.max_residual


def test_bias_detected_by_finite_difference(default_params, default_policy):
    biased = make_time_barrier_scalar(default_params, default_policy, bias=0.1)
    stripped = DynamicsSpec(
        dim=1, rhs=biased.rhs, label="biased, derivative withheld",
        v=biased.v, vdot=None, tc=biased.tc,
    )
    traj = simulate(stripped, 1.0, default_params, default_policy)
    report = check_dissipation(traj, default_params, default_policy)
    assert len(report.violations) >= 1
    assert report.max_residual == pytest.approx(0.1, rel=1e-2)


def test_finite_difference_fallback_tracks_analytic(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    stripped = DynamicsSpec(
        dim=1, rhs=spec.rhs, label="derivative withheld",
        v=spec.v, vdot=None, tc=spec.tc,
    )
    traj = simulate(stripped, 1.0, default_params, default_policy)
    # the finite-difference route is noisier than the analytic one; a modest
    # residual_tol still certifies the unbiased law through it
    relaxed = dataclasses.replace(default_policy, residual_tol=1e-4)
    report = check_dissipation(traj, default_params, relaxed)
    assert report.checked_samples > 0
    assert report.violations == []
    # the second-order stencil at the trajectory edges (t = 0 here) also
    # certifies the law at the default residual_tol
    strict = check_dissipation(traj, default_params, default_policy)
    assert strict.checked_samples == report.checked_samples
    assert strict.violations == []


def test_finite_difference_short_horizon_not_vacuous(default_params):
    # t_end = 1e-6 is shorter than four default spacings (4e-6); the stencil
    # must shrink to fit, so every checked sample gets a derivative
    policy = NumericPolicy(delta_end=0.999999)
    biased = make_time_barrier_scalar(default_params, policy, bias=1.0)
    stripped = dataclasses.replace(biased, vdot=None)
    analytic = check_dissipation(
        simulate(biased, 1.0, default_params, policy), default_params, policy
    )
    fd = check_dissipation(
        simulate(stripped, 1.0, default_params, policy), default_params, policy
    )
    assert analytic.checked_samples == fd.checked_samples == 512
    assert len(analytic.violations) == len(fd.violations) == 512
    assert not fd.passed


def test_equilibrium_trajectory_vacuous(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    traj = simulate(spec, 0.0, default_params, default_policy)
    report = check_dissipation(traj, default_params, default_policy)
    assert report.checked_samples == 0
    assert report.violations == []
    assert report.passed


def test_requires_lyapunov_samples(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    bare = DynamicsSpec(dim=1, rhs=spec.rhs, label="no lyapunov", tc=spec.tc)
    traj = simulate(bare, 1.0, default_params, default_policy)
    with pytest.raises(ValueError):
        check_dissipation(traj, default_params, default_policy)


def test_inadmissible_params_fail_certificate(default_policy):
    p = BarrierParams(1, 1, 1, 0.5)  # m = 0.5
    spec = make_time_barrier_scalar(p, default_policy)
    traj = simulate(spec, 1e-3, p, default_policy)
    report = check_dissipation(traj, p, default_policy)
    assert not report.admissibility.admissible
    assert not report.passed


def test_recorded_w_matches_transform(default_traj, default_params):
    for sample in default_traj.samples[:: len(default_traj.samples) // 50]:
        assert sample.w == w_transform(sample.v, sample.t, default_params)


def test_witness_frozen_values(default_params):
    w = find_nonautonomy_witness(default_params, 0.25, 0.0, 0.5)
    assert w.vdot1 == -1.0
    assert w.vdot2 == -1.5
    assert w.gap == 0.5
    assert w.note == ""


def test_witness_gap_monotone_in_second_time(default_params):
    gaps = [
        find_nonautonomy_witness(default_params, 0.25, 0.0, t2).gap
        for t2 in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    ]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_witness_diverges_near_deadline(default_params):
    w = find_nonautonomy_witness(default_params, 0.25, 0.0, 1.0 - 1e-9)
    assert w.gap > 1e6


def test_witness_autonomous_limit():
    p = BarrierParams(1.0, 0.0, 1.0, 0.5)
    w = find_nonautonomy_witness(p, 0.25, 0.0, 0.5)
    assert w.gap == 0.0
    assert w.note == "no witness (autonomous limit)"


def test_witness_input_validation(default_params):
    with pytest.raises(ValueError, match="t1 must differ from t2"):
        find_nonautonomy_witness(default_params, 0.25, 0.3, 0.3)
    with pytest.raises(ValueError):
        find_nonautonomy_witness(default_params, 0.25, 0.5, 0.2)
    with pytest.raises(ValueError):
        find_nonautonomy_witness(default_params, 0.25, 0.0, 1.5)
    with pytest.raises(ValueError):
        find_nonautonomy_witness(default_params, -1.0, 0.0, 0.5)


def test_w_monotonicity_flag_detects_increase(default_params, default_policy):
    # the biased law's barrier-scaled value rises where the bias dominates
    spec = make_time_barrier_scalar(default_params, default_policy, bias=1.0)
    traj = simulate(spec, 1e-3, default_params, default_policy)
    report = check_dissipation(traj, default_params, default_policy)
    assert not report.w_monotone
    assert report.worst_w_increase > 0.0


def test_w_past_the_float_range_is_compared_in_log_space(default_policy):
    # W = x0 / tc**30 = 1e360 at every sample of the pure-barrier flow
    p = BarrierParams(0.01, 30.0, 0.0, 0.5)
    traj = simulate(make_time_barrier_scalar(p, default_policy), 1e300, p, default_policy)
    assert np.all(np.isinf(traj.w_values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_dissipation(traj, p, default_policy)
    assert report.w_monotone


def test_rising_w_past_the_float_range_is_flagged(default_policy):
    # V grows while (tc - t)**beta shrinks, with W = V / tc**80 >= 1e360 throughout
    p = BarrierParams(0.01, 80.0, 1.0, 0.5)
    spec = DynamicsSpec(
        dim=1, rhs=lambda x, t: x.copy(), v=lambda x, t: abs(float(x[0])), tc=p.tc
    )
    traj = simulate(spec, 1e200, p, default_policy)
    assert np.all(np.isinf(traj.w_values))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_dissipation(traj, p, default_policy)
    assert not report.w_monotone
    assert report.worst_w_increase == math.inf
