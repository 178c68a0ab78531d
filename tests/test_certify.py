"""Dissipation certificates, the Lie-derivative fallback, and the time-dependence witness."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from timebarrier import (
    BarrierParams,
    BlowUpError,
    DynamicsSpec,
    NumericPolicy,
    check_dissipation,
    find_nonautonomy_witness,
    settling_report,
    simulate,
    w_transform_array,
)
from timebarrier.core import _Blockwise, _Pointwise
from timebarrier.systems import make_time_barrier_componentwise, make_time_barrier_scalar

from conftest import random_admissible


def biased_vdot(p, bias):
    """The biased scalar law's dV/dt written out: the unbiased law's, which is
    the bound, plus bias * sgn(x). The law itself states none."""
    block = make_time_barrier_scalar(p).vdot.block
    return _Blockwise(lambda states, times: block(states, times) + bias * np.sign(states[:, 0]))


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


@pytest.mark.parametrize("nan_v", [True, False])
def test_a_nan_v_or_vdot_is_a_violation(default_params, default_policy, nan_v):
    law = make_time_barrier_scalar(default_params, default_policy)
    nan = lambda x, t: math.nan  # noqa: E731
    spec = DynamicsSpec(
        dim=1, rhs=law.rhs, v=nan if nan_v else law.v, vdot=None if nan_v else nan, tc=1.0
    )
    traj = simulate(spec, 1.0, default_params, default_policy)
    report = check_dissipation(traj, default_params, default_policy)
    assert report.checked_samples > 0
    assert len(report.violations) == report.checked_samples
    assert math.isnan(report.max_residual)
    assert not report.passed


def test_vdot_is_evaluated_at_the_checked_samples_only(default_params, default_policy):
    # a plain-callable dV/dt undefined at the origin: the run records zero
    # states, which the certificate does not check, so it is never called there
    biased = make_time_barrier_scalar(default_params, default_policy, bias=0.1)
    block_vdot = biased_vdot(default_params, 0.1)
    calls = []

    def vdot(x, t):
        if x[0] == 0.0:
            raise ZeroDivisionError("dV/dt is undefined at x = 0")
        calls.append(t)
        return block_vdot(x, t)

    traj = simulate(dataclasses.replace(biased, vdot=vdot), 1.0, default_params, default_policy)
    assert np.any(traj.states == 0.0)
    report = check_dissipation(traj, default_params, default_policy)
    assert len(calls) == report.checked_samples > 0
    block = check_dissipation(
        simulate(dataclasses.replace(biased, vdot=block_vdot), 1.0, default_params, default_policy),
        default_params,
        default_policy,
    )
    assert report.violations == block.violations
    assert len(report.violations) >= 1
    assert report.max_residual == block.max_residual
    assert report.w_monotone == block.w_monotone


def test_a_finite_vdot_against_an_overflowed_bound_is_a_violation():
    # at tc = 0.01 and beta = 80, beta * V / (tc - t) overflows for V near
    # 1e305, so the bound is -inf and the residual of dV/dt = 0 is +inf
    spec = DynamicsSpec(
        dim=1, rhs=lambda x, t: -x, v=lambda x, t: abs(float(x[0])),
        vdot=lambda x, t: 0.0, tc=0.01,
    )
    p = BarrierParams(0.01, 80.0, 1.0, 0.5)
    report = check_dissipation(simulate(spec, 1e305, p), p)
    assert report.checked_samples == 541
    assert len(report.violations) == 541
    assert report.max_residual == math.inf
    assert not report.passed


def test_finite_difference_fallback_tracks_analytic(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    stripped = DynamicsSpec(
        dim=1, rhs=spec.rhs, label="derivative withheld",
        v=spec.v, vdot=None, tc=spec.tc,
    )
    traj = simulate(stripped, 1.0, default_params, default_policy)
    # the difference of V along f is noisier than the analytic route; a modest
    # residual_tol still certifies the unbiased law through it
    relaxed = dataclasses.replace(default_policy, residual_tol=1e-4)
    report = check_dissipation(traj, default_params, relaxed)
    assert report.checked_samples > 0
    assert report.violations == []
    # the Lie derivative at the trajectory edges (t = 0 here) also
    # certifies the law at the default residual_tol
    strict = check_dissipation(traj, default_params, default_policy)
    assert strict.checked_samples == report.checked_samples
    assert strict.violations == []


def test_finite_difference_short_horizon_not_vacuous(default_params):
    # t_end = 1e-6 is a very short horizon; the Lie derivative needs no time
    # spacing, so every checked sample gets a derivative
    policy = NumericPolicy(delta_end=0.999999)
    biased = make_time_barrier_scalar(default_params, policy, bias=1.0)
    stated = dataclasses.replace(biased, vdot=biased_vdot(default_params, 1.0))
    analytic = check_dissipation(
        simulate(stated, 1.0, default_params, policy), default_params, policy
    )
    fd = check_dissipation(
        simulate(biased, 1.0, default_params, policy), default_params, policy
    )
    assert analytic.checked_samples == fd.checked_samples == 512
    assert len(analytic.violations) == len(fd.violations) == 512
    assert not fd.passed


def lie_derivative_report(p, x0, policy):
    """The certificate of the scalar law with its vdot withheld."""
    spec = dataclasses.replace(make_time_barrier_scalar(p, policy), vdot=None)
    return check_dissipation(simulate(spec, x0, p, policy), p, policy)


def test_lie_derivative_passes_the_reference_law_across_the_admissible_domain():
    # tc 10^U(-2,2), q 10^U(-1,1), alpha U(0.05,0.95), m U(1,4),
    # x0 = +-10^U(-6,6): a time difference of V on the dense output flagged
    # 72 of these 200 runs, with 2,102 violations, near the settling time
    policy = NumericPolicy()
    rng = np.random.default_rng(3)
    flagged = []
    for _ in range(200):
        tc, q = 10.0 ** rng.uniform(-2, 2), 10.0 ** rng.uniform(-1, 1)
        alpha, m = rng.uniform(0.05, 0.95), rng.uniform(1, 4)
        x0 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 6)
        p = BarrierParams(tc, m / (1.0 - alpha), q, alpha)
        report = lie_derivative_report(p, x0, policy)
        assert report.checked_samples > 0
        if report.violations:
            flagged.append((p, x0, len(report.violations)))
    assert flagged == []


def test_lie_derivative_passes_the_reference_law_near_its_settling_time():
    p = BarrierParams(
        0.3018704945088433, 3.5778387784476102, 1.613764201532431, 0.2641681643827022
    )
    report = lie_derivative_report(p, -18.500964153133722, NumericPolicy())
    assert report.checked_samples > 0
    assert report.violations == []
    assert report.passed


def test_lie_derivative_reads_the_right_derivative_at_a_tie(default_params):
    # V = max(|x_1|, |x_2|) from the tie x0 = (1, 1), where x_1 moves at 1/3
    # and x_2 at 3 times the law's rate: V's right derivative at t = 0 is -1,
    # above the bound -3, while a central difference averages -1 and -9 to -5.
    # The full horizon (~50 s) flags all of its 470,912 samples; its first
    # microsecond holds the tie and the samples just after it
    policy = NumericPolicy(delta_end=0.999999)
    law = make_time_barrier_componentwise(default_params, 2, policy)
    rates = np.array([1.0 / 3.0, 3.0])
    spec = DynamicsSpec(dim=2, rhs=lambda x, t: law.rhs(x, t) * rates, v=law.v, tc=law.tc)
    report = check_dissipation(simulate(spec, [1.0, 1.0], default_params, policy), default_params)
    assert report.checked_samples == len(report.violations) == 512
    first = report.violations[0]
    assert (first.t, first.rhs_bound) == (0.0, -3.0)
    assert first.lhs == pytest.approx(-1.0, rel=1e-8)


def test_the_biased_law_is_judged_by_its_field_at_a_tie():
    # from the tie x0 = (1, -1) the bias -0.25 gives f = (-3.25, 2.75) at t = 0:
    # |x_2| falls at 2.75, so V's right derivative is -2.75, above the bound -3.
    # A dV/dt by the sign of the first largest coordinate read -3.25 there
    p = BarrierParams(1.0, 2.0, 1.0, 0.5)
    law = make_time_barrier_componentwise(p, 2, _bias=-0.25)
    assert law.vdot is None
    report = check_dissipation(simulate(law, [1.0, -1.0], p), p)
    first = report.violations[0]
    assert (first.t, first.rhs_bound) == (0.0, -3.0)
    assert first.lhs == pytest.approx(-2.75, rel=1e-8)


def test_the_lie_derivative_reads_v_at_the_checked_states_from_the_record(
    default_params, default_policy
):
    # a per-row V is called on the two shifted states of each checked sample only
    law = make_time_barrier_scalar(default_params, default_policy)
    calls = []

    def v(x, t):
        calls.append(t)
        return abs(float(x[0]))

    spec = DynamicsSpec(dim=1, rhs=law.rhs, v=v, tc=law.tc)
    traj = simulate(spec, 1.0, default_params, default_policy)
    calls.clear()
    report = check_dissipation(traj, default_params, default_policy)
    assert len(calls) == 2 * report.checked_samples > 0


def test_every_reader_of_a_negative_v_raises_the_recorders_error(default_traj):
    # the record checks its own V when it is built, so no reader can be handed a
    # negative V: the recorder's error is raised by the replace itself
    with pytest.raises(ValueError, match=r"^negative Lyapunov value -1.0$"):
        dataclasses.replace(default_traj, v_values=-default_traj.v_values)


@pytest.mark.parametrize("bias", [0.0, 0.1])
def test_lie_derivative_kernel_map_matches_the_checked_route(default_params, default_policy, bias):
    # at dim 1 a wrapper of the law's rhs takes the law's steps, so the
    # kernel map and the per-row checked route see the same samples
    law = make_time_barrier_scalar(default_params, default_policy, bias=bias)
    reports = []
    for rhs in (law.rhs, lambda x, t: law.rhs(x, t)):
        spec = DynamicsSpec(dim=1, rhs=rhs, v=law.v, tc=law.tc)
        traj = simulate(spec, 1.0, default_params, default_policy)
        reports.append(check_dissipation(traj, default_params, default_policy))
    by_map, by_row = reports
    assert by_map.checked_samples == by_row.checked_samples > 0
    assert repr(by_map.violations) == repr(by_row.violations)
    assert bool(by_map.violations) == bool(bias)
    assert repr(by_map.max_residual) == repr(by_row.max_residual)


@pytest.mark.parametrize("size", [1, 3])
def test_lie_derivative_rhs_of_another_shape_is_named(default_params, default_policy, size):
    # a block of rows of another width is no derivative: the per-row route names the first row
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    traj = simulate(law, [1.0, -0.5], default_params, default_policy)
    spec = dataclasses.replace(law, rhs=lambda x, t: np.resize(law.rhs(x, t), size), vdot=None)
    with pytest.raises(ValueError, match=rf"rhs returned shape \({size},\), expected \(2,\)"):
        check_dissipation(dataclasses.replace(traj, spec=spec), default_params, default_policy)


def test_vdot_of_the_wrong_shape_is_named(default_params, default_policy):
    # one array per state is no dV/dt: named, not a bare IndexError
    law = make_time_barrier_scalar(default_params, default_policy)
    spec = dataclasses.replace(law, vdot=lambda x, t: -x, label="")
    traj = simulate(spec, 1.0, default_params, default_policy)
    with pytest.raises(ValueError, match=r"^vdot returned shape \(1,\), expected \(\)$"):
        check_dissipation(traj, default_params, default_policy)


@pytest.mark.parametrize("failure", ["nan", "raise", "nan, then raise"])
def test_lie_derivative_rhs_failure_is_raised_on_both_routes(
    default_params, default_policy, failure
):
    # the kernel map is no unchecked route: a non-finite f raises the
    # checked route's BlowUpError at the first bad sample, also where the
    # kernel raises at a later one, and a kernel that raises first raises
    # its own error again
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    spec = DynamicsSpec(dim=2, rhs=law.rhs, v=law.v, tc=law.tc)
    traj = simulate(spec, np.array([1.0, -0.5]), default_params, default_policy)
    t_bad = traj.times[traj.times.size // 3].item()

    def kernel(x, t):
        if t < t_bad:
            return law.rhs.kernel(x, t)
        if failure == "raise" or (failure == "nan, then raise" and t > t_bad):
            raise ValueError(f"kernel failed at t={t!r}")
        return math.nan

    error = ValueError if failure == "raise" else BlowUpError
    messages = []
    for rhs in (_Pointwise(kernel), lambda x, t: np.array([kernel(xi, t) for xi in x])):
        broken = dataclasses.replace(traj, spec=dataclasses.replace(spec, rhs=rhs))
        with pytest.raises(error) as info:
            check_dissipation(broken, default_params, default_policy)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert repr(t_bad) in messages[0]


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
    every = default_traj.times.size // 50
    rows = zip(default_traj.times[::every].tolist(), default_traj.v_values[::every].tolist(),
               default_traj.w_values[::every].tolist())
    for t, v, w in rows:
        assert w == w_transform_array(v, t, default_params).item()


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


@pytest.mark.parametrize("judge", [settling_report, check_dissipation])
def test_a_trajectory_is_judged_by_its_own_tuple(judge):
    p = BarrierParams(1, 2, 1, 0.5)
    traj = simulate(make_time_barrier_scalar(p), 1.0, p)
    other = BarrierParams(0.5, 2, 1, 0.5)  # its tc lies before the run's convergence
    with pytest.raises(ValueError) as info:
        judge(traj, other)
    assert repr(p) in str(info.value) and repr(other) in str(info.value)
    # an equal tuple, or none for the report, judges the run
    assert judge(traj, BarrierParams(1.0, 2.0, 1.0, 0.5)) == judge(traj, p)
    if judge is settling_report:
        assert judge(traj) == judge(traj, p)


def test_witness_gap_of_two_overflowed_rates_is_not_nan(default_params):
    w = find_nonautonomy_witness(default_params, 1e308, 0.0, 0.999999999)
    assert w.vdot1 == w.vdot2 == -math.inf
    assert w.gap == math.inf


def test_witness_gap_does_not_cancel():
    # both rates are about -1.2e11; their rounded difference keeps 4 digits
    w = find_nonautonomy_witness(BarrierParams(1.0, 2.0, 1e6, 0.5), 1e10, 0.0, 1e-12)
    exact = 0.02000000000002
    assert abs(w.gap - exact) <= 1e-15 * exact


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


def test_witness_names_a_level_past_the_float_range():
    # an int past the float range is not finite: the check's ValueError, not OverflowError
    with pytest.raises(ValueError, match="v_level must be > 0"):
        find_nonautonomy_witness(BarrierParams(1, 2, 1, 0.5), 10**400, 0.0, 0.5)


def test_w_monotonicity_flag_detects_increase(default_params, default_policy):
    # the biased law's barrier-scaled value rises where the bias dominates
    spec = make_time_barrier_scalar(default_params, default_policy, bias=1.0)
    traj = simulate(spec, 1e-3, default_params, default_policy)
    report = check_dissipation(traj, default_params, default_policy)
    assert not report.w_monotone


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


@pytest.mark.parametrize("params, x0, w_overflows", [
    # near the deadline V ~ 1e-7, where abs_tol = 1e-12 is a 1e-5 relative
    # error in V: the recorded W rises by 4.7e-7 relative while the exact W
    # falls, so a band of residual_tol alone gave a false FAIL
    ((0.04031724876301517, 1.9578877508340107, 0.07073930739948414, 0.270928266097243),
     80529864.0265144, False),
    # the same on log W, where W is past the float range at both ends of the
    # rising steps (m = 26)
    ((0.0010741701891225878, 467.6139816905089, 0.016817918149401794, 0.9444698269092634),
     0.002237238814606175, True),
])
def test_w_rise_within_the_steppers_error_is_not_flagged(default_policy, params, x0, w_overflows):
    p = BarrierParams(*params)
    traj = simulate(make_time_barrier_scalar(p, default_policy), x0, p, default_policy)
    assert np.isinf(traj.w_values).any() == w_overflows
    report = check_dissipation(traj, p, default_policy)
    assert report.violations == []
    assert report.w_monotone
    assert report.passed


def test_w_rise_from_the_origin_is_flagged(default_traj, default_params, default_policy):
    # V0 = 0 leaves no relative band (log W rises from -inf, past any band)
    v = np.zeros(default_traj.times.size)
    v[1] = 1e-3
    traj = dataclasses.replace(default_traj, v_values=v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_dissipation(traj, default_params, default_policy)
    assert not report.w_monotone


@pytest.mark.parametrize("x0", [1e-6, 1e-3, 1.0, 1e3])
def test_a_relative_rise_of_w_is_flagged_at_every_scale(x0, default_params, default_policy):
    # x' = -2x/(1-t) + 0.01x gives W = x0*exp(0.01*t): W rises by ~1% from every x0,
    # also where W is far below 1 and a band absolute in W would let the rise through
    p = default_params
    spec = DynamicsSpec(
        dim=1, rhs=lambda x, t: -p.beta * x / (p.tc - t) + 0.01 * x,
        v=lambda x, t: abs(float(x[0])), tc=p.tc,
    )
    traj = simulate(spec, x0, p, default_policy)
    report = check_dissipation(traj, p, default_policy)
    assert not report.w_monotone
    assert not report.passed
