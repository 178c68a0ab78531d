"""Adaptive integration against the closed forms: accuracy, events, clamping."""

import dataclasses
import functools
import itertools
import math
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from timebarrier import (
    DEFAULT_GRID,
    BarrierParams,
    BlowUpError,
    DynamicsSpec,
    NumericPolicy,
    StallError,
    Trajectory,
    TrajectorySample,
    check_dissipation,
    exact_solution_scalar,
    resample,
    settling_bound,
    settling_report,
    simulate,
    validate_spec,
    w_transform_array,
)
from timebarrier import integrate
from timebarrier.core import _Pointwise
from timebarrier.integrate import _checked_rhs, _dense_poly, _larger, _refine_event
from timebarrier.systems import (
    make_time_barrier_componentwise,
    make_time_barrier_scalar,
)

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


def test_record_arrays_read_only(default_traj):
    for values in (default_traj.times, default_traj.states, default_traj.v_values,
                   default_traj.w_values):
        assert not values.flags.writeable
    with pytest.raises(ValueError):
        default_traj.states[0, 0] = 2.0
    with pytest.raises(ValueError):
        default_traj.times[0] = 1.0


def test_trajectory_is_one_frozen_record(default_traj, default_policy):
    fields = [f.name for f in dataclasses.fields(default_traj)]
    assert len(fields) == 13
    assert "vdot_values" not in fields
    assert [name for name in fields if name.startswith("_")] == ["_dense"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_traj.states = default_traj.states.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        default_traj.terminal_norm = 1.0
    dense = default_traj._dense
    for values in (dense.t0, dense.h, dense.x0, dense.coef, dense.x_init, dense.x_end):
        assert not values.flags.writeable
    assert dense.zero_from == default_traj.event_time
    # a run that never converges has no time past which its states are zero:
    # at m = 0.25 the law does not reach zero from x0 = 100
    p = BarrierParams(1.0, 0.5, 1.0, 0.5)
    slow = simulate(make_time_barrier_scalar(p), 100.0, p, default_policy)
    assert (slow.event_time, slow._dense.zero_from) == (None, math.inf)


def test_w_is_computed_from_v_on_first_access(default_traj, default_params):
    assert "w_values" not in vars(default_traj)
    w = default_traj.w_values
    assert default_traj.w_values is w and not w.flags.writeable
    assert np.array_equal(w, w_transform_array(default_traj.v_values, default_traj.times,
                                               default_params))
    # a record with other V values reads its own W, never the W of the record it came from
    v = 0.5 * default_traj.v_values
    replaced = dataclasses.replace(default_traj, v_values=v)
    assert np.array_equal(replaced.w_values,
                          w_transform_array(v, default_traj.times, default_params))
    assert not np.array_equal(replaced.w_values, default_traj.w_values)


def test_a_negative_v_stops_the_run(default_params, default_policy):
    law = make_time_barrier_scalar(default_params, default_policy)
    spec = DynamicsSpec(dim=1, rhs=law.rhs, v=lambda x, t: -abs(float(x[0])))
    with pytest.raises(ValueError, match=r"^negative Lyapunov value -1.0$"):
        simulate(spec, 1.0, default_params, default_policy)


def test_a_record_with_a_negative_v_cannot_be_built(default_traj):
    # the constructor checks its own V (dataclasses.replace goes through it too),
    # so no reader is handed a negative V
    fields = {f.name: getattr(default_traj, f.name) for f in dataclasses.fields(default_traj)}
    fields["v_values"] = -default_traj.v_values
    with pytest.raises(ValueError, match=r"^negative Lyapunov value -1.0$"):
        Trajectory(**fields)


def test_runs_compare_and_hash_by_identity(default_traj, default_params, default_policy):
    again = simulate(default_traj.spec, 1.0, default_params, default_policy)
    assert np.array_equal(again.states, default_traj.states)
    assert (again == default_traj) is False
    assert (default_traj == default_traj) is True
    assert hash(again) != hash(default_traj)
    assert len({again, default_traj, default_traj}) == 2


def test_samples_are_named_tuples_over_the_state_rows(default_params, default_policy):
    assert TrajectorySample._fields == ("t", "x")
    for x0 in (1.0, [1.0, -0.5]):
        law = make_time_barrier_componentwise(default_params, np.size(x0), default_policy)
        traj = simulate(law, x0, default_params, default_policy)
        samples = traj.samples
        assert all(type(s) is TrajectorySample for s in samples)
        sample = samples[3]
        with pytest.raises(AttributeError):
            sample.t = 0.0
        # x is the read-only row of states, not a copy
        assert np.shares_memory(sample.x, traj.states)
        assert np.array_equal(sample.x, traj.states[3])
        assert not sample.x.flags.writeable
        with pytest.raises(TypeError):  # the state row is unhashable, as before
            hash(sample)
    assert traj.samples[0] != traj.samples[1]


def test_samples_view_of_arrays(default_params, default_policy):
    law = make_time_barrier_scalar(default_params, default_policy)
    bare = DynamicsSpec(dim=1, rhs=law.rhs, label="no lyapunov", tc=law.tc)
    for spec in (law, bare):
        traj = simulate(spec, 1.0, default_params, default_policy)
        assert "samples" not in vars(traj)  # built on first access only
        samples = traj.samples
        assert traj.samples is samples
        assert [s.t for s in samples] == traj.times.tolist()
        assert np.array_equal([s.x for s in samples], traj.states)
        # a spec with no V has one representation of it: NaN V and W
        for values in (traj.v_values, traj.w_values):
            assert np.isnan(values).all() if spec is bare else np.isfinite(values).all()


def test_replaced_v_is_evaluated(default_params, default_policy, monkeypatch):
    spec = make_time_barrier_scalar(default_params, default_policy)
    calls = []

    def doubled(x, t):
        calls.append(t)
        return 2.0 * abs(float(x[0]))

    def no_decay(x, t):
        return 0.0

    traj = simulate(dataclasses.replace(spec, v=doubled), 1.0, default_params, default_policy)
    assert len(calls) == traj.times.size
    assert np.array_equal(traj.v_values, 2.0 * np.abs(traj.states[:, 0]))
    traj = simulate(dataclasses.replace(spec, vdot=no_decay), 1.0, default_params, default_policy)
    report = check_dissipation(traj, default_params, default_policy)
    assert report.checked_samples > 0
    assert [v.lhs for v in report.violations] == [0.0] * report.checked_samples
    # a label change keeps the block forms: one call each, the same bits;
    # simulate evaluates V, and the certificate dV/dt at its checked samples
    relabeled = dataclasses.replace(spec, label="relabeled")
    blocks = []
    for name in ("v", "vdot"):
        block = getattr(spec, name).block
        monkeypatch.setattr(getattr(spec, name), "block",
                            lambda s, t, name=name, block=block: blocks.append((name, t.size))
                            or block(s, t))
    base = simulate(spec, 1.0, default_params, default_policy)
    again = simulate(relabeled, 1.0, default_params, default_policy)
    assert blocks == [("v", base.times.size), ("v", again.times.size)]
    assert again.v_values.tobytes() == base.v_values.tobytes()
    blocks.clear()
    reports = [check_dissipation(traj, default_params, default_policy) for traj in (base, again)]
    assert blocks == [("vdot", report.checked_samples) for report in reports]
    assert reports[0] == reports[1]


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
    # no exact-zero crossing exists, so the eps-crossing is not convergence
    assert traj.converged_at is None and traj.event_time is not None


def test_a_crossing_where_the_origin_is_not_an_equilibrium_is_not_convergence(default_params):
    # the biased law's field at the origin is its bias: the clamp to zero past
    # the crossing is not the flow, so the run reports no settling instant
    biased = simulate(make_time_barrier_scalar(default_params, bias=0.1), 1.0, default_params)
    assert biased.event_time is not None and biased.converged_at is None
    report = settling_report(biased)
    assert report.converged_at is None and report.deadline_pass is False
    # the unbiased law's field at the origin is -0.0, which is zero: its instant keeps its bits
    plain = simulate(make_time_barrier_scalar(default_params), 1.0, default_params)
    assert plain.converged_at == 0.8646647164774124


@pytest.mark.parametrize(
    "at_origin", [lambda x: x + 1e-300, lambda x: x / x], ids=["tiny", "nan"]
)
def test_an_origin_field_that_is_not_exactly_zero_is_not_convergence(default_params, at_origin):
    # rhs(0, t) is read once, at the event, by validate_spec's test: NaN is not
    # zero, and the 0/0 that gives it there raises no warning
    law = make_time_barrier_componentwise(default_params, 2)

    def rhs(x, t):
        return law.rhs(x, t) if np.any(x != 0.0) else at_origin(x)

    traj = simulate(DynamicsSpec(dim=2, rhs=rhs), [1.0, -0.5], default_params)
    assert traj.event_time is not None and traj.converged_at is None


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
    # [x0, x0] or [x0, x0, x0] steps each coordinate through the same trial
    # body, and the error norm of equal errors is that error, so each
    # coordinate takes the bits of the scalar run
    scalar = make_time_barrier_scalar(p, default_policy)
    for dim in (2, 3):
        vector = make_time_barrier_componentwise(p, dim, default_policy)
        for k in range(-6, 7, 3):
            x0 = (-1.0) ** k * 10.0**k
            a = simulate(scalar, x0, p, default_policy)
            b = simulate(vector, [x0] * dim, p, default_policy)
            assert (a.step_count, a.rejected_steps) == (b.step_count, b.rejected_steps)
            assert a.converged_at == b.converged_at
            assert a._dense.t0.tobytes() == b._dense.t0.tobytes()
            assert a._dense.h.tobytes() == b._dense.h.tobytes()
            for column in b._dense.x0.T:
                assert column.tobytes() == a._dense.x0[:, 0].tobytes()


def _through_the_array_contract(spec):
    """The same spec with its rhs behind a plain wrapper, so the stepper
    calls it as an array function on every stage."""
    return DynamicsSpec(
        dim=1, rhs=lambda x, t: spec.rhs(x, t), label="wrapper", v=spec.v,
        vdot=spec.vdot, tc=spec.tc,
    )


def test_scalar_kernel_steps_like_the_array_contract(default_params):
    rng = np.random.default_rng(10)
    policy = NumericPolicy()
    cases = [(random_admissible(rng), 0.0) for _ in range(40)]
    cases.append((BarrierParams(1.0, 2.0, 1.0, 0.5), 0.1))  # the bias demo

    for p, bias in cases:
        spec = make_time_barrier_scalar(p, policy, bias=bias)
        assert isinstance(spec.rhs, _Pointwise)
        x0 = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 6)
        _assert_same_run(
            simulate(spec, x0, p, policy),
            simulate(_through_the_array_contract(spec), x0, p, policy),
        )
    for x0 in ([1.0, 0.9], [1.0, -0.1, 1e-3], [1e3, 1e-3], [-1.0, 0.0, 1e-9]):
        # a functools.wraps wrapper, which the bench tracer builds around
        # every rhs, steps on arrays over the coordinates, the law's own rhs
        # on floats per coordinate, and both probe the same values for the
        # per-coordinate hold. The last two coordinates of [-1, 0, 1e-9]
        # are held from the first accepted step.
        law = make_time_barrier_componentwise(default_params, len(x0), policy)
        wrapped = functools.wraps(law.rhs)(lambda x, t: law.rhs(x, t))
        _assert_same_run(
            simulate(law, x0, default_params, policy),
            simulate(dataclasses.replace(law, rhs=wrapped), x0, default_params, policy),
        )


def _assert_same_run(a, b):
    assert (a.step_count, a.rejected_steps) == (b.step_count, b.rejected_steps)
    assert a.converged_at == b.converged_at
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.tobytes() == b.states.tobytes()
    assert a._dense.coef.tobytes() == b._dense.coef.tobytes()


def test_wraps_wrapper_of_the_kernel_is_called_on_every_stage(default_params, default_policy):
    law = make_time_barrier_scalar(default_params, default_policy)
    calls = []

    @functools.wraps(law.rhs)
    def counted(x, t):
        calls.append(t)
        return law.rhs(x, t)

    spec = DynamicsSpec(dim=1, rhs=counted, label="counted", v=law.v, tc=law.tc)
    traj = simulate(spec, 1.0, default_params, default_policy)
    # two calls to start (the derivative at t = 0 and the initial step
    # proposal), six per trial step, accepted or rejected, and one at the
    # origin at the event, which finds it an equilibrium
    assert len(calls) == 2 + 6 * (traj.step_count + traj.rejected_steps) + 1
    assert calls[-1] == traj.event_time and traj.converged_at is not None
    plain = simulate(law, 1.0, default_params, default_policy)
    assert traj.states.tobytes() == plain.states.tobytes()


def test_kernel_blow_up_matches_the_array_path(default_params, default_policy):
    def kernel(x, t):
        # finite for the start at t = 0 and its probe step, inf in a trial stage
        return -x if t < 0.1 else float("inf")

    pointwise = DynamicsSpec(dim=1, rhs=_Pointwise(kernel), label="kernel")
    array = DynamicsSpec(
        dim=1, rhs=lambda x, t: np.array([kernel(x[0].item(), t)]), label="array"
    )
    errors = []
    for spec in (pointwise, array):
        with pytest.raises(BlowUpError) as info:
            simulate(spec, 1.0, default_params, default_policy)
        errors.append(info.value)
    a, b = errors
    assert str(a) == str(b) and "non-finite derivative" in str(a)
    assert a.t == b.t and a.t >= 0.1
    assert a.x.tobytes() == b.x.tobytes() and a.x.shape == (1,)


def test_vector_kernel_blow_up_matches_the_array_path(default_params, default_policy):
    def kernel(x, t):
        # finite for the start at t = 0 and its probe step; then inf for the
        # small coordinate from t = 0.09 and for the large one from t = 0.1.
        # One trial has stages at t = 0.0995 and 0.1019, so the large
        # coordinate alone, stepped first, would fail at the later stage
        late = 0.09 if abs(x) < 0.7 else 0.1
        return -x if t < late else float("inf")

    errors = []
    for rhs in (_Pointwise(kernel), lambda x, t: np.array([kernel(xi, t) for xi in x.tolist()])):
        with pytest.raises(BlowUpError) as info:
            simulate(DynamicsSpec(dim=2, rhs=rhs), [1.0, 0.5], default_params, default_policy)
        errors.append(info.value)
    a, b = errors
    assert str(a) == str(b) and "non-finite derivative" in str(a)
    assert a.t == b.t and 0.09 <= a.t < 0.1
    assert a.x.tobytes() == b.x.tobytes() and a.x.shape == (2,)


@pytest.mark.parametrize("x0", [[1.0], [1.0, 0.5]])
@pytest.mark.parametrize("fn", [math.tanh, math.sin])
def test_non_finite_zero_weight_stage_matches_the_array_path(
    fn, x0, default_params, default_policy
):
    # k2 has a zero weight in the solution and in the error estimate, so a
    # non-finite k2 alone leaves both finite: tanh(+-inf) = +-1 keeps the
    # later stages finite, and sin(+-inf) raises ValueError in the next one.
    # Either way the run must raise the array path's blow-up at k2.
    times = []

    def logged(x, t):
        times.append(t)
        return np.array([-fn(xi) for xi in x.tolist()])

    simulate(DynamicsSpec(dim=len(x0), rhs=logged), x0, default_params, default_policy)
    # two calls to start, then six per trial: the stage-2 time of the 11th trial
    tau = times[2 + 6 * 10]

    def kernel(x, t):
        return math.inf if t == tau else -fn(x)

    def array(x, t):
        return np.array([kernel(xi, t) for xi in x.tolist()])

    errors = []
    for rhs in (_Pointwise(kernel), array):
        with pytest.raises(BlowUpError) as info:
            simulate(DynamicsSpec(dim=len(x0), rhs=rhs), x0, default_params, default_policy)
        errors.append(info.value)
    a, b = errors
    assert str(a) == str(b) and "non-finite derivative" in str(a)
    assert a.t == b.t == tau
    assert a.x.tobytes() == b.x.tobytes() and a.x.shape == (len(x0),)


@pytest.mark.parametrize("x0", [[1.0, 0.5, 0.25], [0.25, 1.0, 0.5]])
def test_non_finite_k2_of_one_coordinate_matches_the_array_path(
    x0, default_params, default_policy
):
    # as above, but k2 is non-finite for the small coordinate alone, first
    # or last: every coordinate's k2 must reach the fast trial's check
    calls = []

    def logged(x, t):
        calls.append((t, x.copy()))
        return np.array([-math.tanh(xi) for xi in x.tolist()])

    simulate(DynamicsSpec(dim=3, rhs=logged), x0, default_params, default_policy)
    # two calls to start, then six per trial: the stage-2 time of the 11th trial
    tau, x_tau = calls[2 + 6 * 10]
    assert np.count_nonzero(np.abs(x_tau) < 0.3) == 1

    def kernel(x, t):
        return math.inf if t == tau and abs(x) < 0.3 else -math.tanh(x)

    def array(x, t):
        return np.array([kernel(xi, t) for xi in x.tolist()])

    errors = []
    for rhs in (_Pointwise(kernel), array):
        with pytest.raises(BlowUpError) as info:
            simulate(DynamicsSpec(dim=3, rhs=rhs), x0, default_params, default_policy)
        errors.append(info.value)
    a, b = errors
    assert str(a) == str(b) and "non-finite derivative" in str(a)
    assert a.t == b.t == tau
    assert a.x.tobytes() == b.x.tobytes() and a.x.shape == (3,)


@pytest.mark.parametrize("dim", [1, 2])
def test_non_finite_state_after_finite_stages_is_a_blow_up(dim, default_params):
    # every stage is 1.7e308, but the first step's new state overflows to
    # inf; its scaled error, a finite error over an inf scale, would read 0
    def array(x, t):
        return np.full(x.shape, 1.7e308)

    errors = []
    for rhs in (_Pointwise(lambda x, t: 1.7e308), array):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError) as info:
                simulate(DynamicsSpec(dim=dim, rhs=rhs), [1.0] * dim, default_params)
        errors.append(info.value)
    a, b = errors
    assert str(a) == str(b) and "non-finite state" in str(a)
    assert a.t == b.t == 0.0
    assert a.x.tobytes() == b.x.tobytes() == np.ones(dim).tobytes()


def _stage_time(x0, params, policy):
    """The time of stage 3 of the 11th trial of a run of x' = -x."""
    times = []

    def logged(x, t):
        times.append(t)
        return -x

    simulate(DynamicsSpec(dim=len(x0), rhs=logged), x0, params, policy)
    # two calls to start, then six per trial
    return times, times[2 + 6 * 10 + 1]


@pytest.mark.parametrize("x0", [[1.0], [1.0, 0.5]])
def test_kernel_error_on_finite_input_matches_the_array_path(
    x0, default_params, default_policy
):
    _, tau = _stage_time(x0, default_params, default_policy)

    def kernel(x, t):
        if t == tau:
            raise ValueError(f"kernel refuses x={x!r} at t={t!r}")
        return -x

    def array(x, t):
        return np.array([kernel(xi, t) for xi in x.tolist()])

    errors = []
    for rhs in (_Pointwise(kernel), array):
        with pytest.raises(ValueError) as info:
            simulate(DynamicsSpec(dim=len(x0), rhs=rhs), x0, default_params, default_policy)
        errors.append(info.value)
    a, b = errors
    assert type(a) is type(b) is ValueError
    assert str(a) == str(b) and repr(tau) in str(a)


@pytest.mark.parametrize("x0", [[1.0], [1.0, 0.5]])
@pytest.mark.parametrize("failure", ["raise", "inf"])
def test_failing_wrapper_is_called_at_most_twice_per_stage(
    x0, failure, default_params, default_policy
):
    # a failing trial calls each stage at most twice: once in the unchecked
    # trial and once in its checked re-run, whose call at tau is the last
    times, tau = _stage_time(x0, default_params, default_policy)
    rhs = _Pointwise(lambda x, t: -x)
    calls = []

    @functools.wraps(rhs)
    def wrapper(x, t):
        calls.append(t)
        if t == tau:
            if failure == "raise":
                raise ValueError("wrapper refuses")
            return np.full_like(x, math.inf)
        return rhs(x, t)

    error = ValueError if failure == "raise" else BlowUpError
    with pytest.raises(error):
        simulate(DynamicsSpec(dim=len(x0), rhs=wrapper), x0, default_params, default_policy)
    # tau is stage 3, the second call of its trial
    start = times.index(tau) - 1
    stages = times[start:start + 6]
    assert calls[:start] == times[:start]
    failing = calls[start:]
    assert failing[-1] == tau
    assert set(failing) <= set(stages)
    assert all(failing.count(s) <= 2 for s in stages)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "convert", [np.ndarray.tolist, lambda f: f.astype(np.float32)], ids=["list", "float32"]
)
def test_unchecked_trial_coerces_the_rhs_value(convert, dim, default_params, default_policy):
    # a passing trial checks no stage on its own, yet each value is still
    # coerced to float64 of the state's shape, as a hand-made coercion does,
    # and so is the certificate's per-row rhs route when vdot is withheld;
    # the hold probes the rhs itself, so neither run chatters
    law = make_time_barrier_componentwise(default_params, dim, default_policy)

    @functools.wraps(law.rhs)
    def raw(x, t):
        return convert(law.rhs(x, t))

    @functools.wraps(law.rhs)
    def by_hand(x, t):
        return np.asarray(raw(x, t), dtype=float)

    x0 = [1.0, -0.5][:dim]
    runs = [
        simulate(dataclasses.replace(law, rhs=rhs, vdot=None), x0, default_params, default_policy)
        for rhs in (raw, by_hand)
    ]
    _assert_same_run(*runs)
    assert runs[0].converged_at is not None
    # a slack below the difference's own error, so that both reports carry violations
    tight = dataclasses.replace(default_policy, residual_tol=1e-12)
    reports = [check_dissipation(run, default_params, tight) for run in runs]
    assert reports[0].violations
    assert repr(reports[0].violations) == repr(reports[1].violations)
    assert repr(reports[0].max_residual) == repr(reports[1].max_residual)


def test_vector_kernel_stall_matches_the_array_path(default_params, default_policy):
    def kernel(x, t):
        # bounded but violently oscillatory, as in test_stall_error_carries_state
        return 1e12 if math.sin(x * 1e8 + t * 1e9) > 0 else -1e12

    errors = []
    for rhs in (
        _Pointwise(kernel),
        lambda x, t: np.array([kernel(xi, t) for xi in x.tolist()]),
    ):
        with pytest.raises(StallError) as info:
            simulate(DynamicsSpec(dim=2, rhs=rhs), [1.0, -0.5], default_params, default_policy)
        errors.append(info.value)
    a, b = errors
    assert str(a) == str(b) and "stall" in str(a)
    assert a.t == b.t
    assert a.x.tobytes() == b.x.tobytes() and a.x.shape == (2,)


def test_vector_kernel_sees_only_floats(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 3, default_policy)
    array_calls = []

    def kernel(x, t):
        assert type(x) is float and type(t) is float
        return law.rhs.kernel(x, t)

    class Observed(_Pointwise):
        def __call__(self, x, t):
            array_calls.append(t)
            return super().__call__(x, t)

    spec = dataclasses.replace(law, rhs=Observed(kernel))
    traj = simulate(spec, [1.0, -0.1, 1e-3], default_params, default_policy)
    # only the start calls the rhs as an array function (the derivative at
    # t = 0 and the initial step proposal); every stage calls the kernel
    assert len(array_calls) == 2 and array_calls[0] == 0.0
    plain = simulate(law, [1.0, -0.1, 1e-3], default_params, default_policy)
    _assert_same_run(traj, plain)


def test_undeclared_pointwise_steps_like_its_lambda(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    # the law's kernel in a new _Pointwise, stepped per coordinate on floats
    pointwise = _Pointwise(law.rhs.kernel)
    per_coordinate = simulate(
        dataclasses.replace(law, rhs=pointwise), [1.0, 0.99], default_params, default_policy
    )
    # the lambda steps on arrays over the coordinates; both hold by the same probe
    wrapped = simulate(
        dataclasses.replace(law, rhs=lambda x, t: pointwise(x, t)), [1.0, 0.99],
        default_params, default_policy,
    )
    _assert_same_run(per_coordinate, wrapped)
    _assert_same_run(per_coordinate, simulate(law, [1.0, 0.99], default_params, default_policy))
    assert (per_coordinate.step_count, per_coordinate.rejected_steps) == (179, 7)


def test_vector_runs_work_is_pinned(default_params, default_policy):
    accepted = rejected = 0
    for dim in (2, 3):
        law = make_time_barrier_componentwise(default_params, dim, default_policy)
        for k in range(-4, 5, 2):
            x0 = [10.0**k, -0.5 * 10.0**k, 10.0 ** (k - 2)][:dim]
            traj = simulate(law, x0, default_params, default_policy)
            assert traj.converged_at is not None
            accepted += traj.step_count
            rejected += traj.rejected_steps
    # the work of these 10 componentwise runs is pinned, so that a change in
    # speed can be told apart from a change in work
    assert (accepted, rejected) == (2323, 105)


def _bits(value):
    return struct.pack("<d", value)


def test_larger_has_the_bits_of_max():
    # the float trial's stand-in for the builtin max(a, b): the same value,
    # the first of two equal values (0.0 and -0.0) and the same NaN of two
    values = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf, math.nan, -math.nan]
    assert _bits(math.nan) != _bits(-math.nan)
    for a, b in itertools.product(values, repeat=2):
        assert _bits(_larger(a, b)) == _bits(max(a, b)), (a, b)


def _refine_event_with_max(x0, h, coef, eps_conv):
    """The bisection of ``integrate._refine_event`` with the norm written as
    the builtin max over the coordinates."""
    rows = list(zip(x0.tolist(), coef.tolist()))

    def norm(theta):
        return max(abs(_dense_poly(xi, h, ci, theta)) for xi, ci in rows)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if norm(mid) <= eps_conv:
            hi = mid
        else:
            lo = mid
    return hi, norm(hi)


def test_refine_event_matches_the_max_norm(default_params, default_policy):
    eps_conv = default_policy.eps_conv
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    wrapped = dataclasses.replace(law, rhs=lambda x, t: law.rhs(x, t))
    blocks = []
    # the last step of held runs and of unheld runs, whichever coordinate is larger
    for spec, x0 in [(law, [1.0, 0.9]), (law, [0.9, -1.0]), (law, [1e3, 1e-3]),
                     (wrapped, [1.0, 0.9]), (wrapped, [0.9, -1.0])]:
        traj = simulate(spec, x0, default_params, default_policy)
        blocks.append((traj._dense.x0[-1], traj._dense.h[-1].item(), traj._dense.coef[-1]))
    # either coordinate not a number, first or second
    coef = np.array([[-1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    blocks += [(np.array([1.0, math.nan]), 1.0, coef), (np.array([math.nan, 1.0]), 1.0, coef)]
    for x0, h, coef in blocks:
        theta, norm = _refine_event(x0, h, coef, eps_conv)
        want_theta, want_norm = _refine_event_with_max(x0, h, coef, eps_conv)
        assert _bits(theta) == _bits(want_theta)
        assert _bits(norm) == _bits(want_norm)


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


@pytest.mark.parametrize(
    "x0, scalar_x0",
    [([1e3, 1e-3], 1e3), ([1.0, 0.1], 1.0)],
    ids=["1e3,1e-3", "1,0.1"],
)
def test_decoupled_coordinates_settle_on_their_own(x0, scalar_x0, default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    # a user spec around the law's rhs
    spec = DynamicsSpec(dim=2, rhs=law.rhs, label="user spec", v=law.v, tc=law.tc)
    traj = simulate(spec, x0, default_params, default_policy)
    scalar = simulate(
        make_time_barrier_scalar(default_params, default_policy), scalar_x0,
        default_params, default_policy,
    )
    assert traj.step_count <= 2 * scalar.step_count
    for i, xi in enumerate(x0):
        exact = np.array([exact_solution_scalar(default_params, xi, t) for t in traj.times])
        dev = np.max(np.abs(traj.states[:, i] - exact))
        assert dev <= max(1e-6 * abs(xi), 10 * default_policy.eps_conv)


def test_undeclared_rhs_holds_like_the_law(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    wrapped = DynamicsSpec(dim=2, rhs=lambda x, t: law.rhs(x, t), label="wrapper", tc=law.tc)
    for x0, counts in (([1.0, 0.99], (179, 7)), ([1.0, 0.1], (256, 12))):
        traj = simulate(wrapped, x0, default_params, default_policy)
        # the hold is worked out from the rhs, so the lambda takes the law's steps
        assert (traj.step_count, traj.rejected_steps) == counts
        _assert_same_run(traj, simulate(law, x0, default_params, default_policy))


def test_non_finite_probe_holds_nothing(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    eps = default_policy.eps_conv

    def kernel(x, t):
        # not finite only at the probe's two states, x_i = +-eps_conv
        return math.nan if abs(x) == eps else law.rhs.kernel(x, t)

    runs = [
        simulate(DynamicsSpec(dim=2, rhs=rhs), [1.0, 0.99], default_params, default_policy)
        for rhs in (_Pointwise(kernel), lambda x, t: np.array([kernel(xi, t) for xi in x]))
    ]
    _assert_same_run(*runs)
    # the work of the loop without the per-coordinate hold; the run still converges
    assert (runs[0].step_count, runs[0].rejected_steps) == (450, 13)
    assert runs[0].converged_at is not None


def test_coupled_wraps_wrapper_steps_like_its_lambda(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)

    @functools.wraps(law.rhs)
    def coupled(x, t):
        return law.rhs(x, t) + 0.5 * x[::-1]

    spec = DynamicsSpec(dim=2, rhs=coupled, label="coupled", tc=law.tc)
    traj = simulate(spec, [1.0, 0.1], default_params, default_policy)
    undeclared = DynamicsSpec(dim=2, rhs=lambda x, t: coupled(x, t), label="lambda", tc=law.tc)
    _assert_same_run(traj, simulate(undeclared, [1.0, 0.1], default_params, default_policy))
    assert traj.converged_at is not None
    # the second coordinate is held only where the first one's push, 0.5 * x_0,
    # is weaker than the law's pull toward zero at x_1 = +-eps_conv
    p, eps = default_params, default_policy.eps_conv
    starts, x = traj._dense.t0, traj._dense.x0
    held = x[:, 1] == 0.0
    pull = p.q * eps**p.alpha + p.beta * eps / (p.tc - starts[held])
    assert held.any() and (0.5 * np.abs(x[held, 0]) <= pull).all()


def test_held_coordinate_stays_zero_on_both_routes(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)

    def kernel(x, t):
        # off zero at x = 0, but by less than the band's pull toward it
        return law.rhs.kernel(x, t) + 1e-6 * math.sin(50.0 * t)

    runs = [
        simulate(DynamicsSpec(dim=2, rhs=rhs), [1.0, 0.01], default_params, default_policy)
        for rhs in (_Pointwise(kernel), lambda x, t: np.array([kernel(xi, t) for xi in x.tolist()]))
    ]
    # the array route zeroes a held coordinate's stages, as the kernel's skips them
    _assert_same_run(*runs)
    assert (runs[0].step_count, runs[0].rejected_steps) == (246, 11)


def test_held_coordinate_is_released_when_its_field_turns(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)

    def rhs(x, t):
        # a push on the second coordinate during [0.3, 0.5)
        return law.rhs(x, t) + np.array([0.0, 0.5 if 0.3 <= t < 0.5 else 0.0])

    traj = simulate(DynamicsSpec(dim=2, rhs=rhs), [1.0, 0.01], default_params, default_policy)
    # the second coordinate at the start of each accepted step: held at zero
    # from its crossing near t = 0.18 until the push, then released
    starts, second = traj._dense.t0, traj._dense.x0[:, 1]
    held = (0.2 < starts) & (starts < 0.3)
    assert held.any() and (second[held] == 0.0).all()
    assert (second[(0.35 < starts) & (starts < 0.5)] > default_policy.eps_conv).all()
    assert traj.converged_at is not None


def test_stalling_undeclared_field_converges():
    # a dim-3 case that stalled after 139-184 s without the hold's probe
    p = BarrierParams(2.3561094871914, 2.639366374016299, 0.33000249064999365, 0.28185482012872654)
    x0 = [1.0475717863872476, 0.41687160372402976, 0.016577422898493142]
    law = make_time_barrier_componentwise(p, 3)
    traj = simulate(DynamicsSpec(dim=3, rhs=lambda x, t: law.rhs(x, t)), x0, p)
    assert traj.converged_at is not None
    assert traj.step_count <= 3 * simulate(law, x0, p).step_count


@pytest.mark.parametrize(
    "x0, counts", [([1.0, 0.1], (271, 15)), ([1.0, -0.5], (341, 34))], ids=["1,0.1", "1,-0.5"]
)
def test_biased_law_is_never_held(x0, counts, default_params, default_policy):
    # the bias points the field away from zero on one side of every band
    law = make_time_barrier_componentwise(default_params, 2, default_policy, _bias=0.1)
    traj = simulate(law, x0, default_params, default_policy)
    assert (traj.step_count, traj.rejected_steps) == counts
    wrapped = dataclasses.replace(law, rhs=lambda x, t: law.rhs(x, t))
    _assert_same_run(traj, simulate(wrapped, x0, default_params, default_policy))


def test_impossible_tolerances_fail_by_name(default_params):
    policy = NumericPolicy(rel_tol=1e-300, abs_tol=1e-300)
    spec = make_time_barrier_scalar(default_params, policy)
    with pytest.raises(StallError, match="rel_tol=1e-300"):
        simulate(spec, 1.0, default_params, policy)


def test_step_budget_exhausted_fails_by_name(default_params, default_policy, monkeypatch):
    monkeypatch.setattr(integrate, "_MAX_STEPS", 50)
    spec = make_time_barrier_scalar(default_params, default_policy)
    with pytest.raises(StallError, match=r"^step budget exhausted at t=0\.5559819823686104 "):
        simulate(spec, 1.0, default_params, default_policy)


def test_initial_step_probe_stays_within_the_clamp(default_policy):
    # x0 / f0 = 1e6 / -1e-3 proposes h0 = 0.01 * 1e9 = 1e7; unclamped, the
    # probe step would evaluate the rhs at t = 1e7, past the deadline
    p = BarrierParams(1.0, 0.0, 1e-6, 0.5)
    traj = simulate(make_time_barrier_scalar(p, default_policy), 1e6, p, default_policy)
    assert (traj.step_count, traj.rejected_steps) == (31, 0)


def test_run_without_a_crossing_ends_on_the_steppers_end_state(default_params):
    # the state at t_end is the stepper's own; the last step's quartic at
    # theta = 1 reads 0.47988677997681584
    policy = NumericPolicy(delta_end=0.5)
    traj = simulate(make_time_barrier_scalar(default_params, policy), 3.0, default_params, policy)
    assert traj.event_time is None
    assert traj.states[-1, 0] == 0.4798867799768159


def test_zero_field_takes_the_flat_derivative_initial_step(default_policy):
    # beta = q = 0: f is 0 everywhere, so the initial step comes from the
    # branch for a flat derivative and the state never moves
    p = BarrierParams(1.0, 0.0, 0.0, 0.5)
    traj = simulate(make_time_barrier_scalar(p, default_policy), 1.0, p, default_policy)
    assert (traj.step_count, traj.rejected_steps) == (36, 0)
    assert traj.event_time is None and traj.converged_at is None
    assert np.all(traj.states == 1.0)


@pytest.mark.parametrize("one_per_call", [False, True], ids=["batch", "one-per-call"])
@pytest.mark.parametrize(
    "x0",
    [[1.0], [1.0, 0.0], [1.0, -0.1]],
    ids=["dim1", "dim2", "dim2-exact-sign"],
)
def test_resample_reproduces_nodes(x0, one_per_call, default_params):
    policy = NumericPolicy()
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
    # the range check reads every time, not only the ends
    with pytest.raises(ValueError):
        resample(default_traj, [0.5, -0.1, 0.4])
    # times in any order: reversed times give the reversed states
    times = [0.1, 0.4, 0.5]
    assert np.array_equal(resample(default_traj, times[::-1]), resample(default_traj, times)[::-1])
    # the range check rejects NaN too, with the same message
    for times in ([math.nan], [0.1, math.nan], [0.1, math.nan, 0.2]):
        with pytest.raises(ValueError, match="finite"):
            resample(default_traj, times)


def test_resample_of_no_times_is_an_empty_block(default_params, default_policy):
    for x0 in (1.0, [1.0, -0.5]):
        law = make_time_barrier_componentwise(default_params, np.size(x0), default_policy)
        traj = simulate(law, x0, default_params, default_policy)
        assert resample(traj, []).shape == (0, law.dim)


def test_settling_report(default_traj, default_params):
    report = settling_report(default_traj, default_params)
    assert report.deadline_pass
    assert report.reaches_zero
    assert report.tau_bound == pytest.approx(TAU_DEFAULT, abs=1e-15)
    assert abs(report.converged_at - report.tau_bound) <= 1e-4


def test_settling_report_without_v_reads_the_initial_max_norm(default_params, default_policy):
    law = make_time_barrier_scalar(default_params, default_policy)
    traj = simulate(dataclasses.replace(law, v=None, vdot=None), -3.0, default_params, default_policy)
    assert np.isnan(traj.v_values).all()
    assert settling_report(traj).tau_bound == settling_bound(default_params, 3.0).tau_bound


def test_settling_report_reads_v_at_the_initial_state(default_params, default_policy):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    euclidean = dataclasses.replace(law, v=lambda x, t: math.hypot(*x), vdot=None)
    traj = simulate(euclidean, [3.0, 4.0], default_params, default_policy)
    assert settling_report(traj).tau_bound == settling_bound(default_params, 5.0).tau_bound


def test_spec_domain_ending_before_the_deadline_is_rejected(default_params, default_policy):
    law = make_time_barrier_scalar(default_params, default_policy)
    with pytest.raises(ValueError, match="spec domain ends at 0.5, before the deadline 1.0"):
        simulate(dataclasses.replace(law, tc=0.5), 1.0, default_params, default_policy)


@pytest.mark.parametrize(
    "value, expected",
    [([-1.0, 2.0], [-1.0, 2.0]), (np.array([-1, 2]), [-1.0, 2.0]),
     (np.array([True, False]), [1.0, 0.0])],
    ids=["list", "int-array", "bool-array"],
)
def test_checked_rhs_coerces_the_rhs_value_to_float64(value, expected):
    spec = DynamicsSpec(dim=2, rhs=lambda x, t: value, label="coerced")
    f = _checked_rhs(spec, np.array([1.0, -2.0]), 0.0)
    assert f.dtype == np.float64
    assert f.tolist() == expected


def test_rhs_value_of_the_wrong_shape_is_rejected(default_params, default_policy):
    spec = DynamicsSpec(dim=2, rhs=lambda x, t: np.zeros(3), label="wide")
    with pytest.raises(ValueError, match=r"rhs returned shape \(3,\), expected \(2,\) \(wide\)"):
        simulate(spec, [1.0, 0.9], default_params, default_policy)


@pytest.mark.parametrize(
    "spec, x0, text",
    [
        # no label, no parenthesis
        (DynamicsSpec(dim=2, rhs=lambda x, t: np.zeros(3)), [1.0, 0.9],
         r"^rhs returned shape \(3,\), expected \(2,\)$"),
        # one array per state is no V: named before a (n, 1) V or a (n, n) W is recorded
        (DynamicsSpec(dim=1, rhs=lambda x, t: -x, label="abs", v=lambda x, t: np.abs(x)), 1.0,
         r"^v returned shape \(1,\), expected \(\) \(abs\)$"),
        # a V whose shape varies from state to state is named at its first odd state
        (DynamicsSpec(dim=1, rhs=lambda x, t: -x, label="abs",
                      v=lambda x, t: np.abs(x) if x[0] > 0.5 else abs(x[0])), 1.0,
         r"^v returned shape \(1,\), expected \(\) \(abs\)$"),
        (DynamicsSpec(dim=1, rhs=lambda x, t: -x, label="abs",
                      v=lambda x, t: abs(x[0]) if x[0] > 0.5 else np.abs(x)), 1.0,
         r"^v returned shape \(1,\), expected \(\) \(abs\)$"),
    ],
    ids=["unlabelled-rhs", "array-v", "array-then-float-v", "float-then-array-v"],
)
def test_a_value_of_the_wrong_shape_is_named(spec, x0, text, default_params, default_policy):
    with pytest.raises(ValueError, match=text):
        simulate(spec, x0, default_params, default_policy)


def test_a_v_that_is_not_a_number_is_named(default_params, default_policy):
    # numpy would read None as NaN
    spec = DynamicsSpec(dim=1, rhs=lambda x, t: -x, label="none", v=lambda x, t: None)
    with pytest.raises(ValueError, match=r"^v returned None, which is not real-valued \(none\)$"):
        simulate(spec, 1.0, default_params, default_policy)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "bad, start",
    [(None, 0.0), ("0.0", 0.0), (0j, 0.0), (Fraction(0), 0.0), (None, 0.5)],
    ids=["None", "str", "complex", "Fraction", "None-from-half"],
)
def test_an_rhs_value_that_is_not_real_is_named_by_every_reader(
    bad, start, dim, default_params, default_policy
):
    # numpy would read None as NaN, parse a string, drop an imaginary part (with a
    # ComplexWarning) and convert a Fraction; the stepper (the float adapter at dim 1,
    # arrays at dim 2), the certificate's rhs rows and validate_spec all read the value
    # by _evaluate's rule. From t = 0.5 on, the trial's checked re-run names it.
    law = make_time_barrier_componentwise(default_params, dim, default_policy)
    value = [bad] * dim
    spec = dataclasses.replace(
        law, rhs=lambda x, t: value if t >= start else law.rhs(x, t), vdot=None, label="odd"
    )
    x0 = [1.0, -0.5][:dim]
    text = f"^rhs returned {re.escape(repr(value))}, which is not real-valued \\(odd\\)$"
    run = simulate(law, x0, default_params, default_policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (
            lambda: simulate(spec, x0, default_params, default_policy),
            lambda: check_dissipation(dataclasses.replace(run, spec=spec), default_params),
            lambda: validate_spec(spec, default_params.tc),
        ):
            with pytest.raises(ValueError, match=text):
                read()


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
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    with pytest.raises(ValueError, match=r"^x0 shape \(3,\) does not match dim=2$"):
        simulate(law, [1.0, 2.0, 3.0], default_params, default_policy)


def test_simulate_names_an_x0_past_the_float_range(default_params):
    # an int past the float range is not finite: the check's ValueError, not OverflowError
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate(make_time_barrier_scalar(default_params), 10**400, default_params)
    law = make_time_barrier_componentwise(default_params, 2)
    with pytest.raises(ValueError, match="x0 must be finite"):
        simulate(law, [1.0, -(10**400)], default_params)


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
