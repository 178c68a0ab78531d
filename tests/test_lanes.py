"""Lockstep lanes of the sweep: every lane takes the steps of a plain run."""

import dataclasses

import numpy as np
import pytest

from timebarrier import (
    DEFAULT_GRID,
    BarrierParams,
    DynamicsSpec,
    NumericPolicy,
    StallError,
    SweepConfig,
    TimeBarrierError,
    run_sweep,
    simulate,
)
from timebarrier.cli import render_sweep_csv
from timebarrier.integrate import _lane_start, _step_lanes
from timebarrier.sweep import _LANES, SweepResult, _compute_row
from timebarrier.systems import _scalar_law_lanes, make_time_barrier_scalar

RECORD_FIELDS = (
    "times", "states", "v_values", "w_values", "vdot_values",
    "_seg_t0", "_seg_h", "_seg_x0", "_seg_coef", "_x_final",
)


def lane_runs(cells, policy, width=_LANES):
    """Cell index -> (lane trajectory or None, started as a lane).

    A cell whose lane raised or stalled maps to (None, True); a cell that
    takes no step or fails before it maps to (None, False).
    """
    out = {}
    starts = []
    for index, (p, x0) in enumerate(cells):
        spec = make_time_barrier_scalar(p, policy)
        try:
            column = _lane_start(spec, x0, p, policy, (p.tc, p.beta, p.q, p.alpha))
        except TimeBarrierError:
            column = None
        if column is None:
            out[index] = (None, False)
        else:
            starts.append(((index, p, x0, spec), column))
    for (index, p, x0, spec), steps in _step_lanes(
        starts, _scalar_law_lanes(policy), policy, width
    ):
        traj = None if steps is None else simulate(spec, x0, p, policy, _steps=steps)
        out[index] = (traj, True)
    return out


def assert_same_run(lane, plain):
    assert lane.step_count == plain.step_count
    assert lane.rejected_steps == plain.rejected_steps
    assert lane.event_time == plain.event_time
    assert lane.converged_at == plain.converged_at
    assert lane.terminal_norm == plain.terminal_norm
    for name in RECORD_FIELDS:
        a, b = getattr(lane, name), getattr(plain, name)
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def plain_error(spec, x0, p, policy):
    try:
        simulate(spec, x0, p, policy)
    except TimeBarrierError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def test_lanes_match_simulate_on_default_grid(default_policy):
    cells = [(p, x0) for p in DEFAULT_GRID.grid() for x0 in DEFAULT_GRID.x0_values()]
    runs = lane_runs(cells, default_policy)
    assert len(runs) == len(cells) == 1053
    for index, (p, x0) in enumerate(cells):
        lane, started = runs[index]
        assert started and lane is not None, index
        plain = simulate(make_time_barrier_scalar(p, default_policy), x0, p, default_policy)
        assert_same_run(lane, plain)


EDGE_CELLS = [
    (NumericPolicy(sign_eps=1e-10), BarrierParams(1.0, 2.0, 1.0, 0.5), [1e-6, -1e-3, 2.0]),
    (NumericPolicy(sign_eps=1e-3), BarrierParams(0.5, 3.0, 2.0, 0.4), [1e-2, -5e-3, 7.0]),
    (NumericPolicy(delta_end=1e-6), BarrierParams(2.0, 4.0, 0.5, 0.2), [1e-4, 3.0, -1e5]),
    (NumericPolicy(), BarrierParams(1.0, 2.0, 0.0, 0.5), [1.0, -1e3]),  # q = 0
    (NumericPolicy(), BarrierParams(1.0, 1.0, 1.0, 0.5), [10.0, -1e6]),  # m < 1
    (NumericPolicy(), BarrierParams(1.0, 2.0, 1.0, 0.5), [1e-9, -1e-8, 0.0, 1e-323]),
    (NumericPolicy(), BarrierParams(1.0, 2.0, 1.0, 0.5), [1e307, -1e307, 1e308]),
    (
        NumericPolicy(rel_tol=1e-9, abs_tol=1e-12, delta_end=0.999999),
        BarrierParams(1.0, 2.0, 1.0, 0.5),
        [1e6, -1.0],
    ),
]


@pytest.mark.parametrize(
    "policy,p,x0s", EDGE_CELLS,
    ids=["sign_eps", "sign_eps_wide", "delta_end", "q0", "m_below_1",
         "within_eps_conv", "blow_up", "stall_policy"],
)
def test_lanes_match_simulate_on_edge_cells(policy, p, x0s):
    cells = [(p, x0) for x0 in x0s]
    # a pool narrower than the cell list also exercises the refill
    runs = lane_runs(cells, policy, width=2)
    for index, (_, x0) in enumerate(cells):
        lane, started = runs[index]
        spec = make_time_barrier_scalar(p, policy)
        error = plain_error(spec, x0, p, policy)
        if error is not None:
            assert lane is None
            continue
        if abs(x0) <= policy.eps_conv:
            assert not started  # no step to take, so no lane
            continue
        assert started and lane is not None
        assert_same_run(lane, simulate(spec, x0, p, policy))


def test_lane_that_blows_up_is_rerun_with_the_same_error(default_policy):
    p = BarrierParams(1.0, 2.0, 1.0, 0.5)
    runs = lane_runs([(p, 1e307)], default_policy)
    assert runs[0] == (None, True)  # the lane started and failed mid-run
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(307, 308),
    )
    rows = run_sweep(cfg, default_policy).rows
    spec = make_time_barrier_scalar(p, default_policy)
    for row in rows:
        assert row.error and row.error == plain_error(spec, row.x0, p, default_policy)


@pytest.mark.parametrize("policy", [
    NumericPolicy(),
    NumericPolicy(sign_eps=1e-10),
    NumericPolicy(delta_end=1e-6),
    NumericPolicy(rel_tol=1e-9, abs_tol=1e-12, delta_end=0.999999),
], ids=["default", "sign_eps", "delta_end", "stall_policy"])
def test_sweep_rows_equal_one_cell_at_a_time(policy):
    cfg = SweepConfig(
        tc_values=(1.0, 2.0), beta_values=(1.0, 3.0), q_values=(0.0, 1.0),
        alpha_values=(0.5,), x0_decades=(-9, 3),
    )
    result = run_sweep(cfg, policy)
    cells = [(p, x0) for p in cfg.grid() for x0 in cfg.x0_values()]
    one_by_one = [
        _compute_row(index, p, x0, policy, make_time_barrier_scalar(p, policy))[0]
        for index, (p, x0) in enumerate(cells)
    ]
    assert render_sweep_csv(result) == render_sweep_csv(
        SweepResult(config=cfg, rows=one_by_one)
    )


@pytest.mark.parametrize("decades", [(-9, 3), (306, 308)])
def test_summary_step_totals(default_policy, decades):
    cfg = SweepConfig(
        tc_values=(0.5, 1.0), beta_values=(2.0,), q_values=(0.0, 1.0),
        alpha_values=(0.5,), x0_decades=decades,
    )
    result = run_sweep(cfg, default_policy)
    accepted = rejected = 0
    for p in cfg.grid():
        spec = make_time_barrier_scalar(p, default_policy)
        for x0 in cfg.x0_values():
            try:
                traj = simulate(spec, x0, p, default_policy)
            except TimeBarrierError:  # error rows carry no trajectory
                continue
            accepted += traj.step_count
            rejected += traj.rejected_steps
    assert result.summary["steps_accepted"] == accepted > 0
    assert result.summary["steps_rejected"] == rejected
    assert accepted == sum(row.step_count or 0 for row in result.rows)


def test_replaced_v_is_evaluated(default_params, default_policy):
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
    assert np.all(traj.vdot_values == 0.0)
    # a label change keeps the array forms, which give the same bits
    relabeled = dataclasses.replace(spec, label="relabeled")
    assert relabeled._arrays_of == (spec.v, spec.vdot)
    base = simulate(spec, 1.0, default_params, default_policy)
    again = simulate(relabeled, 1.0, default_params, default_policy)
    assert again.vdot_values.tobytes() == base.vdot_values.tobytes()


@pytest.mark.parametrize("jump", [1.0, 1e3, 1e10])
def test_lane_engine_follows_simulate_across_a_jump(default_params, default_policy, jump):
    # a jump in the rhs at t = 0.5 forces rejections; the largest one stalls
    def rhs(x, t):
        return np.array([-x[0] + (jump if t >= 0.5 else 0.0)])

    def rhs_lanes(x, t, jumps):
        return -x + np.where(t >= 0.5, jumps, 0.0)

    spec = DynamicsSpec(dim=1, rhs=rhs, tc=default_params.tc)
    column = _lane_start(spec, 1.0, default_params, default_policy, (jump,))
    (key, steps), = _step_lanes([("cell", column)], rhs_lanes, default_policy, 4)
    assert key == "cell"
    if jump == 1e10:
        assert steps is None
        with pytest.raises(StallError, match="stall"):
            simulate(spec, 1.0, default_params, default_policy)
        return
    lane = simulate(spec, 1.0, default_params, default_policy, _steps=steps)
    plain = simulate(spec, 1.0, default_params, default_policy)
    assert plain.rejected_steps > 0
    assert_same_run(lane, plain)
