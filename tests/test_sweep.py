"""Grid experiments: determinism, failure mapping, and the separation table."""

import csv
import hashlib
import math

import pytest

from timebarrier import (
    DEFAULT_GRID,
    BarrierParams,
    BlowUpError,
    NumericPolicy,
    SweepConfig,
    TimeBarrierError,
    run_sweep,
    separation_table,
    settling_bound,
    simulate,
    validate_params,
)
from timebarrier import sweep
from timebarrier.cli import render_sweep_csv
from timebarrier.systems import make_time_barrier_scalar


def test_single_tuple_grid_all_pass(default_policy):
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,)
    )
    result = run_sweep(cfg, default_policy)
    assert len(result.rows) == 13
    assert all(r.admissible for r in result.rows)
    assert all(r.deadline_pass for r in result.rows)
    assert all(r.certificate_pass for r in result.rows)
    assert all(r.oracle_pass for r in result.rows)
    assert result.summary["check_failures"] == 0
    assert result.summary["deadline_failures"] == 0


def test_rows_ordered_lexicographically(default_policy):
    cfg = SweepConfig(
        tc_values=(1.0, 2.0), beta_values=(2.0, 3.0), q_values=(1.0,),
        alpha_values=(0.5,), x0_decades=(0, 1),
    )
    result = run_sweep(cfg, default_policy)
    assert len(result.rows) == 2 * 2 * 1 * 1 * 2
    key = [(r.tc, r.beta, r.q, r.alpha, r.x0) for r in result.rows]
    assert key == sorted(key)
    assert [r.index for r in result.rows] == list(range(len(result.rows)))


def test_inadmissible_rows_flagged_not_failed(default_policy):
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(1.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(6, 6),
    )
    result = run_sweep(cfg, default_policy)
    row = result.rows[0]
    assert not row.admissible
    assert row.reaches_zero is False
    assert result.summary["inadmissible_rows"] == 1
    assert result.summary["deadline_failures"] == 0
    assert result.summary["check_failures"] == 0


def test_determinism_bit_identical(default_policy):
    cfg = SweepConfig(
        tc_values=(0.5, 1.0), beta_values=(2.0, 3.0), q_values=(1.0,),
        alpha_values=(0.4, 0.5), x0_decades=(-2, 2),
    )
    first = render_sweep_csv(run_sweep(cfg, default_policy))
    second = render_sweep_csv(run_sweep(cfg, default_policy))
    assert first == second


def test_bound_tightness_over_subgrid(default_policy):
    cfg = SweepConfig(
        tc_values=(0.5, 2.0), beta_values=(2.0, 4.0), q_values=(0.5, 2.0),
        alpha_values=(0.2, 0.5), x0_decades=(-6, 6),
    )
    result = run_sweep(cfg, default_policy)
    assert result.summary["bound_failures"] == 0
    for row in result.rows:
        if row.admissible and row.bound_gap is not None:
            assert row.bound_gap <= 1e-4 * row.tc


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(tc_values=())
    with pytest.raises(ValueError):
        SweepConfig(x0_decades=(3, -3))
    with pytest.raises(ValueError, match="x0_decades"):
        SweepConfig(x0_decades=(309, 309))
    SweepConfig(x0_decades=(308, 308))
    # two integers, bools excluded
    for decades in ((-1.5, 0), (True, 2), (0,), (0, 1, 2), 5, "01"):
        with pytest.raises(ValueError, match="x0_decades must be two integers"):
            SweepConfig(x0_decades=decades)
    # lists are stored as tuples, so the frozen config hashes
    cfg = SweepConfig(tc_values=[1.0], beta_values=[2.0], x0_decades=[0, 1])
    assert (cfg.tc_values, cfg.beta_values, cfg.x0_decades) == ((1.0,), (2.0,), (0, 1))
    assert hash(cfg) == hash(SweepConfig(tc_values=(1.0,), beta_values=(2.0,), x0_decades=(0, 1)))
    # the law's own preconditions reject the grid before any row runs
    with pytest.raises(ValueError, match="alpha"):
        SweepConfig(alpha_values=(0.5, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        SweepConfig(tc_values=(1.0, float("inf")))


def test_config_rejects_underflowing_decades():
    # 10.0**-324 is 0.0, so lower decades would give duplicate x0 = 0 rows;
    # construction alone must refuse them, before any x0 list is built
    with pytest.raises(ValueError, match="x0_decades lower -330"):
        SweepConfig(x0_decades=(-330, -322))
    with pytest.raises(ValueError, match="x0_decades"):
        SweepConfig(x0_decades=(-10**9, 0))
    with pytest.raises(ValueError, match="x0_decades"):
        SweepConfig(x0_decades=(-324, -324))
    cfg = SweepConfig(x0_decades=(-323, -322))
    assert cfg.x0_values() == [1e-323, 1e-322] and 0.0 < 1e-323


def test_error_rows_keep_csv_columns(default_policy):
    # near the largest double the dynamics blow up, and the error text, which
    # contains commas, must stay one quoted cell
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(307, 308),
    )
    result = run_sweep(cfg, default_policy)
    assert all(r.error.startswith("BlowUpError") for r in result.rows)
    header, *rows = csv.reader(render_sweep_csv(result).splitlines())
    assert len(rows) == 2
    for row, sweep_row in zip(rows, result.rows):
        assert len(row) == len(header)
        assert row[header.index("error")] == sweep_row.error


def test_default_grid_sweep_is_pinned():
    # the fixed DEFAULT_GRID gate: the CSV bytes and the work behind them
    result = run_sweep(DEFAULT_GRID)
    digest = hashlib.sha256(render_sweep_csv(result).encode()).hexdigest()
    assert digest == "7ab8585da6504646abe60594517a31057ec4f1b818fc2f7e41f274349a04d168"
    assert result.summary["steps_accepted"] == 202636
    assert result.summary["steps_rejected"] == 9519


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


def test_underflowing_barrier_power_keeps_the_row(default_policy):
    # near tc, (tc - t)**30 underflows to 0.0 while V is still ~1e30
    cfg = SweepConfig(
        tc_values=(0.01,), beta_values=(30.0,), q_values=(0.0,), alpha_values=(0.5,),
        x0_decades=(300, 300),
    )
    (row,) = run_sweep(cfg, default_policy).rows
    assert row.error == ""
    # q = 0 is inadmissible: the certificate fails on admissibility, and the
    # linear law only reaches zero at tc, so the run never converges
    assert (row.admissible, row.certificate_pass) == (False, False)
    assert (row.converged_at, row.reaches_zero, row.deadline_pass) == (None, False, False)
    assert row.step_count == 13325
    assert row.oracle_pass is True
    assert row.terminal_norm == pytest.approx(1e30, rel=1e-5)


def test_delta_end_is_checked_against_the_smallest_tc_before_any_cell(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr("timebarrier.sweep.simulate", counting)
    cfg = SweepConfig(
        tc_values=(10.0, 1.0), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(0, 0),
    )
    with pytest.raises(ValueError, match=r"delta_end=5.0 must lie in \(0, tc=1.0\)"):
        run_sweep(cfg, NumericPolicy(delta_end=5.0))
    assert calls == []


def test_impossible_tolerances_become_error_rows():
    # x0 / (rel_tol * x0) overflows in the RMS norm: no first step size exists
    policy = NumericPolicy(rel_tol=1e-300, abs_tol=1e-300)
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(-7, 0),
    )
    result = run_sweep(cfg, policy)
    assert len(result.rows) == 8
    for row in result.rows:
        assert row.error.startswith("StallError: tolerances rel_tol=1e-300, abs_tol=1e-300")
        assert row.step_count is None
    # each row's failure counts once, as a numeric error, and no row has a worst value
    summary = result.summary
    assert summary["numeric_errors"] == 8
    assert summary["bound_failures"] == 0
    assert summary["check_failures"] == 8
    assert summary["worst_bound_gap"] == summary["worst_oracle_error"] == 0.0
    assert summary["worst_bound_gap_row"] is None and summary["worst_oracle_error_row"] is None


def test_loose_abs_tol_fails_the_bound_check():
    # abs_tol 1e-6 is 100 eps_conv: the event is not resolved, and the rows
    # of small x0 settle far past their closed-form bound
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(-2, 2),
    )
    summary = run_sweep(cfg, NumericPolicy(abs_tol=1e-6)).summary
    assert summary["bound_failures"] == 4
    assert summary["check_failures"] == 10
    assert summary["worst_bound_gap_row"] == 0
    assert summary["worst_bound_gap"] == pytest.approx(0.81865, abs=1e-5)


def test_stall_rows_become_failures(default_policy):
    # absurd tolerances cannot be met; the row reports the error instead of raising
    policy = NumericPolicy(rel_tol=1e-9, abs_tol=1e-12, delta_end=0.999999)
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(6, 6),
    )
    result = run_sweep(cfg, policy)
    row = result.rows[0]
    # with delta_end ~ tc the run ends almost immediately and never converges
    assert row.deadline_pass is False or row.error


def test_separation_table_frozen(default_policy):
    rows = separation_table(1.0, 1.0, 0.5, [0.01, 0.25, 1.0, 1e6], default_policy)
    by_x0 = {row.x0: row for row in rows}
    assert by_x0[0.01].autonomous_settling == pytest.approx(0.2, rel=1e-12)
    assert not by_x0[0.01].autonomous_exceeds_deadline
    assert not by_x0[0.25].autonomous_exceeds_deadline  # boundary: 2*sqrt(.25) = 1
    assert by_x0[1.0].autonomous_settling == pytest.approx(2.0, rel=1e-12)
    assert by_x0[1.0].autonomous_exceeds_deadline
    assert by_x0[1e6].autonomous_settling == pytest.approx(2000.0, rel=1e-12)
    assert by_x0[1e6].autonomous_exceeds_deadline
    for row in rows:
        assert row.barrier_settling is not None and row.barrier_settling < 1.0


def test_separation_table_names_an_x0_past_the_float_range():
    with pytest.raises(ValueError, match="x0 must be finite"):
        separation_table(1.0, 1.0, 0.5, [10**400])


def test_separation_monotone(default_policy):
    x0s = [10.0**k for k in range(-3, 7)]
    rows = separation_table(1.0, 1.0, 0.5, x0s, default_policy)
    autos = [r.autonomous_settling for r in rows]
    assert all(b > a for a, b in zip(autos, autos[1:]))
    assert all(r.barrier_settling < 1.0 for r in rows)


def test_separation_barrier_settling_matches_bound(default_policy):
    rows = separation_table(1.0, 1.0, 0.5, [1.0], default_policy)
    p = BarrierParams(1.0, 2.0, 1.0, 0.5)
    want = settling_bound(p, 1.0).tau_bound
    assert rows[0].barrier_settling == pytest.approx(want, abs=1e-4)


def test_separation_tuple_is_the_least_admissible_one(monkeypatch):
    # 1/(1-alpha) rounds m = beta*(1-alpha) below 1 for 149 of these alphas;
    # the table runs the least float beta with m >= 1 instead
    tuples = []

    def recording(spec, x0, p, policy=None):
        tuples.append(p)
        return simulate(spec, x0, p, policy)

    monkeypatch.setattr(sweep, "simulate", recording)
    for k in range(1, 1000):
        alpha = k / 1000
        tuples.clear()
        rows = separation_table(1.0, 1.0, alpha, [1e3, 1e6])
        assert [row.x0 for row in rows] == [1e3, 1e6]
        (p,) = set(tuples)
        assert (p.tc, p.q, p.alpha) == (1.0, 1.0, alpha)
        assert validate_params(p).admissible, alpha
        assert math.nextafter(p.beta, 0.0) * (1.0 - alpha) < 1.0, alpha
        for row in rows:
            assert row.barrier_settling is None or row.barrier_settling < 1.0


def test_lane_that_blows_up_is_rerun_with_the_same_error(default_policy):
    # near the largest double the dynamics blow up; the row's
    # error text is exactly what simulate raises for the same cell
    p = BarrierParams(1.0, 2.0, 1.0, 0.5)
    cfg = SweepConfig(
        tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
        x0_decades=(307, 308),
    )
    rows = run_sweep(cfg, default_policy).rows
    assert len(rows) == 2
    spec = make_time_barrier_scalar(p, default_policy)
    for row in rows:
        with pytest.raises(BlowUpError) as exc:
            simulate(spec, row.x0, p, default_policy)
        assert row.error == f"BlowUpError: {exc.value}"
