"""Sweep cells that fail mid-run keep the error of a plain run of the cell."""

import pytest

from timebarrier import BarrierParams, BlowUpError, SweepConfig, run_sweep, simulate
from timebarrier.systems import make_time_barrier_scalar


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
