"""Simulation and certification of decay laws with a hard convergence deadline.

The library integrates the scalar reference dynamics

    dx/dt = -beta * x / (tc - t) - q * |x|**alpha * sign(x)

up to the deadline tc, verifies the associated dissipation inequality along
trajectories, evaluates the analytic settling-time bounds, and demonstrates
that the deadline is met independently of the initial condition.
"""

from .analytic import (
    SettlingBound,
    barrier_integral,
    exact_solution_scalar,
    exact_solution_scalar_array,
    remaining_settling_time,
    settling_bound,
)
from .certify import (
    CertificateReport,
    NonAutonomyWitness,
    Violation,
    check_dissipation,
    find_nonautonomy_witness,
)
from .core import (
    BarrierParams,
    BlowUpError,
    DivergentIntegralError,
    DomainError,
    DynamicsSpec,
    NumericPolicy,
    ParamVerdict,
    StallError,
    TimeBarrierError,
    validate_params,
    validate_spec,
    w_transform,
    w_transform_array,
)
from .integrate import (
    SettlingReport,
    Trajectory,
    TrajectorySample,
    resample,
    settling_report,
    simulate,
)
from .sweep import (
    DEFAULT_GRID,
    SeparationRow,
    SweepConfig,
    SweepResult,
    SweepRow,
    run_sweep,
    separation_table,
)
from .systems import (
    AutonomousLaw,
    make_autonomous_power_law,
    make_time_barrier_componentwise,
    make_time_barrier_scalar,
)

__version__ = "0.1.0"

__all__ = [
    "AutonomousLaw",
    "BarrierParams",
    "BlowUpError",
    "CertificateReport",
    "DEFAULT_GRID",
    "DivergentIntegralError",
    "DomainError",
    "DynamicsSpec",
    "NonAutonomyWitness",
    "NumericPolicy",
    "ParamVerdict",
    "SeparationRow",
    "SettlingBound",
    "SettlingReport",
    "StallError",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "TimeBarrierError",
    "Trajectory",
    "TrajectorySample",
    "Violation",
    "barrier_integral",
    "check_dissipation",
    "exact_solution_scalar",
    "exact_solution_scalar_array",
    "find_nonautonomy_witness",
    "make_autonomous_power_law",
    "make_time_barrier_componentwise",
    "make_time_barrier_scalar",
    "remaining_settling_time",
    "resample",
    "run_sweep",
    "separation_table",
    "settling_bound",
    "settling_report",
    "simulate",
    "validate_params",
    "validate_spec",
    "w_transform",
    "w_transform_array",
]
