"""Simulation and certification of decay laws with a hard convergence deadline.

The library integrates the scalar reference dynamics

    dx/dt = -beta * x / (tc - t) - q * |x|**alpha * sign(x)

up to the deadline tc, verifies the associated dissipation inequality along
trajectories, evaluates the analytic settling-time bounds, and demonstrates
that the deadline is met independently of the initial condition.
"""

from . import analytic, certify, core, integrate, sweep, systems
from .analytic import *
from .certify import *
from .core import *
from .integrate import *
from .sweep import *
from .systems import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = sorted(
    name for module in (analytic, certify, core, integrate, sweep, systems)
    for name in module.__all__
)
