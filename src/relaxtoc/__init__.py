"""Time-optimal control of systems that are singular on the target set.

Controls are relaxed to finitely supported Young measures, the target is
inflated by a radius alpha so that trajectories stop short of the singular
locus, and the inflation is driven to zero along a geometric ladder.  What
comes out of the solver is checked, not trusted: a maximum-principle report
with quantitative residuals, and comparison bounds (quench monotonicity,
blowup envelopes, damping lower bounds) that hold with no tuning at all.
"""

from .errors import Error, ConfigError
from .target import TargetSet, Hyperplane, HalfSpace, Ball, Point
from .dynamics import (
    AffineStructure,
    BallSet,
    BoxSet,
    Compactification,
    ControlSystem,
    FiniteSet,
    PiecewiseConstant,
    input_bound,
    make_blowup_system,
    make_integrator_system,
    make_quenching_system,
)
from .relaxed import (
    ClassicalSchedule,
    RelaxedSchedule,
    chattering_realization,
)
from .integrate import (
    AdjointTrajectory,
    IntegratorOptions,
    Trajectory,
    integrate_adjoint,
    integrate_forward,
)
from .solve import LadderTrace, SolveOptions, SolveResult, alpha_ladder, solve_alpha
from .pmp import (
    PmpReport,
    QuenchingConclusions,
    bang_polish,
    max_hamiltonian,
    quenching_conclusions,
    verify,
)
from .barrier import (
    BarrierTable,
    blowup_lower_bound_check,
    build_barrier_table,
    envelope_bracket_check,
    mtilde,
    quench_monotonicity_check,
    xi_lower_time,
    xi_upper_time,
)
from .cli import list_examples, run

__all__ = [
    "Error",
    "ConfigError",
    "TargetSet",
    "Hyperplane",
    "HalfSpace",
    "Ball",
    "Point",
    "AffineStructure",
    "BallSet",
    "BoxSet",
    "Compactification",
    "ControlSystem",
    "FiniteSet",
    "PiecewiseConstant",
    "input_bound",
    "make_blowup_system",
    "make_integrator_system",
    "make_quenching_system",
    "ClassicalSchedule",
    "RelaxedSchedule",
    "chattering_realization",
    "AdjointTrajectory",
    "IntegratorOptions",
    "Trajectory",
    "integrate_adjoint",
    "integrate_forward",
    "LadderTrace",
    "SolveOptions",
    "SolveResult",
    "alpha_ladder",
    "solve_alpha",
    "PmpReport",
    "QuenchingConclusions",
    "bang_polish",
    "max_hamiltonian",
    "quenching_conclusions",
    "verify",
    "BarrierTable",
    "blowup_lower_bound_check",
    "build_barrier_table",
    "envelope_bracket_check",
    "mtilde",
    "quench_monotonicity_check",
    "xi_lower_time",
    "xi_upper_time",
    "list_examples",
    "run",
]

__version__ = "0.1.0"
