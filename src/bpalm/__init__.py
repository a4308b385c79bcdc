"""Path-following Bregman proximal augmented Lagrangian solver."""

from .legendre import (
    BregmanGeometry,
    LegendreFunction,
    bregman_distance,
    box_barrier,
    energy,
    spence,
    von_neumann,
)
from .problem import (
    AffineMap,
    KKTResiduals,
    NonsmoothTerm,
    ProblemSpec,
    SmoothObjective,
    kkt_residuals,
    lagrangian,
)
from .penalty import DualPenalty, penalty_for
from .auglag import AcceptanceCheck, Anchor, SubproblemContext, evaluate_anchor, make_context
from .newton import (
    InnerSolve,
    NewtonTrace,
    solve_subproblem,
)
from .outer import (
    Iterate,
    IterateState,
    OuterRecord,
    RhoSchedule,
    SolveReport,
    SolveStatus,
    SolveTrace,
    SolverConfig,
    outer_iteration,
    run,
    select_sigma,
)

__version__ = "0.1.0"
