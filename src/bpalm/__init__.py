"""Path-following Bregman proximal augmented Lagrangian solver."""

from .legendre import (
    BregmanGeometry,
    LegendreFunction,
    bregman_distance,
    box_barrier,
    burg,
    dilog,
    dual_bregman_distance,
    energy,
    product,
    spence,
    von_neumann,
)
from .problem import (
    AffineMap,
    KKTResiduals,
    NonsmoothTerm,
    ProblemSpec,
    SmoothObjective,
    dual_perturbation_value,
    kkt_residuals,
    lagrangian,
)
from .penalty import DualPenalty, penalty_for
from .auglag import AcceptanceCheck, Anchor, SubproblemContext, evaluate_anchor, make_context
from .newton import (
    InnerSolve,
    NewtonTrace,
    newton_decrement,
    newton_step,
    solve_subproblem,
)
from .outer import (
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
