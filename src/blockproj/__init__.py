"""blockproj: block-iterative projection methods for common fixed point
problems of continuous cutter operators, with adaptive in-budget
perturbations (superiorization-ready).
"""

from .core import (
    INFINITE_SIGMA,
    BlockprojError,
    DimensionMismatch,
    InvalidConfig,
    InvalidCutter,
    InvalidProblem,
    InvalidSchedule,
    IterationRecord,
    LambdaOutOfRange,
    LambdaSchedule,
    NonfiniteIterate,
    NonpositiveSigma,
    ParseError,
    RunResult,
    RunStatus,
    SolverConfig,
    as_vector,
    normalize_sigma,
    validate_config,
)
from .cutters import (
    AbsSum,
    AffineFunction,
    Ball,
    BallQuadratic,
    Box,
    Cutter,
    Halfspace,
    Hyperplane,
    L1Ball,
    QuadraticFunction,
    Resolvent,
    SetIndicator,
    SquaredNorm,
    SubgradientProjection,
    project_l1_ball,
)
from .perturbation import (
    PerturbationPolicy,
    RandomDirectionPolicy,
    SuperiorizedPolicy,
    ZeroPolicy,
    budget,
    perturbation_rng,
    theta_budget,
)
from .problems import (
    gen_disc_intersection,
    gen_l1_constrained,
    gen_linear_feasibility,
    load_problem,
    save_problem,
)
from .solver import (
    MaxDistance,
    MaxFunctionValue,
    Problem,
    ResidualBelow,
    fejer_audit,
    run,
    sigma_from_ball,
    sigma_from_l1,
)
from .weights import (
    BlockClassicalCyclic,
    BlockGeneralized,
    SequentialAlmostCyclic,
    SequentialCyclic,
    SequentialRepetitive,
    SimultaneousDrifting,
    SimultaneousUniform,
    WeightSchedule,
)

__version__ = "0.1.0"
