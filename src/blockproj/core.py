"""Shared numeric primitives, solver configuration and run records."""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# errors

class BlockprojError(Exception):
    """Base class for all blockproj errors."""


class DimensionMismatch(BlockprojError):
    pass


class InvalidCutter(BlockprojError):
    pass


class InvalidRelaxationBounds(BlockprojError):
    pass


class LambdaOutOfRange(BlockprojError):
    def __init__(self, k, value, lo, hi):
        self.k = k
        self.value = value
        super().__init__(
            f"lambda_{k} = {value} outside [{lo}, {hi}]"
            if k is not None
            else f"declared lambda range {value} outside [{lo}, {hi}]"
        )


class NonpositiveSigma(BlockprojError):
    pass


class InfiniteSigma(BlockprojError):
    pass


class ZeroGradientAtPositiveValue(BlockprojError):
    """The nonempty-sublevel-set assumption behind a subgradient projector failed."""


class InvalidSchedule(BlockprojError):
    pass


class InvalidPolicy(BlockprojError):
    pass


class NonfiniteIterate(BlockprojError):
    pass


class InvalidStoppingRule(BlockprojError):
    pass


class ParseError(BlockprojError):
    pass


class InfeasibleWitness(BlockprojError):
    pass


class UnknownCutterKind(BlockprojError):
    pass


# ---------------------------------------------------------------------------
# sigma

class _InfiniteSigmaType:
    """Distinguished "sigma = infinity" state: all perturbation budgets are zero.

    A singleton rather than float('inf') so the zero-perturbation semantics
    cannot be produced accidentally by arithmetic overflow.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE_SIGMA"


INFINITE_SIGMA = _InfiniteSigmaType()


def sigma_is_finite(sigma) -> bool:
    return sigma is not INFINITE_SIGMA


def normalize_sigma(sigma):
    """Return a positive float or INFINITE_SIGMA, rejecting everything else.

    float('inf') is folded into INFINITE_SIGMA so callers meet a single
    unmissable representation of the no-perturbation regime.
    """
    if sigma is INFINITE_SIGMA:
        return INFINITE_SIGMA
    try:
        value = float(sigma)
    except (TypeError, ValueError):
        raise NonpositiveSigma(f"sigma must be a positive number or INFINITE_SIGMA, got {sigma!r}")
    if math.isinf(value) and value > 0:
        return INFINITE_SIGMA
    if math.isnan(value) or value <= 0:
        raise NonpositiveSigma(f"sigma must be positive, got {value}")
    return value


# ---------------------------------------------------------------------------
# vectors

def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Validate ``x`` as a finite 1-D float64 point and return a read-only copy."""
    arr = np.array(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"{name} must be a 1-D point with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"{name} has dimension {arr.size}, expected {dim}")
    arr.flags.writeable = False
    return arr


def inner(a, b) -> float:
    """Euclidean inner product of two points of equal dimension."""
    a = as_vector(a, name="a")
    b = as_vector(b, name="b")
    if a.size != b.size:
        raise DimensionMismatch(f"inner product needs equal dimensions, got {a.size} and {b.size}")
    return float(np.dot(a, b))


def norm(a) -> float:
    """Euclidean norm; zero exactly for the zero point."""
    return float(np.linalg.norm(as_vector(a, name="a")))


# ---------------------------------------------------------------------------
# relaxation schedule

class LambdaSchedule:
    """Per-iteration relaxation parameters.

    Accepts a constant, a finite table that is cycled, or a callable
    ``k -> lambda_k``.  Callables may be paired with ``declared_range`` so
    that configuration validation does not have to sample them.
    """

    def __init__(self, rule=1.0, declared_range=None):
        self._fn = None
        self._table = None
        self._const = None
        if callable(rule):
            self._fn = rule
            self._range = tuple(declared_range) if declared_range is not None else None
        elif np.isscalar(rule):
            self._const = float(rule)
            self._range = (self._const, self._const)
        else:
            table = tuple(float(v) for v in rule)
            if not table:
                raise ValueError("lambda table must be nonempty")
            self._table = table
            # numpy's min and max propagate NaN, which the range check refuses
            self._range = (float(np.min(table)), float(np.max(table)))

    def __call__(self, k: int) -> float:
        if self._const is not None:
            return self._const
        if self._table is not None:
            return self._table[k % len(self._table)]
        return float(self._fn(k))

    @property
    def declared_range(self):
        """(lo, hi) bounds when known in closed form, else None."""
        return self._range

    def __repr__(self):
        if self._const is not None:
            return f"LambdaSchedule({self._const})"
        if self._table is not None:
            return f"LambdaSchedule({list(self._table)})"
        return "LambdaSchedule(<callable>)"


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class SolverConfig:
    """Input parameters of the iteration.

    ``sigma`` may be a positive float, INFINITE_SIGMA, or None, meaning
    "inherit the problem's sigma".  INFINITE_SIGMA collapses every
    perturbation budget to zero.
    """

    tau1: float = 0.5
    tau2: float = 0.5
    lambda_schedule: LambdaSchedule = field(default_factory=LambdaSchedule)
    sigma: object = None
    max_iterations: int = 100_000
    residual_tolerance: float = 1e-8
    seed: int = 0


def validate_config(cfg: SolverConfig) -> None:
    """Reject configurations outside the admissible parameter region.

    Relaxation parameters must live in [tau1, 2 - tau2]; tabulated schedules
    are checked entry by entry, callables either via their declared range or
    by sampling k = 0 .. max_iterations - 1.
    """
    if not (cfg.tau1 > 0 and cfg.tau2 > 0):
        raise InvalidRelaxationBounds(f"tau1 and tau2 must be positive, got {cfg.tau1}, {cfg.tau2}")
    if cfg.tau1 + cfg.tau2 > 2:
        raise InvalidRelaxationBounds(f"tau1 + tau2 must be <= 2, got {cfg.tau1 + cfg.tau2}")
    if cfg.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    # written so that NaN fails every range check
    if not cfg.residual_tolerance >= 0:
        raise ValueError(f"residual_tolerance must be >= 0, got {cfg.residual_tolerance}")
    if cfg.sigma is not None:
        normalize_sigma(cfg.sigma)

    lo, hi = cfg.tau1, 2.0 - cfg.tau2
    sched = cfg.lambda_schedule
    declared = sched.declared_range
    # tolerance-free comparison: the interval bounds are exact user inputs
    if declared is not None:
        if not (lo <= declared[0] and declared[1] <= hi):
            raise LambdaOutOfRange(None, declared, lo, hi)
    else:
        for k in range(cfg.max_iterations):
            lam = sched(k)
            if not lo <= lam <= hi:
                raise LambdaOutOfRange(k, lam, lo, hi)


# ---------------------------------------------------------------------------
# run records

class RunStatus(Enum):
    RESIDUAL_CONVERGED = "residual_converged"
    DISTANCE_CONVERGED = "distance_converged"
    FUNCTION_CONVERGED = "function_converged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of iterate k before the update that leaves it.

    perturbation_norm is the norm of the aggregated perturbation applied by
    that update (0 for the terminal record, where no update happens).
    """

    k: int
    point: np.ndarray
    max_residual: float
    per_index_residuals: np.ndarray
    perturbation_norm: float
    lam: float
    distance_from_start: float
    distance_to_witness: Optional[float] = None


@dataclass(frozen=True)
class RunResult:
    final_point: np.ndarray
    status: RunStatus
    iterations_used: int
    trace: tuple  # of IterationRecord
