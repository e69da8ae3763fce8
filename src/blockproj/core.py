"""Shared numeric primitives, solver configuration and run records."""

import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np


# ---------------------------------------------------------------------------
# errors

class BlockprojError(ValueError):
    """Base class of every error blockproj raises; a ValueError."""


class DimensionMismatch(BlockprojError):
    """An input is not a finite 1-D point of the dimension it needs."""


class InvalidCutter(BlockprojError):
    """An operator cannot be built, encoded or sampled, or its assumption fails."""


class InvalidProblem(BlockprojError):
    pass


class InvalidConfig(BlockprojError):
    """Solver parameters, a perturbation policy or a stopping rule."""


class LambdaOutOfRange(InvalidConfig):
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


class InvalidSchedule(BlockprojError):
    pass


class NonfiniteIterate(BlockprojError):
    pass


class ParseError(BlockprojError):
    pass


# the types Python converts to a number that no number argument takes: a
# boolean as 0 or 1, and text as the number it spells
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


# requirements of ``_converted``: (text, low, high), met where
# low <= value <= high, a comparison that NaN fails; an open end is the
# first float inside it, so float(x) > 0 is float(x) >= 5e-324
_POSITIVE = ("positive", math.ulp(0.0), math.inf)
_NONNEGATIVE = (">= 0", 0.0, math.inf)
_FINITE = ("a finite number", -sys.float_info.max, sys.float_info.max)


def _converted(value, name, error, requirement=None, convert=float, kind="a number"):
    """convert(value), or ``error`` naming ``name`` where Python's own
    conversion fails: None, or an integer beyond the float range.  A string
    and a boolean are refused too, although Python converts "1.5" and True.
    A converted value outside ``requirement`` raises
    ``error("<name> must be <text>, got <value>")``."""
    if isinstance(value, _NOT_NUMBERS):
        raise error(f"{name} must be {kind}, got {value!r}")
    try:
        value = convert(value)
    except (TypeError, ValueError):
        raise error(f"{name} must be {kind}, got {value!r}") from None
    except OverflowError:
        raise error(f"{name} must be {kind}, got one that overflows a float") from None
    if requirement is not None and not requirement[1] <= value <= requirement[2]:
        raise error(f"{name} must be {requirement[0]}, got {value}")
    return value


def _integer(value, name, error, at_least=None, kind="an integer"):
    """``value`` as an int, or ``error`` naming ``name``: a float, 2.0
    included, is refused rather than truncated, as are a string and a
    boolean, and so is an int below ``at_least``."""
    value = _converted(value, name, error, None, operator.index, kind)
    if at_least is not None and value < at_least:
        raise error(f"{name} must be >= {at_least}, got {value}")
    return value


def _rule(rule, name, error, check, kind):
    """``(at, table)`` of a per-iteration rule: ``at(k)`` is its value at k
    as ``check(value, k)`` converts it.  A callable ``k -> value`` is checked
    on every call, and ``table`` is None; any other rule is a nonempty table
    cycled over k, whose entries are checked once, here, as the k each first
    serves."""
    if callable(rule):
        return (lambda k: check(rule(k), k)), None
    entries = _converted(rule, name, error, None, tuple, kind)
    if not entries:
        raise error(f"{name} table must be nonempty")
    table = tuple([check(v, k) for k, v in enumerate(entries)])
    return (lambda k: table[k % len(table)]), table


def _table(values, name, error, convert=float, kind="a number", table="a table of numbers"):
    """The entries of ``values`` as a nonempty tuple, each converted as
    ``_converted`` converts a scalar, so a boolean entry is refused;
    ``error`` names ``name`` when ``values`` is empty or not iterable."""
    return _rule(_converted(values, name, error, None, tuple, table), name, error,
                 lambda v, k: _converted(v, name, error, None, convert, kind), table)[1]


# ---------------------------------------------------------------------------
# sigma

# sigma = infinity makes every perturbation budget zero: the unperturbed
# iteration
INFINITE_SIGMA = math.inf


def normalize_sigma(sigma):
    """Return sigma as a float that is positive or +inf, refusing the rest."""
    return _converted(sigma, "sigma", NonpositiveSigma, _POSITIVE, float, "a positive number")


# ---------------------------------------------------------------------------
# vectors

def _norm(d):
    """||d|| of a 1-D float64 array, bit for bit what np.linalg.norm computes."""
    return math.sqrt(d.dot(d))


def as_vector(x, dim: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Validate ``x`` as a finite 1-D float64 point and return a read-only copy."""
    try:
        arr = np.array(x)
        # text is refused, although numpy would parse the numbers it
        # spells, also among other objects; only an object array is
        # searched, and a float array is not converted a second time
        text = arr.dtype.kind in "US" or arr.dtype.kind == "O" and any(
            isinstance(v, (str, bytes)) for v in arr.flat)
        arr = None if text else arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        # ragged nesting, objects and ints beyond the float range
        arr = None
    if arr is None:
        raise DimensionMismatch(f"{name} must be a 1-D point of numbers")
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"{name} must be a 1-D point with at least one entry")
    # the count that ndarray.all would reduce, without its wrapper
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise DimensionMismatch(f"{name} has non-finite entries")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"{name} has dimension {arr.size}, expected {dim}")
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# relaxation schedule

class LambdaSchedule:
    """Per-iteration relaxation parameters.

    Accepts a constant or a 0-d array, which is a one-entry table, a finite
    table that is cycled, or a callable ``k -> lambda_k``.  A table's range
    is known in closed form and checked by ``validate_config``; a callable's
    value is checked by ``run`` at each iteration whose update uses it.
    """

    def __init__(self, rule=1.0):
        rule = rule[()] if isinstance(rule, np.ndarray) and rule.ndim == 0 else rule
        self._at, self._table = _rule(
            (rule,) if np.isscalar(rule) else rule, "lambda", InvalidConfig,
            lambda v, k: _converted(v, "lambda", InvalidConfig),
            "a number, a table of numbers or a callable")

    def __call__(self, k: int) -> float:
        table = self._table  # indexed here: ``run`` calls this on every iteration
        return self._at(k) if table is None else table[k % len(table)]

    @property
    def declared_range(self):
        """(lo, hi) of a table, a constant included; None for a callable."""
        table = self._table
        # numpy's min and max propagate NaN, which the range check refuses
        return None if table is None else (float(np.min(table)), float(np.max(table)))

    def __repr__(self):
        table = self._table
        rule = "<callable>" if table is None else table[0] if len(table) == 1 else list(table)
        return f"LambdaSchedule({rule})"


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class SolverConfig:
    """Input parameters of the iteration; sigma is the problem's."""

    tau1: float = 0.5
    tau2: float = 0.5
    lambda_schedule: LambdaSchedule = field(default_factory=LambdaSchedule)
    max_iterations: int = 100_000
    residual_tolerance: float = 1e-8
    seed: int = 0


def _check_seed(seed, name="seed"):
    """The seed as an int; one outside [0, 2^64), which the 64-bit stream
    key would alias, is refused."""
    return _converted(seed, name, InvalidConfig, ("in [0, 2^64)", 0, 2**64 - 1), operator.index,
                      "in [0, 2^64)")


def validate_config(cfg: SolverConfig) -> None:
    """Reject configurations outside the admissible parameter region.

    Relaxation parameters must live in [tau1, 2 - tau2].  A constant or a
    table is checked here through its range; a callable schedule is not
    sampled, ``run`` checks each lambda_k before the update that uses it.
    """
    tau1 = _converted(cfg.tau1, "tau1", InvalidConfig)
    tau2 = _converted(cfg.tau2, "tau2", InvalidConfig)
    # written so that NaN fails every range check
    if not (tau1 > 0 and tau2 > 0):
        raise InvalidConfig(f"tau1 and tau2 must be positive, got {cfg.tau1}, {cfg.tau2}")
    if tau1 + tau2 > 2:
        raise InvalidConfig(f"tau1 + tau2 must be <= 2, got {tau1 + tau2}")
    _integer(cfg.max_iterations, "max_iterations", InvalidConfig, 1)
    _converted(cfg.residual_tolerance, "residual_tolerance", InvalidConfig, _NONNEGATIVE)
    _check_seed(cfg.seed)
    if not isinstance(cfg.lambda_schedule, LambdaSchedule):
        raise InvalidConfig(
            f"lambda_schedule must be a LambdaSchedule, got {cfg.lambda_schedule!r}")

    lo, hi = tau1, 2.0 - tau2
    declared = cfg.lambda_schedule.declared_range
    # tolerance-free comparison: the interval bounds are exact user inputs
    if declared is not None and not (lo <= declared[0] and declared[1] <= hi):
        raise LambdaOutOfRange(None, declared, lo, hi)


# ---------------------------------------------------------------------------
# run records

class RunStatus(Enum):
    RESIDUAL_CONVERGED = "residual_converged"
    DISTANCE_CONVERGED = "distance_converged"
    FUNCTION_CONVERGED = "function_converged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(slots=True, eq=False)
class IterationRecord:
    """Snapshot of iterate k before the update that leaves it.

    perturbation_norm is the norm of the aggregated perturbation applied by
    that update (0 for the terminal record, where no update happens).  A
    run's trace builds its records when they are read, so each access makes
    a new record: ``trace[i] is trace[i]`` is false, a record equals only
    itself, and editing a record edits that copy only.  A copy or a pickle
    holds the fields only.  ``point`` is a read-only row of the trace's
    storage; the trace keeps no residual vector, so a record's
    ``per_index_residuals`` are swept from that row when first read, bit
    for bit those of the run, and kept read-only on the record.
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
    # of IterationRecord, one per visited iterate, built on access from the
    # run's columns; read-only, and a slice of it is a tuple
    trace: Sequence
    # the drift max_k ||x^k - x^0|| exceeded 2 sigma, which proves that the
    # run's sigma did not exceed d(x^0, Q) as it must
    sigma_refuted: bool = False
