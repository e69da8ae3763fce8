"""The block-iterative fixed-point iteration with in-budget perturbations.

One update from x^k is x^k + lambda_k (T_{w_k}(x^k) - x^k) + e^k, where
T_w is the w-weighted combination of the operators and e^k aggregates
per-operator perturbations drawn inside the adaptive budget.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DimensionMismatch,
    InfeasibleWitness,
    IterationRecord,
    InvalidSchedule,
    InvalidStoppingRule,
    NonfiniteIterate,
    RunResult,
    RunStatus,
    SolverConfig,
    as_vector,
    normalize_sigma,
    sigma_is_finite,
    validate_config,
)
from .perturbation import ZeroPolicy, budget, perturbation_rng

WITNESS_RESIDUAL_TOL = 1e-10


@dataclass
class Problem:
    """A family of cutters with a common fixed point, a start and a radius.

    ``sigma`` must exceed the (unknown) distance from x0 to the common
    fixed-point set; INFINITE_SIGMA is always safe and disables
    perturbations.  ``witness`` is an optional known common fixed point used
    by audits; ``cost`` (value/grad) feeds superiorization and the
    function-value stopping rule.
    """

    dimension: int
    cutters: tuple
    x0: np.ndarray
    sigma: object
    witness: Optional[np.ndarray] = None
    cost: Optional[object] = None

    def __post_init__(self):
        self.dimension = int(self.dimension)
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.cutters = tuple(self.cutters)
        if not self.cutters:
            raise ValueError("need at least one cutter")
        for idx, c in enumerate(self.cutters):
            if c.dim is not None and c.dim != self.dimension:
                raise DimensionMismatch(
                    f"cutter {idx} has dimension {c.dim}, problem has {self.dimension}"
                )
        self.x0 = as_vector(self.x0, self.dimension, name="x0")
        self.sigma = normalize_sigma(self.sigma)
        if self.witness is not None:
            self.witness = as_vector(self.witness, self.dimension, name="witness")
            for idx, c in enumerate(self.cutters):
                res = c.residual(self.witness)
                if res > WITNESS_RESIDUAL_TOL:
                    raise InfeasibleWitness(
                        f"witness violates cutter {idx}: residual {res:.3e}"
                    )

    @property
    def m(self):
        return len(self.cutters)


# ---------------------------------------------------------------------------
# stopping rules

@dataclass(frozen=True)
class ResidualBelow:
    """Stop when max_i ||T_i(x) - x|| <= tol."""

    tol: float


@dataclass(frozen=True)
class MaxDistance:
    """Stop when max_i d(x, Q_i) <= eps; needs distance support on every cutter."""

    eps: float


@dataclass(frozen=True)
class MaxFunctionValue:
    """Stop when max_i f_i(x) <= eps; needs level functions on every cutter."""

    eps: float


@dataclass(frozen=True)
class MaxIterations:
    """Stop after ``limit`` update steps."""

    limit: int


def _check_rules(problem, stopping):
    for rule in stopping:
        if isinstance(rule, MaxDistance):
            for idx, c in enumerate(problem.cutters):
                if c.fixed_point_distance(problem.x0) is None:
                    raise InvalidStoppingRule(
                        f"MaxDistance needs distance support, cutter {idx} has none"
                    )
        elif isinstance(rule, MaxFunctionValue):
            for idx, c in enumerate(problem.cutters):
                if not hasattr(c, "level_value"):
                    raise InvalidStoppingRule(
                        f"MaxFunctionValue needs level functions, cutter {idx} has none"
                    )
        elif not isinstance(rule, (ResidualBelow, MaxIterations)):
            raise InvalidStoppingRule(f"unknown stopping rule {rule!r}")


def _fired_status(problem, stopping, k, x, max_res):
    for rule in stopping:
        if isinstance(rule, ResidualBelow):
            if max_res <= rule.tol:
                return RunStatus.RESIDUAL_CONVERGED
        elif isinstance(rule, MaxDistance):
            if max(c.fixed_point_distance(x) for c in problem.cutters) <= rule.eps:
                return RunStatus.DISTANCE_CONVERGED
        elif isinstance(rule, MaxFunctionValue):
            if max(c.level_value(x) for c in problem.cutters) <= rule.eps:
                return RunStatus.FUNCTION_CONVERGED
        elif isinstance(rule, MaxIterations):
            if k >= rule.limit:
                return RunStatus.MAX_ITERATIONS
    return None


# ---------------------------------------------------------------------------
# iteration internals

def residual_sweep(problem, x):
    """Fixed-point residuals of every cutter at x."""
    x = np.asarray(x, dtype=float)
    return np.array([c.residual(x) for c in problem.cutters])


def _sweep(cutters, x):
    applied = [c.apply(x) for c in cutters]
    residuals = np.array([float(np.linalg.norm(t - x)) for t in applied])
    return applied, residuals


def _update(x, applied, residuals, w, lam, sigma, policy, seed, k):
    support = np.nonzero(w > 0.0)[0]
    combined = np.zeros_like(x)
    for i in support:
        combined += w[i] * (applied[i] - x)
    e = np.zeros_like(x)
    if not isinstance(policy, ZeroPolicy) and sigma_is_finite(sigma):
        for i in support:
            b = budget(lam, residuals[i], sigma)
            if b > 0.0:
                e += w[i] * policy.generate(b, x, perturbation_rng(seed, k, i))
    return x + lam * combined + e, float(np.linalg.norm(e))


def _record(problem, k, x, residuals, pert_norm, lam):
    dist_witness = None
    if problem.witness is not None:
        dist_witness = float(np.linalg.norm(x - problem.witness))
    return IterationRecord(
        k=k,
        point=as_vector(x),
        max_residual=float(residuals.max()),
        per_index_residuals=as_vector(residuals, name="residuals"),
        perturbation_norm=pert_norm,
        lam=lam,
        distance_from_start=float(np.linalg.norm(x - problem.x0)),
        distance_to_witness=dist_witness,
    )


def _effective_sigma(problem, config):
    return normalize_sigma(config.sigma if config.sigma is not None else problem.sigma)


def run(problem, config=None, schedule=None, policy=None, stopping=None):
    """Iterate until a stopping rule fires or the iteration cap is reached.

    Defaults: a unit relaxation SolverConfig, cyclic control, no
    perturbations, and ResidualBelow(config.residual_tolerance).  The trace
    holds one record per visited iterate, the last one describing
    ``final_point``.
    """
    from .weights import SequentialCyclic

    if config is None:
        config = SolverConfig()
    validate_config(config)
    if schedule is None:
        schedule = SequentialCyclic(problem.m)
    if schedule.m != problem.m:
        raise InvalidSchedule(f"schedule covers {schedule.m} operators, problem has {problem.m}")
    if policy is None:
        policy = ZeroPolicy()
    if stopping is None:
        stopping = [ResidualBelow(config.residual_tolerance)]
    _check_rules(problem, stopping)
    sigma = _effective_sigma(problem, config)

    cutters = problem.cutters
    x = np.array(problem.x0)
    trace = []
    k = 0
    while True:
        applied, residuals = _sweep(cutters, x)
        max_res = float(residuals.max())
        status = _fired_status(problem, stopping, k, x, max_res)
        if status is None and k >= config.max_iterations:
            status = RunStatus.MAX_ITERATIONS
        lam = config.lambda_schedule(k)
        if status is not None:
            trace.append(_record(problem, k, x, residuals, 0.0, lam))
            return RunResult(as_vector(x), status, k, tuple(trace))
        w = schedule.weights_at(k)
        x_next, pert_norm = _update(x, applied, residuals, w, lam, sigma, policy, config.seed, k)
        if not np.all(np.isfinite(x_next)):
            raise NonfiniteIterate(f"non-finite iterate after step k={k}")
        trace.append(_record(problem, k, x, residuals, pert_norm, lam))
        x = x_next
        k += 1


# ---------------------------------------------------------------------------
# sigma estimation

def sigma_from_ball(c0, r, x0, margin):
    """Admissible sigma when the solution set sits inside B[c0, r].

    r + ||x0 - c0|| bounds d(x0, Q) from above; the positive margin keeps
    the required strict inequality.
    """
    margin = float(margin)
    if margin <= 0:
        raise ValueError("margin must be positive")
    r = float(r)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    c0 = as_vector(c0, name="c0")
    x0 = as_vector(x0, c0.size, name="x0")
    return r + float(np.linalg.norm(x0 - c0)) + margin


def sigma_from_l1(x0, epsilon, margin):
    """Admissible sigma for problems constrained to ||x||_1 <= epsilon.

    Any solution then has Euclidean norm at most epsilon, so
    ||x0|| + epsilon bounds d(x0, Q); the positive margin keeps the strict
    inequality.
    """
    margin = float(margin)
    if margin <= 0:
        raise ValueError("margin must be positive")
    epsilon = float(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return float(np.linalg.norm(as_vector(x0, name="x0"))) + epsilon + margin


# ---------------------------------------------------------------------------
# audits

def fejer_audit(trace, witness):
    """Worst increase of ||x^k - q|| along a trace; <= 0 means monotone.

    The caller asserts that ``witness`` is a common fixed point with
    ||x^0 - witness|| <= 2 sigma.
    """
    q = as_vector(witness, name="witness")
    distances = [float(np.linalg.norm(rec.point - q)) for rec in trace]
    if len(distances) < 2:
        return 0.0
    return max(b - a for a, b in zip(distances, distances[1:]))
