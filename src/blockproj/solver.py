"""The block-iterative fixed-point iteration with in-budget perturbations.

One update from x^k is x^k + lambda_k (T_{w_k}(x^k) - x^k) + e^k, where
T_w is the w-weighted combination of the operators and e^k aggregates
per-operator perturbations drawn inside the adaptive budget.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DimensionMismatch,
    InfeasibleWitness,
    IterationRecord,
    InvalidSchedule,
    InvalidStoppingRule,
    LambdaOutOfRange,
    NonfiniteIterate,
    RunResult,
    RunStatus,
    SolverConfig,
    as_vector,
    normalize_sigma,
    sigma_is_finite,
    validate_config,
)
from .perturbation import PerturbationStream, ZeroPolicy, _budgets

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


def _check_threshold(value, name):
    # a comparison that NaN fails
    if not value >= 0.0:
        raise InvalidStoppingRule(f"{name} must be >= 0, got {value}")


def _check_rules(problem, stopping):
    for rule in stopping:
        if isinstance(rule, ResidualBelow):
            _check_threshold(rule.tol, "ResidualBelow tol")
        elif isinstance(rule, MaxDistance):
            _check_threshold(rule.eps, "MaxDistance eps")
            for idx, c in enumerate(problem.cutters):
                if c.fixed_point_distance(problem.x0) is None:
                    raise InvalidStoppingRule(
                        f"MaxDistance needs distance support, cutter {idx} has none"
                    )
        elif isinstance(rule, MaxFunctionValue):
            _check_threshold(rule.eps, "MaxFunctionValue eps")
            for idx, c in enumerate(problem.cutters):
                if not hasattr(c, "level_value"):
                    raise InvalidStoppingRule(
                        f"MaxFunctionValue needs level functions, cutter {idx} has none"
                    )
        elif not isinstance(rule, MaxIterations):
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

class _Sweep:
    """The operators of one run.  Halfspaces and hyperplanes are the rows of
    one matrix, so one matvec gives all of their residuals and one more their
    weighted steps; every other kind is applied one by one."""

    def __init__(self, problem):
        cutters = problem.cutters
        rows = [(i, c.linear_row) for i, c in enumerate(cutters) if c.linear_row is not None]
        self.m = len(cutters)
        self.rows = np.array([i for i, _ in rows], dtype=np.intp)
        self.A = np.array([a for _, (a, _, _) in rows], dtype=float).reshape(
            len(rows), problem.dimension)
        self.b = np.array([b for _, (_, b, _) in rows], dtype=float)
        # excess = max(<a, x> - b, floor): a halfspace counts only its
        # violation; without halfspaces the maximum changes nothing
        self.floor = None
        if any(one_sided for _, (_, _, one_sided) in rows):
            self.floor = np.array([0.0 if one_sided else -np.inf
                                   for _, (_, _, one_sided) in rows])
        self.aa = np.array([float(np.dot(a, a)) for a in self.A])
        self.norms = np.sqrt(self.aa)
        self.others = [(i, c) for i, c in enumerate(cutters) if c.linear_row is None]

    def residuals(self, x):
        """||T_i(x) - x|| for every i, the rows' excesses and the other
        operators' steps T_i(x) - x."""
        residuals = np.empty(self.m)
        excess = self.A @ x
        excess -= self.b
        if self.floor is not None:
            np.maximum(excess, self.floor, out=excess)
        residuals[self.rows] = np.abs(excess) / self.norms
        steps = []
        for i, c in self.others:
            d = c.apply(x) - x
            steps.append(d)
            residuals[i] = _norm(d)
        return residuals, excess, steps

    def update(self, x, lam, w, excess, steps):
        """x + lam sum_i w_i (T_i(x) - x), where a row's T_i(x) - x is
        -(excess_i / |a_i|^2) a_i."""
        s = self.A.T @ (w[self.rows] * excess / self.aa)
        # negated first: -s + t rounds an exact zero to +0.0 where
        # -(s - t) gives -0.0
        np.negative(s, out=s)
        for (i, _), d in zip(self.others, steps):
            if w[i] > 0.0:
                s += w[i] * d
        s *= lam
        s += x
        return s


class _Support:
    """The support of a weight vector and the weights on it.  They are
    resolved once for each distinct read-only vector that owns its data, so
    a schedule that hands out one shared row (``SimultaneousUniform``)
    resolves them once per run; such a row cannot change.  A writable
    vector may be refilled in place by its schedule, and a read-only view
    through a writable buffer, so both are resolved on every call."""

    def __init__(self):
        self.w = None
        self.resolved = None

    def of(self, w):
        if w is not self.w or w.flags.writeable or not w.flags.owndata:
            support = np.flatnonzero(w > 0.0)
            self.w = w
            self.resolved = support, w[support]
        return self.resolved


def _perturbation(policy, stream, support, x, w, residuals, max_res, lam, sigma, k):
    """e^k: the policy's weighted perturbations over the support of ``w``,
    each inside its operator's budget, in ascending index order; budgets
    may be zero, and the policy leaves those entries out.  A policy that
    draws resets ``stream`` to iteration k's stream (keyed by (seed, k))
    through the accessor, one that does not never touches it.  ``run`` has
    checked that lam lies in [tau1, 2 - tau2], inside (0, 2)."""
    indices, weights = support.of(w)
    budgets = _budgets(lam, residuals[indices], sigma, max_res)
    return policy.combined(x, weights, budgets, lambda: stream.at(k))


def _norm(d):
    """||d|| of a 1-D float64 array, bit for bit what np.linalg.norm computes."""
    return math.sqrt(d.dot(d))


def _record(problem, k, x, residuals, max_res, pert_norm, lam):
    """The record of iterate k.  It keeps ``x`` and ``residuals`` themselves,
    made read-only: ``run`` builds both afresh every iteration and writes to
    neither once it has recorded them."""
    x.flags.writeable = False
    residuals.flags.writeable = False
    dist_witness = None
    if problem.witness is not None:
        dist_witness = _norm(x - problem.witness)
    return IterationRecord(
        k=k,
        point=x,
        max_residual=max_res,
        per_index_residuals=residuals,
        perturbation_norm=pert_norm,
        lam=lam,
        distance_from_start=_norm(x - problem.x0),
        distance_to_witness=dist_witness,
    )


def run(problem, config=None, schedule=None, policy=None, stopping=None):
    """Iterate until a stopping rule fires or the iteration cap is reached.

    Defaults: a unit relaxation SolverConfig, cyclic control, no
    perturbations, and ResidualBelow(config.residual_tolerance).  The trace
    holds one record per visited iterate, the last one describing
    ``final_point``.  Each lambda_k is checked against [tau1, 2 - tau2]
    before the update that uses it (LambdaOutOfRange).
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
    sigma = normalize_sigma(config.sigma if config.sigma is not None else problem.sigma)
    lo, hi = config.tau1, 2.0 - config.tau2

    sweep = _Sweep(problem)
    stream = None
    if not isinstance(policy, ZeroPolicy) and sigma_is_finite(sigma):
        stream = PerturbationStream(config.seed)
        support = _Support()
    x = np.array(problem.x0)
    trace = []
    k = 0
    while True:
        residuals, excess, steps = sweep.residuals(x)
        max_res = float(residuals.max())
        if not math.isfinite(max_res):
            raise NonfiniteIterate(f"non-finite residual at k={k}")
        status = _fired_status(problem, stopping, k, x, max_res)
        if status is None and k >= config.max_iterations:
            status = RunStatus.MAX_ITERATIONS
        lam = config.lambda_schedule(k)
        if status is not None:
            trace.append(_record(problem, k, x, residuals, max_res, 0.0, lam))
            return RunResult(as_vector(x), status, k, tuple(trace))
        # a comparison that NaN fails
        if not lo <= lam <= hi:
            raise LambdaOutOfRange(k, lam, lo, hi)
        w = schedule.weights_at(k)
        x_next = sweep.update(x, lam, w, excess, steps)
        pert_norm = 0.0
        if stream is not None:
            e = _perturbation(policy, stream, support, x, w, residuals, max_res, lam, sigma, k)
            x_next += e
            pert_norm = _norm(e)
        if np.count_nonzero(np.isfinite(x_next)) < x_next.size:
            raise NonfiniteIterate(f"non-finite iterate after step k={k}")
        trace.append(_record(problem, k, x, residuals, max_res, pert_norm, lam))
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
