"""The block-iterative fixed-point iteration with in-budget perturbations.

One update from x^k is x^k + lambda_k (T_{w_k}(x^k) - x^k) + e^k, where
T_w is the w-weighted combination of the operators and e^k aggregates
per-operator perturbations drawn inside the adaptive budget.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Optional

import numpy as np

from .core import (
    _NONNEGATIVE,
    _POSITIVE,
    DimensionMismatch,
    InvalidConfig,
    InvalidProblem,
    InvalidSchedule,
    IterationRecord,
    LambdaOutOfRange,
    NonfiniteIterate,
    RunResult,
    RunStatus,
    SolverConfig,
    _converted,
    _integer,
    _norm,
    as_vector,
    normalize_sigma,
    validate_config,
)
from .cutters import Cutter
from .perturbation import PerturbationStream, ZeroPolicy, _budgets
from .weights import SequentialCyclic

WITNESS_RESIDUAL_TOL = 1e-10


@dataclass
class Problem:
    """A family of cutters with a common fixed point, a start and a radius.

    ``sigma`` is a float that must exceed the (unknown) distance from x0 to
    the common fixed-point set; INFINITE_SIGMA (``math.inf``) is always
    safe and disables perturbations.  ``witness`` is an optional known
    common fixed point used by audits; ``cost`` (value/grad) is the
    superiorized policy's cost where a config file names none.
    """

    dimension: int
    cutters: tuple
    x0: np.ndarray
    sigma: float
    witness: Optional[np.ndarray] = None
    cost: Optional[object] = None

    def __post_init__(self):
        self.dimension = _integer(self.dimension, "dimension", InvalidProblem, 1)
        self.cutters = _converted(self.cutters, "cutters", InvalidProblem, None, tuple,
                                  "a list of cutters")
        if not self.cutters:
            raise InvalidProblem("need at least one cutter")
        for idx, c in enumerate(self.cutters):
            if not isinstance(c, Cutter):
                raise InvalidProblem(f"cutter {idx} must be a Cutter, got {c!r}")
            if c.dim is not None and c.dim != self.dimension:
                raise DimensionMismatch(
                    f"cutter {idx} has dimension {c.dim}, problem has {self.dimension}"
                )
        if getattr(self.cost, "dim", None) not in (None, self.dimension):
            raise DimensionMismatch(f"cost has dimension {self.cost.dim}, expected {self.dimension}")
        self.x0 = as_vector(self.x0, self.dimension, name="x0")
        self.sigma = normalize_sigma(self.sigma)
        if self.witness is not None:
            self.witness = as_vector(self.witness, self.dimension, name="witness")
            # an overflowing residual is inf or NaN, which the comparison refuses
            with np.errstate(over="ignore", invalid="ignore"):
                residuals = _Sweep(self.cutters, self.dimension).residuals(self.witness)[0]
            violated = np.flatnonzero(~(residuals <= WITNESS_RESIDUAL_TOL))
            if violated.size:
                idx = int(violated[0])
                raise InvalidProblem(
                    f"witness violates cutter {idx}: residual {residuals[idx]:.3e}"
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


def _check_rules(problem, stopping):
    for rule in stopping:
        if isinstance(rule, ResidualBelow):
            _converted(rule.tol, "ResidualBelow tol", InvalidConfig, _NONNEGATIVE)
        elif isinstance(rule, MaxDistance):
            _converted(rule.eps, "MaxDistance eps", InvalidConfig, _NONNEGATIVE)
            for idx, c in enumerate(problem.cutters):
                if c.fixed_point_distance(problem.x0) is None:
                    raise InvalidConfig(
                        f"MaxDistance needs distance support, cutter {idx} has none"
                    )
        elif isinstance(rule, MaxFunctionValue):
            _converted(rule.eps, "MaxFunctionValue eps", InvalidConfig, _NONNEGATIVE)
            for idx, c in enumerate(problem.cutters):
                if not hasattr(c, "level_value"):
                    raise InvalidConfig(
                        f"MaxFunctionValue needs level functions, cutter {idx} has none"
                    )
        else:
            raise InvalidConfig(f"unknown stopping rule {rule!r}")


def _fired_status(problem, stopping, x, max_res):
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
    return None


# ---------------------------------------------------------------------------
# iteration internals

class _Sweep:
    """The operators of one run.  Halfspaces and hyperplanes are the rows of
    one matrix, so one matvec gives all of their residuals and one more their
    weighted steps; every other kind is applied one by one."""

    def __init__(self, cutters, dimension):
        rows = [(i, c.linear_row) for i, c in enumerate(cutters) if c.linear_row is not None]
        self.m = len(cutters)
        self.rows = np.array([i for i, _ in rows], dtype=np.intp)
        self.A = np.array([a for _, (a, _, _, _) in rows], dtype=float).reshape(
            len(rows), dimension)
        self.b = np.array([b for _, (_, b, _, _) in rows], dtype=float)
        # excess = max(<a, x> - b, floor): a halfspace counts only its
        # violation; without halfspaces the maximum changes nothing
        self.floor = None
        if any(one_sided for _, (_, _, one_sided, _) in rows):
            self.floor = np.array([0.0 if one_sided else -np.inf
                                   for _, (_, _, one_sided, _) in rows])
        # <a, a> as each cutter summed it when it was built
        self.aa = np.array([aa for _, (_, _, _, aa) in rows], dtype=float)
        self.norms = np.sqrt(self.aa)
        self.others = [(i, c) for i, c in enumerate(cutters) if c.linear_row is None]

    def residuals(self, x, out=None):
        """||T_i(x) - x|| for every i, written into ``out`` (a new vector
        when None), the rows' excesses and the other operators' steps
        T_i(x) - x.  When every operator is a row, the rows' residuals are
        all of them, in index order."""
        residuals = np.empty(self.m) if out is None else out
        excess = self.A @ x
        excess -= self.b
        if self.floor is not None:
            np.maximum(excess, self.floor, out=excess)
        if not self.others:
            np.abs(excess, out=residuals)
            residuals /= self.norms
            return residuals, excess, []
        residuals[self.rows] = np.abs(excess) / self.norms
        steps = []
        for i, c in self.others:
            d = c.apply(x) - x
            steps.append(d)
            residuals[i] = _norm(d)
        return residuals, excess, steps

    def update(self, x, lam, w, excess, steps, out):
        """x + lam sum_i w_i (T_i(x) - x), written into ``out``, where a
        row's T_i(x) - x is -(excess_i / |a_i|^2) a_i."""
        np.matmul(self.A.T, (w[self.rows] if self.others else w) * excess / self.aa, out=out)
        # negated first: -s + t rounds an exact zero to +0.0 where
        # -(s - t) gives -0.0
        np.negative(out, out=out)
        for (i, _), d in zip(self.others, steps):
            if w[i] > 0.0:
                out += w[i] * d
        out *= lam
        out += x
        return out


# rows of one block of a run's trace.  The run allocates its blocks one at a
# time, so no buffer is copied to grow, and cuts the last one down to the
# rows it used.
_BLOCK_ROWS = 256

# the scalar columns of a trace block; the last is there only with a witness
_MAX_RESIDUAL, _PERTURBATION, _LAM, _FROM_START, _TO_WITNESS = range(5)


def _row_norms(d):
    """||d_j|| for each row of ``d``, bit for bit ``_norm(d_j)``: ``matmul``
    of a row with itself as a column calls the dot that ``_norm`` calls."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


class _Record(IterationRecord):
    """A record of a run's trace, built with its residuals' slot empty.
    Python calls ``__getattr__`` only where a lookup fails, as reading an
    empty slot does: the residuals of the trace row the record was built
    from are swept into the slot there, so a record whose ``point`` was
    replaced still reports them.  Any other name fails as it would."""

    __slots__ = ("_row", "_trace")

    def __getattr__(self, name):
        if name == "per_index_residuals":
            self.per_index_residuals = self._trace._residuals(self._row)
        return super().__getattribute__(name)

    def __reduce__(self):
        """A copy or a pickle is an IterationRecord of the fields, not the run."""
        return IterationRecord, tuple(getattr(self, f.name) for f in fields(IterationRecord))


class _Trace(Sequence):
    """The records of one run, built when they are read.  Block b holds
    iterates b * rows onwards: their points as the rows of a matrix, and
    their scalar columns.  Every block is read-only, and so are the rows a
    record holds.  A record's residual vector is swept from its point row
    by the run's own cutters, stacked once, when the first one is read."""

    def __init__(self, blocks, rows, length, cutters, dimension):
        self._blocks = blocks
        self._rows = rows
        self._len = length
        self._cutters = cutters
        self._dimension = dimension
        self._sweep = None

    def __len__(self):
        return self._len

    def __getitem__(self, key):
        # indexing a range normalizes a negative index, raises IndexError
        # outside the trace and gives the indices of a slice as a range
        at = range(self._len)[key]
        if isinstance(at, int):
            return next(self._records(at, at + 1))
        if not at:
            return ()
        lo = min(at)
        return tuple(self._records(lo, max(at) + 1))[at.start - lo::at.step]

    def __iter__(self):
        return self._records(0, self._len)

    def _scalar_columns(self):
        """Per block: the k of its first row, and its scalar columns as
        lists of floats in IterationRecord's field order: max_residual,
        perturbation_norm, lam, distance_from_start and, with a witness,
        distance_to_witness."""
        for b, (_, columns) in enumerate(self._blocks):
            yield b * self._rows, columns.T.tolist()

    def _residuals(self, point):
        """||T_i(point) - point|| for every i, read-only: the bits the run
        swept from the same row."""
        if self._sweep is None:
            self._sweep = _Sweep(self._cutters, self._dimension)
        residuals = self._sweep.residuals(point)[0]
        residuals.flags.writeable = False
        return residuals

    def _records(self, start, stop):
        """The records of iterates start..stop - 1, a block at a time."""
        rows = self._rows
        for b in range(start // rows, (stop - 1) // rows + 1):
            points, columns = self._blocks[b]
            s, e = max(start - b * rows, 0), min(stop - b * rows, rows)
            cols = columns[s:e].T.tolist()
            to_witness = cols[_TO_WITNESS] if len(cols) > _TO_WITNESS else repeat(None)
            for rec in map(_Record, range(b * rows + s, b * rows + e), points[s:e],
                           cols[_MAX_RESIDUAL], repeat(None), cols[_PERTURBATION], cols[_LAM],
                           cols[_FROM_START], to_witness):
                del rec.per_index_residuals
                rec._row, rec._trace = rec.point, self
                yield rec


def _finished(problem, blocks, rows, length):
    """The trace of a run whose iterates 0..length - 1 fill ``blocks``, and
    its drift max_k ||x^k - x^0||.  The last block is cut down to its used
    rows; the distances to x0 and to the witness are computed a block at a
    time, then every block is made read-only, before any record views it."""
    used = length - (len(blocks) - 1) * rows
    if used < rows:
        blocks[-1] = tuple(a[:used].copy() for a in blocks[-1])
    x0, witness = problem.x0, problem.witness
    drift = 0.0
    for block in blocks:
        points, columns = block
        d = points - x0
        columns[:, _FROM_START] = _row_norms(d)
        if witness is not None:
            np.subtract(points, witness, out=d)
            columns[:, _TO_WITNESS] = _row_norms(d)
        drift = max(drift, float(columns[:, _FROM_START].max()))
        for a in block:
            a.flags.writeable = False
    return _Trace(blocks, rows, length, problem.cutters, problem.dimension), drift


def run(problem, config=None, schedule=None, policy=None, stopping=None):
    """Iterate until a stopping rule fires or the iteration cap is reached.

    Defaults: a unit relaxation SolverConfig, cyclic control, no
    perturbations, and ResidualBelow(config.residual_tolerance).  The trace
    is a read-only sequence of one record per visited iterate, built when
    read, the last one describing ``final_point``; ``sigma_refuted`` says
    whether some iterate drifted more than 2 sigma from x0.  Each lambda_k is checked against [tau1, 2 - tau2]
    before the update that uses it (LambdaOutOfRange).  The iteration cap
    ``config.max_iterations`` is checked after the rules, so a rule that
    fires at the cap gives its own status.
    """
    if config is None:
        config = SolverConfig()
    validate_config(config)
    if schedule is None:
        schedule = SequentialCyclic(problem.m)
    if schedule.m != problem.m:
        raise InvalidSchedule(f"schedule covers {schedule.m} operators, problem has {problem.m}")
    if policy is None:
        policy = ZeroPolicy()
    if getattr(getattr(policy, "cost", None), "dim", None) not in (None, problem.dimension):
        raise DimensionMismatch(
            f"policy cost has dimension {policy.cost.dim}, expected {problem.dimension}")
    if stopping is None:
        stopping = [ResidualBelow(config.residual_tolerance)]
    stopping = _converted(stopping, "stopping", InvalidConfig, None, tuple,
                          "a list of stopping rules")
    _check_rules(problem, stopping)
    sigma = normalize_sigma(config.sigma if config.sigma is not None else problem.sigma)
    lo, hi = float(config.tau1), 2.0 - float(config.tau2)

    sweep = _Sweep(problem.cutters, problem.dimension)
    stream = None
    if not isinstance(policy, ZeroPolicy) and math.isfinite(sigma):
        stream = PerturbationStream(config.seed)
        # a weight table holds each of its rows as its support
        table = getattr(schedule, "_table", None)
    # the trace as blocks of a point matrix and scalar columns: row r of
    # block b holds iterate b * rows + r, which the update writes there; the
    # scalar columns wait for the distances until the run ends
    rows = _BLOCK_ROWS
    shapes = ((rows, problem.dimension), (rows, _TO_WITNESS + (problem.witness is not None)))
    blocks = [tuple(map(np.empty, shapes))]
    x = blocks[0][0][0]
    x[:] = problem.x0
    # every iterate's residuals, swept into one vector
    swept = np.empty(problem.m)
    k = 0
    while True:
        r = k % rows
        if not r:
            columns = blocks[-1][1]
        residuals, excess, steps = sweep.residuals(x, swept)
        # the reduction that ndarray.max calls, without its wrapper
        max_res = float(np.maximum.reduce(residuals))
        if not math.isfinite(max_res):
            raise NonfiniteIterate(f"non-finite residual at k={k}")
        status = _fired_status(problem, stopping, x, max_res)
        if status is None and k >= config.max_iterations:
            status = RunStatus.MAX_ITERATIONS
        lam = config.lambda_schedule(k)
        columns[r, _MAX_RESIDUAL] = max_res
        columns[r, _LAM] = lam
        if status is not None:
            columns[r, _PERTURBATION] = 0.0
            trace, drift = _finished(problem, blocks, rows, k + 1)
            return RunResult(as_vector(x), status, k, trace, drift > 2.0 * sigma)
        # a comparison that NaN fails
        if not lo <= lam <= hi:
            raise LambdaOutOfRange(k, lam, lo, hi)
        w = schedule.weights_at(k)
        if r + 1 == rows:
            blocks.append(tuple(map(np.empty, shapes)))
        x_next = sweep.update(x, lam, w, excess, steps, blocks[-1][0][(r + 1) % rows])
        pert_norm = 0.0
        if stream is not None:
            # e^k: the policy's perturbations over the support of w, in index
            # order and each inside its budget; a policy that draws resets the
            # stream to iteration k's, keyed by (seed, k), through the accessor
            if table is None:
                indices = np.flatnonzero(w > 0.0)
                weights = w[indices]
            else:
                indices, weights = table.support(k)
            # a support of every index takes the residuals as they are
            if indices.size < residuals.size:
                residuals = residuals[indices]
            budgets = _budgets(lam, residuals, sigma, max_res)
            e = policy.combined(x, weights, budgets, lambda: stream.at(k))
            x_next += e
            pert_norm = _norm(e)
        if np.count_nonzero(np.isfinite(x_next)) < x_next.size:
            raise NonfiniteIterate(f"non-finite iterate after step k={k}")
        columns[r, _PERTURBATION] = pert_norm
        x = x_next
        k += 1


# ---------------------------------------------------------------------------
# sigma estimation

def sigma_from_ball(c0, r, x0, margin):
    """Admissible sigma when the solution set sits inside B[c0, r].

    r + ||x0 - c0|| bounds d(x0, Q) from above; the positive margin keeps
    the required strict inequality.
    """
    margin = _converted(margin, "margin", InvalidProblem, _POSITIVE)
    r = _converted(r, "radius", InvalidProblem, _NONNEGATIVE)
    c0 = as_vector(c0, name="c0")
    x0 = as_vector(x0, c0.size, name="x0")
    return r + _norm(x0 - c0) + margin


def sigma_from_l1(x0, epsilon, margin):
    """Admissible sigma for problems constrained to ||x||_1 <= epsilon.

    Any solution then has Euclidean norm at most epsilon, so
    ||x0|| + epsilon bounds d(x0, Q); the positive margin keeps the strict
    inequality.
    """
    margin = _converted(margin, "margin", InvalidProblem, _POSITIVE)
    epsilon = _converted(epsilon, "epsilon", InvalidProblem, _POSITIVE)
    return _norm(as_vector(x0, name="x0")) + epsilon + margin


# ---------------------------------------------------------------------------
# audits

def fejer_audit(trace, witness):
    """Worst increase of ||x^k - q|| along a trace; <= 0 means monotone.

    The caller asserts that ``witness`` is a common fixed point with
    ||x^0 - witness|| <= 2 sigma.
    """
    points = [rec.point for rec in trace]
    q = as_vector(witness, points[0].size if points else None, name="witness")
    distances = [_norm(p - q) for p in points]
    if len(distances) < 2:
        return 0.0
    return max(b - a for a, b in zip(distances, distances[1:]))
