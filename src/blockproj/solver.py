"""The block-iterative fixed-point iteration with in-budget perturbations.

One update from x^k is x^k + lambda_k (T_{w_k}(x^k) - x^k) + e^k, where
T_w is the w-weighted combination of the operators and e^k aggregates
per-operator perturbations drawn inside the adaptive budget.
"""

import functools
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
    _scaled_norm,
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
    one matrix, so one matvec gives all of their residuals; every other kind
    is applied one by one.  A step takes only the support S of its weights:
    one vector-matrix product of the excesses of the rows in S with their
    step rows (``step_rows``), then the other operators' steps in S."""

    def __init__(self, cutters, dimension):
        rows = [(i, c.linear_row) for i, c in enumerate(cutters) if c.linear_row is not None]
        self.m = len(cutters)
        self.rows = np.array([i for i, _ in rows], dtype=np.intp)
        # which operators are rows, and each one's position among the rows
        # or among the others
        self.linear = np.zeros(self.m, dtype=bool)
        self.linear[self.rows] = True
        self.place = np.empty(self.m, dtype=np.intp)
        self.place[self.rows] = np.arange(len(rows))
        self.place[~self.linear] = np.arange(self.m - len(rows))
        self.A = np.array([a for _, (a, _, _, _) in rows], dtype=float).reshape(
            len(rows), dimension)
        self.b = np.array([b for _, (_, b, _, _) in rows], dtype=float)
        # excess = max(<a, x> - b, floor): a halfspace counts only its
        # violation; without halfspaces the maximum changes nothing
        self.floor = None
        if any(one_sided for _, (_, _, one_sided, _) in rows):
            self.floor = np.array([0.0 if one_sided else -np.inf
                                   for _, (_, _, one_sided, _) in rows])
        # |a_i| from <a, a> as each cutter summed it when it was built
        self.norms = np.sqrt(np.array([aa for _, (_, _, _, aa) in rows], dtype=float))
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

    @functools.cached_property
    def units(self):
        """The unit rows a_i / |a_i| that the step rows scale, built on first
        use: a sweep that only measures residuals takes no step."""
        return self.A / self.norms[:, None]

    def step_rows(self, at, weights):
        """The step rows g_i = -(w_i / |a_i|)(a_i / |a_i|) of the rows at
        positions ``at`` (an index array or a slice) with weights
        ``weights``, so that a row's w_i (T_i(x) - x) is excess_i g_i.  Every
        operation is elementwise, so a row has the same bits however many
        are built at once; unlike w_i excess_i / |a_i|^2, no factor
        overflows or underflows where the step itself does not."""
        return self.units[at] * (-weights / self.norms[at])[:, None]

    def support(self, w, excess):
        """The step's terms over the support of a weight vector ``w``, built
        on this call: the excesses of the rows in it, their step rows, and
        (w_i, position among the others) of the other operators in it, in
        index order."""
        indices = np.flatnonzero(w)
        others = ()
        if self.others:
            linear = self.linear[indices]
            others = indices[~linear]
            others = zip(w[others].tolist(), self.place[others].tolist())
            indices = indices[linear]
        # a support of every row takes the rows as they are, without a copy
        at = self.place[indices] if indices.size < len(self.norms) else slice(None)
        return excess[at], self.step_rows(at, w[indices]), others

    def update(self, x, lam, excess, g, others, steps, out):
        """x + lam sum_{i in S} w_i (T_i(x) - x), written into ``out``, for
        the terms over S that ``support`` or a ``_TableSteps`` gives: the rows'
        sum is the product ``excess @ g``, to which each other operator's
        w_i (T_i(x) - x) is added in index order."""
        np.matmul(excess, g, out=out)
        for wi, p in others:
            out += wi * steps[p]
        # a product with 1.0 keeps every bit, and a scalar product costs
        # about as much as the matmul
        if lam != 1.0:
            out *= lam
        out += x
        return out


# a table's step terms are built once per run where its entries of each kind
# number at most this many times the operators of that kind, so that its step
# rows take at most that multiple of A's memory; a longer table, such as a
# long repetitive control, builds its row's terms on each call
_TABLE_ENTRIES_PER_OPERATOR = 4


class _TableSteps:
    """The step's terms over the support of each row of a weight table, from
    step rows built once for every stored entry with whole-array operations:
    row j's entries are one slice of them, and its excesses are one slice of
    the rows' excesses where its rows' positions are consecutive."""

    def __init__(self, sweep, table, linear):
        self.period = table.period
        self.at = sweep.place[table.indices[linear]]
        self.g = sweep.step_rows(self.at, table.values[linear])
        starts = table.bounds[:-1]
        counts = np.add.reduceat(linear, starts)
        bounds = np.concatenate(([0], np.cumsum(counts)))
        # positions ascend within a row: they are consecutive where the last
        # is the first plus the count less one; -1 marks a row that is not
        first = np.full(self.period, -1, dtype=np.intp)
        used = np.flatnonzero(counts)
        lo, hi = self.at[bounds[used]], self.at[bounds[used + 1] - 1]
        first[used] = np.where(hi - lo == counts[used] - 1, lo, -1)
        # a row with no rows takes the empty slice at 0
        first[counts == 0] = 0
        self.bounds, self.first = bounds.tolist(), first.tolist()
        self.other_bounds = None
        if sweep.others:
            others = ~linear
            self.other_bounds = np.concatenate(
                ([0], np.cumsum(np.add.reduceat(others, starts)))).tolist()
            self.other_terms = list(zip(table.values[others].tolist(),
                                        sweep.place[table.indices[others]].tolist()))

    @classmethod
    def of(cls, sweep, table):
        """The cached terms of ``table``, or None where its entries of some
        kind exceed ``_TABLE_ENTRIES_PER_OPERATOR`` times its operators."""
        if table is None:
            return None
        linear = sweep.linear[table.indices]
        rows = np.count_nonzero(linear)
        cap = _TABLE_ENTRIES_PER_OPERATOR
        if rows > cap * len(sweep.norms) or linear.size - rows > cap * len(sweep.others):
            return None
        return cls(sweep, table, linear)

    def support(self, k, excess):
        """``_Sweep.support`` for row k of the table, in O(1) and to its bits."""
        j = k % self.period
        s, e = self.bounds[j], self.bounds[j + 1]
        lo = self.first[j]
        excess = excess[lo:lo + e - s] if lo >= 0 else excess[self.at[s:e]]
        others = ()
        if self.other_bounds is not None:
            others = self.other_terms[self.other_bounds[j]:self.other_bounds[j + 1]]
        return excess, self.g[s:e], others


# rows of one block of a run's trace.  The run allocates its blocks one at a
# time, so no buffer is copied to grow, and joins them once when it ends.
_BLOCK_ROWS = 256

# the rows of a block's scalars, which the run writes
_MAX_RESIDUAL, _PERTURBATION, _LAM = range(3)


def _row_norms(d):
    """||d_j|| for each row of ``d``, bit for bit ``_norm(d_j)``: ``matmul``
    of a row with itself as a column calls the dot that ``_norm`` calls, and
    a row whose square overflows takes ``_scaled_norm`` as ``_norm`` does,
    with no numpy warning for the overflow."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])
    for j in np.flatnonzero(norms == np.inf):
        norms[j] = _scaled_norm(d[j])
    return norms


class _Record(IterationRecord):
    """A record of a run's trace, built with its residuals' slot empty.
    Python calls ``__getattr__`` only where a lookup fails, as reading an
    empty slot does: the residuals of the trace row the record was built
    from are swept into the slot there, so a record whose ``point`` or ``k``
    was replaced still reports them.  Any other name fails as it would."""

    __slots__ = ("_row", "_trace")

    def __getattr__(self, name):
        if name == "per_index_residuals":
            self.per_index_residuals = self._trace.residuals(self._row)
        return super().__getattribute__(name)

    def __reduce__(self):
        """A copy or a pickle is an IterationRecord of the fields, not the run."""
        return IterationRecord, tuple(getattr(self, f.name) for f in fields(IterationRecord))


def _frozen(a):
    """A view of ``a``, made read-only first: a view whose owner is read-only
    refuses to be made writable again, where the owner itself would not."""
    a.flags.writeable = False
    return a[...]


class _Trace(Sequence):
    """A run's trace: read-only columns with one row per visited iterate.
    ``points`` is the (iterations + 1) x n array of the iterates;
    ``max_residual``, ``perturbation_norm`` and ``lam`` are what the run
    wrote, and ``distance_from_start`` and ``distance_to_witness`` (None
    without a witness) the ``_row_norms`` of ``points`` less x0 and less the
    witness.  ``residuals(k)`` sweeps iterate k's residual vector.  As a
    sequence, the trace builds an ``IterationRecord`` view of a row when it
    is read."""

    def __init__(self, problem, blocks, length):
        """The trace of a run whose iterates 0..length - 1 fill ``blocks``
        of a point matrix and a 3-row scalar matrix each, which are joined
        once, the last cut down to its used rows, and then dropped."""
        used = length - (len(blocks) - 1) * len(blocks[0][0])
        points = np.concatenate([p for p, _ in blocks[:-1]] + [blocks[-1][0][:used]])
        scalars = np.concatenate([s for _, s in blocks[:-1]] + [blocks[-1][1][:, :used]], axis=1)
        blocks.clear()
        d = points - problem.x0
        self.distance_from_start = _frozen(_row_norms(d))
        self.distance_to_witness = None
        if problem.witness is not None:
            self.distance_to_witness = _frozen(
                _row_norms(np.subtract(points, problem.witness, out=d)))
        self.points = _frozen(points)
        self.max_residual, self.perturbation_norm, self.lam = _frozen(scalars)
        self._cutters = problem.cutters
        self._sweep = None

    def __len__(self):
        return len(self.points)

    def __getitem__(self, key):
        # indexing a range normalizes a negative index, raises IndexError
        # outside the trace and gives the indices of a slice as a range
        at = range(len(self))[key]
        if isinstance(at, int):
            return next(self._records(at, at + 1))
        if not at:
            return ()
        lo = min(at)
        return tuple(self._records(lo, max(at) + 1))[at.start - lo::at.step]

    def __iter__(self):
        return self._records(0, len(self))

    def residuals(self, k):
        """||T_i(x^k) - x^k|| for every i, read-only: the bits the run swept
        at iterate k, swept again by the run's own cutters, which are
        stacked once, on first use."""
        if self._sweep is None:
            self._sweep = _Sweep(self._cutters, self.points.shape[1])
        residuals = self._sweep.residuals(self.points[k])[0]
        residuals.flags.writeable = False
        return residuals

    def _records(self, start, stop):
        """The records of iterates start..stop - 1, their scalars converted
        to floats a block of rows at a time."""
        for s in range(start, stop, _BLOCK_ROWS):
            e = min(s + _BLOCK_ROWS, stop)
            max_residual, perturbation, lam, from_start = (
                c[s:e].tolist() for c in (self.max_residual, self.perturbation_norm, self.lam,
                                          self.distance_from_start))
            to_witness = (repeat(None) if self.distance_to_witness is None
                          else self.distance_to_witness[s:e].tolist())
            for rec in map(_Record, range(s, e), self.points[s:e], max_residual, repeat(None),
                           perturbation, lam, from_start, to_witness):
                del rec.per_index_residuals
                rec._row, rec._trace = rec.k, self
                yield rec


def run(problem, config=None, schedule=None, policy=None, stopping=None):
    """Iterate until a stopping rule fires or the iteration cap is reached.

    Defaults: a unit relaxation SolverConfig, cyclic control, no
    perturbations, and ResidualBelow(config.residual_tolerance).  The trace
    holds read-only columns with one row per visited iterate, the last one
    describing ``final_point``, and reads as a sequence of records built
    when read; ``sigma_refuted`` says whether some iterate drifted more
    than 2 sigma from x0.  Each lambda_k is checked against [tau1, 2 - tau2]
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
    sigma = normalize_sigma(problem.sigma)
    lo, hi = float(config.tau1), 2.0 - float(config.tau2)

    sweep = _Sweep(problem.cutters, problem.dimension)
    # a weight table holds each of its rows as its support
    table = getattr(schedule, "_table", None)
    table_steps = _TableSteps.of(sweep, table)
    stream = None
    if not isinstance(policy, ZeroPolicy) and math.isfinite(sigma):
        stream = PerturbationStream(config.seed)
    # the trace as blocks of a point matrix and three scalar rows: iterate
    # b * rows + r is row r of block b's points, which the update writes
    # there, and column r of its scalars; the distances wait until the run ends
    rows = _BLOCK_ROWS
    shapes = ((rows, problem.dimension), (3, rows))
    blocks = [tuple(map(np.empty, shapes))]
    x = blocks[0][0][0]
    x[:] = problem.x0
    # every iterate's residuals, swept into one vector
    swept = np.empty(problem.m)
    k = 0
    # an overflow raises no numpy warning: the finiteness checks below report
    # one in an iteration's arithmetic as NonfiniteIterate, and a trace
    # distance reads inf only where the difference itself overflows
    with np.errstate(over="ignore", invalid="ignore"):
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
            columns[_MAX_RESIDUAL, r] = max_res
            columns[_LAM, r] = lam
            if status is not None:
                columns[_PERTURBATION, r] = 0.0
                trace = _Trace(problem, blocks, k + 1)
                drift = trace.distance_from_start.max()
                return RunResult(as_vector(x), status, k, trace, bool(drift > 2.0 * sigma))
            # a comparison that NaN fails
            if not lo <= lam <= hi:
                raise LambdaOutOfRange(k, lam, lo, hi)
            w = schedule.weights_at(k)
            if r + 1 == rows:
                blocks.append(tuple(map(np.empty, shapes)))
            terms = (sweep.support(w, excess) if table_steps is None
                     else table_steps.support(k, excess))
            x_next = sweep.update(x, lam, *terms, steps, blocks[-1][0][(r + 1) % rows])
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
            columns[_PERTURBATION, r] = pert_norm
            x = x_next
            k += 1


# ---------------------------------------------------------------------------
# sigma estimation

# added to each upper bound on d(x0, Q), so sigma exceeds it strictly
_SIGMA_MARGIN = 1.0


def sigma_from_ball(c0, r, x0):
    """Admissible sigma when the solution set sits inside B[c0, r].

    r + ||x0 - c0|| bounds d(x0, Q) from above.
    """
    r = _converted(r, "radius", InvalidProblem, _NONNEGATIVE)
    c0 = as_vector(c0, name="c0")
    x0 = as_vector(x0, c0.size, name="x0")
    return r + _norm(x0 - c0) + _SIGMA_MARGIN


def sigma_from_l1(x0, epsilon):
    """Admissible sigma for problems constrained to ||x||_1 <= epsilon.

    Any solution then has Euclidean norm at most epsilon, so
    ||x0|| + epsilon bounds d(x0, Q).
    """
    epsilon = _converted(epsilon, "epsilon", InvalidProblem, _POSITIVE)
    return _norm(as_vector(x0, name="x0")) + epsilon + _SIGMA_MARGIN


# ---------------------------------------------------------------------------
# audits

def fejer_audit(points, witness):
    """Worst increase of ||x^k - q|| along the rows x^k of ``points``, such
    as a run's ``trace.points``; <= 0 means monotone.

    The caller asserts that ``witness`` is a common fixed point with
    ||x^0 - witness|| <= 2 sigma.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatch("points must be a 2-D array, one iterate per row")
    q = as_vector(witness, points.shape[1], name="witness")
    if len(points) < 2:
        return 0.0
    return float(np.diff(_row_norms(points - q)).max())
