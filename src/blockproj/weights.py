"""Weight schedules over the operator index set: one vector w_k per iteration.

The support pattern of w_k encodes the control regime: sequential (one
positive weight), simultaneous (all positive) or block-iterative (positive
exactly on a selected subset).  All indices are 0-based here; file formats
use 1-based indices (see cli).

A schedule whose weights cycle through a fixed table (cyclic, simultaneous
uniform, classical blocks, tabled repetitive control or uniform blocks)
builds and checks the rows of its period once, at construction; one that
computes its weights, from a callable or from k, is checked on every call.
"""

import operator

import numpy as np

from .core import InvalidSchedule, _converted, _integer, _rule, _table

_SUM_TOL = 1e-12


def _indices(block, name):
    """A nonempty list of integer indices as a tuple, each entry checked."""
    return _table(block, name, InvalidSchedule, operator.index, "an integer index",
                  "a list of integer indices")


def _index_rule(rule, m, name):
    """A callable or a table of indices in 0..m-1, as ``_rule`` returns it."""
    def index(i, k):
        i = _integer(i, name, InvalidSchedule, None, "an integer index")
        if not 0 <= i < m:
            raise InvalidSchedule(f"{name} returned index {i} outside 0..{m - 1}")
        return i
    return _rule(rule, name, InvalidSchedule, index, "a callable or a list of integer indices")


class _Table:
    """A fixed period of weight vectors, built and checked once.

    Row j is ``values[s:e]`` at ``indices[s:e]`` and 0 elsewhere, where
    (s, e) = (bounds[j], bounds[j + 1]); the caller guarantees in-range
    indices, ascending within a row, and nonempty rows.  Once checked, a row
    keeps only its positive weights, so its support is its two slices.  All
    of it is read-only.  A short period, period x m <= 8 (m + the stored
    weights), builds every row once and ``at`` hands out the same object
    each period; a longer one builds a row per call, in O(m + the stored
    weights) memory.
    """

    def __init__(self, m, indices, values, sizes):
        self.m = m
        self.indices = np.asarray(indices, dtype=np.intp)
        self.values = np.asarray(values, dtype=float)
        bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        # Python ints, which slice faster than numpy's
        self.bounds = bounds.tolist()
        self.period = len(self.bounds) - 1
        # weights_at's check of a computed vector, on every row at once:
        # comparisons that NaN fails
        starts = bounds[:-1]
        inside = np.logical_and.reduceat((self.values >= 0) & (self.values <= 1), starts)
        sums = np.add.reduceat(self.values, starts)
        bad = np.flatnonzero(~(inside & (np.abs(sums - 1.0) <= _SUM_TOL)))
        if bad.size:
            j = int(bad[0])
            raise InvalidSchedule(f"invalid weight vector at k={j}: {self._row(j)}")
        # a row sums to 1, so it keeps at least one weight
        keep = self.values > 0.0
        if not keep.all():
            self.indices, self.values = self.indices[keep], self.values[keep]
            self.bounds = [0, *np.cumsum(np.add.reduceat(keep, starts)).tolist()]
        self.indices.flags.writeable = self.values.flags.writeable = False
        self.rows = None
        if self.period * m <= 8 * (m + self.values.size):
            self.rows = [self._row(j) for j in range(self.period)]

    def _row(self, j):
        indices, values = self.support(j)
        w = np.zeros(self.m)
        w[indices] = values
        w.flags.writeable = False
        return w

    def at(self, k):
        j = k % self.period
        return self._row(j) if self.rows is None else self.rows[j]

    def support(self, k):
        """Row k's positive indices, ascending, and its weights on them."""
        j = k % self.period
        s, e = self.bounds[j], self.bounds[j + 1]
        return self.indices[s:e], self.values[s:e]


def _one_hot(m, indices):
    """The table whose rows put weight 1 on one index each, in order."""
    size = len(indices)
    return _Table(m, indices, np.ones(size), np.ones(size, dtype=np.intp))


class WeightSchedule:
    """Base class: deterministic map from iteration index k to a weight vector.

    A subclass sets ``_table`` to a ``_Table`` when its weights cycle through
    a fixed period, else it computes w_k in ``_weights``.
    """

    regime = "abstract"
    _table = None

    def __init__(self, m):
        self.m = _integer(m, "m", InvalidSchedule, 1)

    def weights_at(self, k):
        """Weight vector at iteration k: nonnegative entries summing to 1.

        A row of a fixed table was checked at construction and is read-only
        (a short period hands out the same vector each period); a computed
        vector is checked here.
        """
        k = _integer(k, "k", InvalidSchedule, 0)
        if self._table is not None:
            return self._table.at(k)
        w = np.asarray(self._weights(k), dtype=float)
        if w.shape != (self.m,):
            raise InvalidSchedule(f"schedule produced shape {w.shape}, expected ({self.m},)")
        # the reductions of ndarray.min, max and sum, without their wrappers:
        # min and max propagate NaN, and NaN fails every comparison
        if not (np.minimum.reduce(w) >= 0 and np.maximum.reduce(w) <= 1
                and abs(float(np.add.reduce(w)) - 1.0) <= _SUM_TOL):
            raise InvalidSchedule(f"invalid weight vector at k={k}: {w}")
        return w

    def _weights(self, k):
        raise InvalidSchedule(f"{type(self).__name__} defines neither a table nor _weights")


class SequentialCyclic(WeightSchedule):
    """Weight 1 on index k mod m: the classical cyclic control."""

    regime = "sequential_cyclic"

    def __init__(self, m):
        super().__init__(m)
        self._table = _one_hot(self.m, np.arange(self.m))


class SequentialAlmostCyclic(WeightSchedule):
    """Every index appears at least once in each window of ``period_bound`` (m if None).

    Window order is a seeded shuffle: a permutation of all indices padded
    with random repeats, reshuffled per window, derived from
    (order_seed, window) only.
    """

    regime = "sequential_almost_cyclic"

    def __init__(self, m, period_bound=None, order_seed=0):
        super().__init__(m)
        period_bound = self.m if period_bound is None else period_bound
        self.period_bound = _integer(period_bound, "period_bound", InvalidSchedule, self.m)
        self.order_seed = _integer(order_seed, "order_seed", InvalidSchedule, 0)

    def _window_order(self, window):
        rng = np.random.default_rng([self.order_seed, window])
        order = np.concatenate(
            [rng.permutation(self.m), rng.integers(0, self.m, self.period_bound - self.m)]
        )
        rng.shuffle(order)
        return order

    def _weights(self, k):
        window, offset = divmod(k, self.period_bound)
        w = np.zeros(self.m)
        w[self._window_order(window)[offset]] = 1.0
        return w


class SequentialRepetitive(WeightSchedule):
    """Weight 1 on control(k); the caller asserts the control is repetitive.

    ``control`` is a callable k -> index or a finite sequence that is cycled;
    every entry of a sequence is checked at construction.
    """

    regime = "sequential_repetitive"

    def __init__(self, m, control):
        super().__init__(m)
        self.control, table = _index_rule(control, self.m, "control")
        if table is not None:
            self._table = _one_hot(self.m, table)

    def _weights(self, k):
        w = np.zeros(self.m)
        w[self.control(k)] = 1.0
        return w


class SimultaneousUniform(WeightSchedule):
    """All operators every iteration, equal weights 1/m."""

    regime = "simultaneous_uniform"

    def __init__(self, m):
        super().__init__(m)
        self._table = _Table(self.m, np.arange(self.m), np.full(self.m, 1.0 / self.m), [self.m])


class SimultaneousDrifting(WeightSchedule):
    """Weights 1/(mk+m) everywhere except a drifting index i_k.

    The exceptional index receives (mk+1)/(mk+m), so the vector sums to 1
    exactly while every index keeps w_k(i) >= 1/(mk+m), a divergent series:
    the limit is feasible for every operator regardless of how i_k drifts.
    ``selector`` is a callable, or a table (0..m-1 when None) checked when built.
    """

    regime = "simultaneous_drifting"

    def __init__(self, m, selector=None):
        super().__init__(m)
        self.selector = _index_rule(range(self.m) if selector is None else selector, self.m,
                                    "selector")[0]

    def _weights(self, k):
        w = np.full(self.m, 1.0 / (self.m * k + self.m))
        w[self.selector(k)] = (self.m * k + 1.0) / (self.m * k + self.m)
        return w


class BlockClassicalCyclic(WeightSchedule):
    """Partition the index set into blocks and cycle through them.

    ``partition`` is a list of disjoint nonempty index lists covering
    0..m-1.  ``intra`` is "uniform" (weight 1/|block| inside the visited
    block) or an explicit list of per-block weight lists, each summing to 1.
    """

    regime = "block_classical"

    def __init__(self, m, partition, intra="uniform"):
        super().__init__(m)
        kind = "a list of index lists"
        blocks = [_indices(block, "partition block")
                  for block in _table(partition, "partition", InvalidSchedule, tuple, kind, kind)]
        if sorted(i for block in blocks for i in block) != list(range(self.m)):
            raise InvalidSchedule("partition must be disjoint and cover every index exactly once")
        self.partition = blocks
        kind = '"uniform" or a list of per-block weight lists'
        if isinstance(intra, str):
            if intra != "uniform":
                raise InvalidSchedule(f"intra must be {kind}, got {intra!r}")
            weights = [[1.0 / len(block)] * len(block) for block in blocks]
        else:
            weights = [_table(ws, "intra", InvalidSchedule, table=kind)
                       for ws in _converted(intra, "intra", InvalidSchedule, None, tuple, kind)]
            if list(map(len, weights)) != list(map(len, blocks)):
                raise InvalidSchedule("intra-block weights must match the partition shape")
        # each row in ascending index order, its weights with it
        rows = [sorted(zip(block, ws)) for block, ws in zip(blocks, weights)]
        self._table = _Table(self.m, [i for row in rows for i, _ in row],
                             [v for row in rows for _, v in row], [len(row) for row in rows])


class BlockGeneralized(WeightSchedule):
    """Arbitrary block selection: w_k is uniform on selection(k), 0 elsewhere.

    ``selection`` is a callable k -> block or a table of blocks, cycled and
    checked at construction; a table of blocks is a fixed table.
    """

    regime = "block_generalized"

    def __init__(self, m, selection):
        super().__init__(m)
        self.selection, table = _rule(selection, "selection", InvalidSchedule, self._subset,
                                      "a callable or a table of index lists")
        if table is not None:
            table = [sorted(b) for b in table]
            self._table = _Table(self.m, [i for b in table for i in b],
                                 [1.0 / len(b) for b in table for _ in b], [len(b) for b in table])

    def _subset(self, block, k):
        """The block for k as a tuple of distinct indices in 0..m-1."""
        block = _converted(block, "selection", InvalidSchedule, None, tuple,
                           "a list of integer indices")
        if not block:
            raise InvalidSchedule(f"selection at k={k} is empty")
        block = _indices(block, "selection")
        if min(block) < 0 or max(block) >= self.m or len(set(block)) != len(block):
            raise InvalidSchedule(f"selection at k={k} is not a valid index subset: {block}")
        return block

    def _weights(self, k):
        block = self.selection(k)
        w = np.zeros(self.m)
        w[list(block)] = 1.0 / len(block)
        return w
