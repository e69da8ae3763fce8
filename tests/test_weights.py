import math

import numpy as np
import pytest

from blockproj import (
    BlockClassicalCyclic,
    BlockGeneralized,
    InvalidSchedule,
    SequentialAlmostCyclic,
    SequentialCyclic,
    SequentialRepetitive,
    SimultaneousDrifting,
    SimultaneousUniform,
    WeightSchedule,
)
from blockproj.oracles import summable_last_index_schedule


def test_sequential_cyclic_example():
    sched = SequentialCyclic(3)
    assert np.array_equal(sched.weights_at(4), [0.0, 1.0, 0.0])
    assert np.array_equal(sched.weights_at(0), [1.0, 0.0, 0.0])


def test_sequential_cyclic_visits_each_index_once_per_period():
    sched = SequentialCyclic(5)
    for start in (0, 7, 40):
        visited = [int(np.argmax(sched.weights_at(k))) for k in range(start, start + 5)]
        assert sorted(visited) == list(range(5))


def test_simultaneous_uniform_example():
    sched = SimultaneousUniform(4)
    for k in (0, 3, 1000):
        assert np.allclose(sched.weights_at(k), 0.25)


def test_block_classical_example():
    sched = BlockClassicalCyclic(3, [[0, 1], [2]])
    assert np.allclose(sched.weights_at(0), [0.5, 0.5, 0.0])
    assert np.allclose(sched.weights_at(1), [0.0, 0.0, 1.0])
    assert np.allclose(sched.weights_at(2), [0.5, 0.5, 0.0])


def test_block_classical_explicit_weights():
    sched = BlockClassicalCyclic(3, [[0, 1], [2]], intra=[[0.25, 0.75], [1.0]])
    assert np.allclose(sched.weights_at(0), [0.25, 0.75, 0.0])


def _profile(sched, horizon):
    """The partial sums sum_{k<horizon} w_k(i) per index."""
    return sum(sched.weights_at(k) for k in range(horizon))


def test_divergence_profile_examples():
    assert np.allclose(_profile(SimultaneousUniform(2), 100), [50.0, 50.0])
    assert np.allclose(_profile(SequentialCyclic(2), 100), [50.0, 50.0])


def test_drifting_profile_matches_harmonic_sum():
    sched = SimultaneousDrifting(2, selector=lambda k: 0)
    profile = _profile(sched, 1000)
    reference = math.fsum(1.0 / (2 * k + 2) for k in range(1000))
    assert profile[1] == pytest.approx(reference, rel=1e-12)


def test_drifting_lower_bound_all_indices():
    for m in (1, 2, 5):
        sched = SimultaneousDrifting(m)
        for k in (0, 1, 7, 100, 99_999):
            w = sched.weights_at(k)
            assert np.all(w >= 1.0 / (m * k + m) - 1e-15)


def test_weight_vectors_valid_across_regimes():
    rng = np.random.default_rng(3)
    m = 6
    schedules = [
        SequentialCyclic(m),
        SequentialAlmostCyclic(m, m + 4, order_seed=1),
        SequentialRepetitive(m, [2, 0, 5, 1, 3, 4, 2, 2]),
        SimultaneousUniform(m),
        SimultaneousDrifting(m),
        BlockClassicalCyclic(m, [[0, 1, 2], [3], [4, 5]]),
        BlockGeneralized(m, lambda k: tuple(sorted(set([k % m, (3 * k) % m])))),
        summable_last_index_schedule(m),
    ]
    ks = sorted({0, 1, 2, 3, 17, 999, 54_321, 100_000} | set(rng.integers(0, 100_000, 40).tolist()))
    for sched in schedules:
        for k in ks:
            w = sched.weights_at(k)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            assert abs(float(w.sum()) - 1.0) <= 1e-12


def test_almost_cyclic_covers_each_window():
    sched = SequentialAlmostCyclic(4, 7, order_seed=9)
    for window in range(20):
        visited = {
            int(np.argmax(sched.weights_at(window * 7 + j))) for j in range(7)
        }
        assert visited == {0, 1, 2, 3}
    # deterministic replay
    again = SequentialAlmostCyclic(4, 7, order_seed=9)
    for k in range(50):
        assert np.array_equal(sched.weights_at(k), again.weights_at(k))


def test_almost_cyclic_period_bound_defaults_to_m():
    sched = SequentialAlmostCyclic(5, order_seed=2)
    assert sched.period_bound == 5
    spelled = SequentialAlmostCyclic(5, 5, order_seed=2)
    for k in range(20):
        assert np.array_equal(sched.weights_at(k), spelled.weights_at(k))


def test_block_generalized_support():
    selection = [(0, 2), (1,), (0, 1, 3)]
    sched = BlockGeneralized(4, selection)
    for k in range(9):
        block = selection[k % 3]
        w = sched.weights_at(k)
        assert set(np.nonzero(w)[0]) <= set(block)
        assert np.allclose(w[list(block)], 1.0 / len(block))


class _Computed(WeightSchedule):
    """w_k = rule(k), computed and checked on every call; ``calls`` lists the k."""

    def __init__(self, m, rule):
        super().__init__(m)
        self.rule, self.calls = rule, []

    def _weights(self, k):
        self.calls.append(k)
        return self.rule(k)


def test_block_generalized_custom_weights():
    # weights other than uniform inside a block are a schedule's own _weights
    sched = _Computed(3, lambda k: _block_row(3, (1, 2), [1.0, 0.0]))
    assert np.array_equal(sched.weights_at(5), [0.0, 1.0, 0.0])


def test_invalid_schedules():
    with pytest.raises(InvalidSchedule):
        BlockClassicalCyclic(3, [[0, 1], [1, 2]])  # overlapping
    with pytest.raises(InvalidSchedule):
        BlockClassicalCyclic(3, [[0, 1]])  # not covering
    with pytest.raises(InvalidSchedule):
        BlockClassicalCyclic(3, [[0, 1], []])  # empty block
    with pytest.raises(InvalidSchedule):
        BlockClassicalCyclic(3, [[0, 1], [2]], intra=[[0.5, 0.6], [1.0]])  # bad sum
    with pytest.raises(InvalidSchedule):
        SequentialAlmostCyclic(5, 3)  # window too small
    with pytest.raises(InvalidSchedule, match="order_seed must be >= 0, got -1"):
        SequentialAlmostCyclic(3, 3, order_seed=-1)  # numpy refuses it as a seed
    with pytest.raises(InvalidSchedule):
        SimultaneousUniform(0)
    with pytest.raises(InvalidSchedule):
        BlockGeneralized(3, lambda k: ()).weights_at(0)  # empty selection
    with pytest.raises(InvalidSchedule):
        SequentialRepetitive(3, [7]).weights_at(0)  # index out of range
    bad_rule = _Computed(3, lambda k: np.array([0.9, 0.9, 0.0]))
    with pytest.raises(InvalidSchedule):
        bad_rule.weights_at(0)  # weights do not sum to 1
    # NaN weights, which a check of the form v < 0 lets through
    nan = float("nan")
    for intra in ([[nan, 1.0], [1.0]], [[0.5, 0.5], [nan]]):
        with pytest.raises(InvalidSchedule):
            BlockClassicalCyclic(3, [[0, 1], [2]], intra=intra)
    nan_rule = _Computed(3, lambda k: np.array([nan, 1.0, 0.0]))
    with pytest.raises(InvalidSchedule):
        nan_rule.weights_at(0)


# ---------------------------------------------------------------------------
# fixed tables: built and checked once, equal to the per-k formula

def _unit(m, i):
    w = np.zeros(m)
    w[i] = 1.0
    return w


def _block_row(m, block, values):
    w = np.zeros(m)
    w[list(block)] = values
    return w


_PARTITION = [[0, 3], [1], [2, 4, 5]]
_INTRA = [[0.25, 0.75], [1.0], [0.2, 0.3, 0.5]]
_CONTROL = [2, 0, 5, 1, 3, 4, 2, 2]
# a selection, unlike a partition, may repeat an index across its blocks;
# these also list their indices unsorted
_SELECTION = [[4, 0], [1, 2, 5], [3], [0, 5]]

# name -> (schedule, period, the vector of iteration k as a fresh formula)
_FIXED = {
    "sequential_cyclic": (lambda: SequentialCyclic(6), 6, lambda k: _unit(6, k % 6)),
    "simultaneous_uniform": (lambda: SimultaneousUniform(6), 1, lambda k: np.full(6, 1.0 / 6)),
    "block_classical_uniform": (
        lambda: BlockClassicalCyclic(6, _PARTITION), 3,
        lambda k: _block_row(6, _PARTITION[k % 3], 1.0 / len(_PARTITION[k % 3]))),
    "block_classical_intra": (
        lambda: BlockClassicalCyclic(6, _PARTITION, intra=_INTRA), 3,
        lambda k: _block_row(6, _PARTITION[k % 3], _INTRA[k % 3])),
    "sequential_repetitive": (
        lambda: SequentialRepetitive(6, _CONTROL), len(_CONTROL),
        lambda k: _unit(6, _CONTROL[k % len(_CONTROL)])),
    "block_generalized_table": (
        lambda: BlockGeneralized(6, _SELECTION), len(_SELECTION),
        lambda k: _block_row(6, _SELECTION[k % 4], 1.0 / len(_SELECTION[k % 4]))),
}


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_fixed_schedule_rows_equal_the_formula(name):
    build, period, formula = _FIXED[name]
    sched = build()
    for k in list(range(2 * period)) + [10**9 + 7]:
        w = sched.weights_at(k)
        assert w.dtype == np.float64
        assert np.array_equal(w, formula(k))


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_table_rows_are_read_only(name):
    build, period, formula = _FIXED[name]
    sched = build()
    for k in range(period):
        w = sched.weights_at(k)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.5
        assert np.array_equal(sched.weights_at(k), formula(k))
    uniform = SimultaneousUniform(4)
    assert uniform.weights_at(0) is uniform.weights_at(9)


@pytest.mark.parametrize("name", sorted(_FIXED))
def test_prebuilt_rows_are_the_rows_built_per_call(name):
    build, period, _ = _FIXED[name]
    sched = build()
    table = sched._table
    # a short period: every row is built once and handed out each period
    assert table.rows is not None and len(table.rows) == period
    for k in range(period):
        assert table.rows[k].tobytes() == table._row(k).tobytes()
        assert sched.weights_at(k) is sched.weights_at(k + period)
        # and the support of every row is two read-only slices of the table
        indices, weights = table.support(k)
        w = sched.weights_at(k)
        assert indices.tobytes() == np.flatnonzero(w > 0.0).tobytes()
        assert weights.tobytes() == w[indices].tobytes()
        assert not (indices.flags.writeable or weights.flags.writeable)


def test_long_period_builds_rows_on_demand():
    # 100 rows of 100 floats exceed 8 (m + the stored weights) = 1600
    sched = SequentialCyclic(100)
    assert sched._table.rows is None
    w = sched.weights_at(3)
    assert w is not sched.weights_at(103) and not w.flags.writeable
    assert np.array_equal(w, _unit(100, 3))
    # its supports are slices of the table all the same
    for k in (3, 103):
        indices, weights = sched._table.support(k)
        assert indices.tolist() == [3] and weights.tolist() == [1.0]
        assert not (indices.flags.writeable or weights.flags.writeable)


def test_bad_table_refused_at_construction():
    nan = float("nan")
    for intra in ([[nan, 1.0], [1.0]], [[0.5, 0.5], [nan]], [[-0.5, 1.5], [1.0]],
                  [[0.5, 0.5], [0.999]]):
        with pytest.raises(InvalidSchedule, match="invalid weight vector at k="):
            BlockClassicalCyclic(3, [[0, 1], [2]], intra=intra)
    # an entry that a short run would never reach is refused all the same
    for control in ([0, 1, 7], [2, -1], []):
        with pytest.raises(InvalidSchedule):
            SequentialRepetitive(3, control)
    with pytest.raises(InvalidSchedule, match="^selector returned index 7 outside 0..2$"):
        SimultaneousDrifting(3, [0, 7])


def test_computed_weights_are_checked_on_every_call():
    rule = _Computed(3, lambda k: np.array([0.5, 0.0, 0.5] if k != 3 else [0.9, 0.0, 0.9]))
    for k in (0, 1, 2, 0):
        assert np.array_equal(rule.weights_at(k), [0.5, 0.0, 0.5])
    with pytest.raises(InvalidSchedule, match="k=3"):
        rule.weights_at(3)
    assert rule.calls == [0, 1, 2, 0, 3]

    control = SequentialRepetitive(3, lambda k: 1 if k < 5 else 3)
    assert np.array_equal(control.weights_at(4), [0.0, 1.0, 0.0])
    with pytest.raises(InvalidSchedule, match="control returned index 3"):
        control.weights_at(5)
    drifting = SimultaneousDrifting(3, selector=lambda k: 0 if k != 2 else -1)
    drifting.weights_at(1)
    with pytest.raises(InvalidSchedule, match="selector returned index -1"):
        drifting.weights_at(2)

    repeats = BlockGeneralized(3, lambda k: (0, 2) if k != 1 else (0, 0))
    repeats.weights_at(0)
    with pytest.raises(InvalidSchedule, match=r"^selection at k=1 is not a valid index subset"):
        repeats.weights_at(1)
    short = _Computed(3, lambda k: [1.0] if k == 2 else [0.5, 0.0, 0.5])
    short.weights_at(1)
    with pytest.raises(InvalidSchedule, match=r"^schedule produced shape \(1,\), expected \(3,\)$"):
        short.weights_at(2)


def _window_order(m, period_bound, seed, window):
    rng = np.random.default_rng([seed, window])
    order = np.concatenate([rng.permutation(m), rng.integers(0, m, period_bound - m)])
    rng.shuffle(order)
    return order


def test_almost_cyclic_order_survives_jumps_across_windows():
    m, period_bound, seed = 5, 8, 4
    sched = SequentialAlmostCyclic(m, period_bound, order_seed=seed)
    for k in (0, 3, 17, 9, 2, 40, 41, 16, 0, 39, 8000):
        window, offset = divmod(k, period_bound)
        expected = _unit(m, _window_order(m, period_bound, seed, window)[offset])
        assert np.array_equal(sched.weights_at(k), expected)


def test_cyclic_table_memory_is_linear_in_m():
    # as an m x m table the period would take 8 TB
    import tracemalloc

    m = 10**6
    tracemalloc.start()
    try:
        sched = SequentialCyclic(m)
        w = sched.weights_at(999_999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w[999_999] == 1.0 and w.sum() == 1.0
    assert np.array_equal(sched.weights_at(2 * m + 5)[:7], _unit(7, 5))
    assert peak < 100 * m


def test_subclass_weights_are_checked():
    class WrongShape(WeightSchedule):
        def _weights(self, k):
            return np.ones(self.m + 1) / (self.m + 1)

    with pytest.raises(InvalidSchedule, match=r"^schedule produced shape \(4,\), expected \(3,\)$"):
        WrongShape(3).weights_at(0)
    # a vector of the right shape that is not in the simplex names its k
    nan = float("nan")
    for bad in ([nan, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.4, 0.0], [1.5, -0.5, 0.0]):
        sched = _Computed(3, lambda k: np.array(bad) if k == 4 else np.full(3, 1.0 / 3))
        sched.weights_at(3)
        with pytest.raises(InvalidSchedule, match=r"^invalid weight vector at k=4: \["):
            sched.weights_at(4)
    with pytest.raises(InvalidSchedule, match="^WeightSchedule defines neither a table nor _weights$"):
        WeightSchedule(3).weights_at(0)


def test_intra_weights_must_match_the_partition_shape():
    for intra in ([[0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]], [[1.0], [1.0]]):
        with pytest.raises(InvalidSchedule, match="^intra-block weights must match the partition"):
            BlockClassicalCyclic(3, [[0, 1], [2]], intra)
