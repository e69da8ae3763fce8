import copy
import dataclasses
import gc
import math
import os
import pickle
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from blockproj import (
    INFINITE_SIGMA,
    AffineFunction,
    Ball,
    BlockClassicalCyclic,
    BlockGeneralized,
    Cutter,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    InvalidConfig,
    InvalidCutter,
    InvalidProblem,
    InvalidSchedule,
    L1Ball,
    LambdaSchedule,
    MaxDistance,
    MaxFunctionValue,
    NonfiniteIterate,
    PerturbationPolicy,
    Problem,
    QuadraticFunction,
    RandomDirectionPolicy,
    Resolvent,
    ResidualBelow,
    RunStatus,
    SequentialCyclic,
    SequentialRepetitive,
    SimultaneousDrifting,
    SimultaneousUniform,
    SolverConfig,
    SquaredNorm,
    SubgradientProjection,
    SuperiorizedPolicy,
    BallQuadratic,
    ZeroPolicy,
    fejer_audit,
    gen_l1_constrained,
    gen_linear_feasibility,
    run,
    sigma_from_ball,
    sigma_from_l1,
)
from blockproj.core import IterationRecord
from blockproj.solver import WITNESS_RESIDUAL_TOL
from blockproj.weights import WeightSchedule


def _config(**kwargs):
    defaults = dict(tau1=0.5, tau2=0.5, lambda_schedule=LambdaSchedule(1.0), seed=0)
    defaults.update(kwargs)
    return SolverConfig(**defaults)


# ---------------------------------------------------------------------------
# single steps

def test_step_single_hyperplane_projection():
    problem = Problem(2, [Hyperplane([1.0, 0.0], 0.0)], [2.0, 3.0], sigma=INFINITE_SIGMA)
    result = run(problem, _config(max_iterations=1), SequentialCyclic(1), ZeroPolicy(),
                 stopping=[])
    x1, record = result.final_point, result.trace[0]
    assert np.allclose(x1, [0.0, 3.0])
    assert record.k == 0
    assert record.max_residual == pytest.approx(2.0)
    assert record.perturbation_norm == 0.0


def test_step_two_halfspaces_simultaneous():
    cutters = [Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)]
    problem = Problem(2, cutters, [2.0, 2.0], sigma=INFINITE_SIGMA)
    x1 = run(problem, _config(max_iterations=1), SimultaneousUniform(2), ZeroPolicy(),
             stopping=[]).final_point
    # x0 + (T1 x0 - x0)/2 + (T2 x0 - x0)/2 with T1 x0 = (0,2), T2 x0 = (2,0)
    assert np.allclose(x1, [1.0, 1.0])


def test_step_fixed_point_is_stationary():
    cutters = [Halfspace([1.0, 0.0], 1.0), Ball([0.0, 0.0], 2.0)]
    problem = Problem(2, cutters, [0.0, 0.0], sigma=5.0)
    result = run(problem, _config(max_iterations=1), SimultaneousUniform(2), ZeroPolicy(),
                 stopping=[])
    x1, record = result.final_point, result.trace[0]
    assert np.array_equal(x1, [0.0, 0.0])
    assert record.max_residual == 0.0


# ---------------------------------------------------------------------------
# full runs

def test_run_trivially_feasible_start():
    problem = Problem(2, [Ball([0.0, 0.0], 1.0)], [0.1, 0.0], sigma=2.0)
    result = run(problem, _config(residual_tolerance=1e-8))
    assert result.status is RunStatus.RESIDUAL_CONVERGED
    assert result.iterations_used == 0
    assert len(result.trace) == 1
    assert np.array_equal(result.final_point, [0.1, 0.0])


def test_run_linear_instance_cyclic():
    problem = gen_linear_feasibility(3, 20, 10, 5)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=50_000),
                 SequentialCyclic(problem.m))
    assert result.status is RunStatus.RESIDUAL_CONVERGED
    assert result.trace[-1].max_residual <= 1e-6
    assert fejer_audit(result.trace.points, problem.witness) <= 1e-10


def test_run_perturbed_converges_and_stays_contained():
    problem = gen_linear_feasibility(4, 20, 10, 5)
    result = run(problem, _config(residual_tolerance=1e-4, max_iterations=200_000, seed=4),
                 SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    assert result.status is RunStatus.RESIDUAL_CONVERGED
    bound = 2.0 * problem.sigma + 1e-8
    assert all(rec.distance_from_start <= bound for rec in result.trace)
    assert fejer_audit(result.trace.points, problem.witness) <= 1e-10
    assert any(rec.perturbation_norm > 0 for rec in result.trace)


def test_strict_decrease_while_infeasible():
    problem = gen_linear_feasibility(5, 8, 4, 3)
    schedule = SequentialCyclic(problem.m)
    result = run(problem, _config(residual_tolerance=1e-10, max_iterations=20_000), schedule)
    q = problem.witness
    trace = result.trace
    for prev, nxt in zip(trace, trace[1:]):
        w = schedule.weights_at(prev.k)
        supported = np.nonzero(w > 0)[0]
        violated = any(prev.per_index_residuals[i] > 1e-4 for i in supported)
        if violated:
            d_prev = np.linalg.norm(prev.point - q)
            d_next = np.linalg.norm(nxt.point - q)
            assert d_next < d_prev


def test_infinite_sigma_forces_zero_perturbations():
    problem = dataclasses.replace(gen_linear_feasibility(6, 5, 3, 2), sigma=INFINITE_SIGMA)
    config = _config(residual_tolerance=1e-8, seed=1)
    result = run(problem, config, SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    assert all(rec.perturbation_norm == 0.0 for rec in result.trace)
    # and bitwise identical to the zero-policy run
    twin = run(problem, config, SimultaneousUniform(problem.m), ZeroPolicy())
    assert np.array_equal(result.final_point, twin.final_point)


# ---------------------------------------------------------------------------
# degenerate-schedule equivalences

def test_m1_sequential_equals_simultaneous_bitwise():
    problem = Problem(2, [Ball([3.0, 0.0], 1.0)], [-2.0, 0.5], sigma=8.0)
    config = _config(residual_tolerance=1e-9, seed=7)
    a = run(problem, config, SequentialCyclic(1), RandomDirectionPolicy(0.5))
    b = run(problem, config, SimultaneousUniform(1), RandomDirectionPolicy(0.5))
    assert a.iterations_used == b.iterations_used
    for ra, rb in zip(a.trace, b.trace):
        assert np.array_equal(ra.point, rb.point)


def test_single_block_equals_simultaneous_bitwise():
    problem = gen_linear_feasibility(8, 6, 4, 3)
    config = _config(residual_tolerance=1e-8, seed=11)
    a = run(problem, config, BlockClassicalCyclic(6, [list(range(6))]),
            RandomDirectionPolicy(0.9))
    b = run(problem, config, SimultaneousUniform(6), RandomDirectionPolicy(0.9))
    assert a.iterations_used == b.iterations_used
    for ra, rb in zip(a.trace, b.trace):
        assert np.array_equal(ra.point, rb.point)


# ---------------------------------------------------------------------------
# stopping rules

def test_max_distance_rule():
    problem = gen_linear_feasibility(9, 6, 4, 3)
    result = run(problem, _config(max_iterations=20_000),
                 SequentialCyclic(problem.m), stopping=[MaxDistance(1e-5)])
    assert result.status is RunStatus.DISTANCE_CONVERGED
    assert max(c.fixed_point_distance(result.final_point) for c in problem.cutters) <= 1e-5


def test_max_distance_requires_distance_support():
    problem = Problem(2, [Resolvent(SquaredNorm(), 1.0)], [1.0, 1.0], sigma=5.0)
    with pytest.raises(InvalidConfig, match="MaxDistance needs distance support, cutter 0"):
        run(problem, _config(), stopping=[MaxDistance(1e-5)])


def test_max_function_value_rule():
    cutters = [
        SubgradientProjection(BallQuadratic([0.0, 0.0], 1.0)),
        SubgradientProjection(BallQuadratic([0.5, 0.0], 1.0)),
    ]
    problem = Problem(2, cutters, [4.0, 0.0], sigma=10.0)
    result = run(problem, _config(max_iterations=20_000),
                 SequentialCyclic(2), stopping=[MaxFunctionValue(1e-6)])
    assert result.status is RunStatus.FUNCTION_CONVERGED
    assert max(c.level_value(result.final_point) for c in cutters) <= 1e-6


def test_max_function_value_requires_level_functions():
    problem = Problem(2, [Halfspace([1.0, 0.0], 0.0)], [1.0, 1.0], sigma=5.0)
    with pytest.raises(InvalidConfig, match="MaxFunctionValue needs level functions, cutter 0"):
        run(problem, _config(), stopping=[MaxFunctionValue(1e-6)])


def test_max_iterations_rule_and_cap():
    problem = gen_linear_feasibility(10, 6, 4, 3)
    # without a rule the run goes to the cap
    result = run(problem, _config(max_iterations=5), SequentialCyclic(problem.m), stopping=[])
    assert result.status is RunStatus.MAX_ITERATIONS
    assert result.iterations_used == 5
    assert len(result.trace) == 6
    capped = run(problem, _config(max_iterations=3, residual_tolerance=0.0),
                 SequentialCyclic(problem.m))
    assert capped.status is RunStatus.MAX_ITERATIONS
    assert capped.iterations_used == 3


def test_a_rule_that_fires_at_the_cap_gives_its_status():
    problem = gen_linear_feasibility(10, 6, 4, 3)
    rules = [ResidualBelow(1e-3)]
    free = run(problem, _config(), SequentialCyclic(problem.m), stopping=rules)
    n = free.iterations_used
    assert free.status is RunStatus.RESIDUAL_CONVERGED and n > 1
    at_cap = run(problem, _config(max_iterations=n), SequentialCyclic(problem.m), stopping=rules)
    assert (at_cap.status, at_cap.iterations_used) == (RunStatus.RESIDUAL_CONVERGED, n)
    short = run(problem, _config(max_iterations=n - 1), SequentialCyclic(problem.m),
                stopping=rules)
    assert (short.status, short.iterations_used) == (RunStatus.MAX_ITERATIONS, n - 1)


def test_a_generator_of_stopping_rules_is_honoured():
    problem = gen_linear_feasibility(10, 6, 4, 3)
    listed = run(problem, _config(), SequentialCyclic(problem.m), stopping=[ResidualBelow(1e-3)])
    generated = run(problem, _config(), SequentialCyclic(problem.m),
                    stopping=(rule for rule in [ResidualBelow(1e-3)]))
    assert generated.status is RunStatus.RESIDUAL_CONVERGED
    assert generated.iterations_used == listed.iterations_used
    assert np.array_equal(generated.final_point, listed.final_point)


# ---------------------------------------------------------------------------
# problem validation

def test_witness_must_be_feasible():
    with pytest.raises(InvalidProblem, match="witness violates cutter 0: residual 5.000e-01"):
        Problem(2, [Halfspace([1.0, 0.0], 0.0)], [0.0, 0.0], sigma=5.0,
                witness=[0.5, 0.0])


def test_witness_at_the_tolerance_is_accepted_and_one_ulp_beyond_it_refused():
    # unit normals through the origin: the stacked residual of each row is
    # exact, as is the residual through the projection
    cutters = [Ball([0.0, 0.0], 1.0), Halfspace([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0)]
    edge = WITNESS_RESIDUAL_TOL
    beyond = math.nextafter(edge, 1.0)
    for witness in ([edge, 0.0], [0.0, -edge]):
        Problem(2, cutters, [0.5, 0.5], sigma=5.0, witness=witness)
        assert max(c.residual(witness) for c in cutters) == edge
    for idx, witness in ((1, [beyond, 0.0]), (2, [0.0, -beyond])):
        assert cutters[idx].residual(witness) == beyond
        with pytest.raises(InvalidProblem, match=f"witness violates cutter {idx}"):
            Problem(2, cutters, [0.5, 0.5], sigma=5.0, witness=witness)


def test_cutter_dimension_checked():
    with pytest.raises(DimensionMismatch):
        Problem(3, [Halfspace([1.0, 0.0], 0.0)], [0.0, 0.0, 0.0], sigma=5.0)


def test_schedule_size_checked():
    problem = Problem(2, [Halfspace([1.0, 0.0], 0.0)], [1.0, 0.0], sigma=5.0)
    with pytest.raises(InvalidSchedule):
        run(problem, _config(), SequentialCyclic(3))


class _BrokenCutter(Cutter):
    kind = "broken"

    def apply(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.inf)


def test_empty_quadratic_sublevel_set_stops_the_run():
    # f(x) = ||x||^2 + 1: at x0 = 0 the gradient vanishes where f is positive
    cutter = SubgradientProjection(QuadraticFunction(np.eye(2), [0.0, 0.0], 1.0))
    problem = Problem(2, [cutter], [0.0, 0.0], sigma=5.0)
    with pytest.raises(InvalidCutter, match="the zero-sublevel set is empty there"):
        run(problem, _config())


def test_nonfinite_iterate_aborts():
    problem = Problem(2, [_BrokenCutter()], [1.0, 1.0], sigma=5.0)
    with pytest.raises(NonfiniteIterate):
        run(problem, _config(max_iterations=10, residual_tolerance=0.0))


class _InfinitePolicy(PerturbationPolicy):
    def combined(self, x, weights, budgets, iteration_rng):
        return np.full(len(x), np.inf)


def test_nonfinite_perturbation_aborts_after_the_step():
    # every residual and the step itself are finite; the perturbation is not
    problem = Problem(2, [Halfspace([1.0, 0.0], 0.0)], [1.0, 1.0], sigma=5.0)
    with pytest.raises(NonfiniteIterate, match="^non-finite iterate after step k=0$"):
        run(problem, _config(max_iterations=10), policy=_InfinitePolicy())


class _NanCutter(Cutter):
    kind = "nan"

    def apply(self, x):
        return np.full_like(np.asarray(x, dtype=float), np.nan)


def test_nonfinite_residual_aborts():
    # the control never visits the NaN operator, so no iterate turns NaN;
    # the NaN residual fails every stopping rule, and without the check the
    # run would go on to the cap
    cutters = [Halfspace([1.0, 0.0], 0.0), _NanCutter()]
    problem = Problem(2, cutters, [1.0, 1.0], sigma=5.0)
    with pytest.raises(NonfiniteIterate, match="residual"):
        run(problem, _config(max_iterations=10), SequentialRepetitive(2, [0]),
            stopping=[ResidualBelow(1e-6)])


@pytest.mark.parametrize("cutter, x0", [
    # <a, x0> overflows in the rows' matvec
    (Halfspace([1e150, 0.0], 0.0), [1e200, 0.0]),
    # x0 - center overflows in the ball's step
    (Ball([-1e308, -1e308], 1.0), [1e308, 1e308]),
])
def test_an_overflowing_residual_aborts_without_a_numpy_warning(cutter, x0):
    # pytest makes a RuntimeWarning an error, which would escape here
    problem = Problem(2, [cutter], x0, sigma=5.0)
    with pytest.raises(NonfiniteIterate, match="^non-finite residual at k=0$"):
        run(problem, _config())


def test_an_overflowing_trace_distance_finishes_without_a_numpy_warning():
    # the squares of ||x^1 - x^0|| = 1e200 and of the distances to the
    # witness overflow where the trace is finished
    problem = Problem(2, [Halfspace([1.0, 0.0], 0.0)], [1e200, 0.0], sigma=10.0,
                      witness=[-1.5e308, 0.0])
    result = run(problem, _config())
    assert result.status is RunStatus.RESIDUAL_CONVERGED
    assert result.final_point.tolist() == [0.0, 0.0]
    assert result.sigma_refuted


@pytest.mark.parametrize("cutter, witness", [
    (Ball([1e308], 1.0), [-1e308]),
    (L1Ball(1.0), [1.3407807929942597e154]),
    (L1Ball(1.0), [8e307, 1e308]),
])
def test_witness_whose_residual_overflows_is_refused(cutter, witness):
    # the residual is inf or NaN; numpy's overflow warning would be an error here
    with pytest.raises(InvalidProblem, match="witness violates cutter 0"):
        Problem(len(witness), [cutter], [0.0] * len(witness), sigma=5.0, witness=witness)


def test_witness_with_a_nan_residual_is_refused():
    # NaN fails the comparison with the tolerance; it must not pass it
    with pytest.raises(InvalidProblem, match="witness violates cutter 0: residual nan"):
        Problem(2, [_NanCutter()], [1.0, 1.0], sigma=5.0, witness=[0.0, 0.0])


@pytest.mark.parametrize("rule", [
    ResidualBelow(float("nan")), ResidualBelow(-1.0),
    MaxDistance(float("nan")), MaxDistance(-1e-9),
    MaxFunctionValue(float("nan")), MaxFunctionValue(-1.0),
])
def test_stopping_threshold_must_be_a_nonnegative_number(rule):
    cutters = [SubgradientProjection(BallQuadratic([0.0, 0.0], 1.0))]
    problem = Problem(2, cutters, [4.0, 0.0], sigma=10.0)
    with pytest.raises(InvalidConfig, match="must be >= 0"):
        run(problem, _config(), SequentialCyclic(1), stopping=[rule])


# ---------------------------------------------------------------------------
# sigma helpers

def test_sigma_from_ball_examples():
    x0 = [0.0, 0.0]
    assert sigma_from_ball(x0, 1.0, x0) == 2.0
    assert sigma_from_ball([3.0, 4.0], 2.0, [0.0, 0.0]) == 8.0
    with pytest.raises(ValueError):
        sigma_from_ball(x0, -1.0, x0)


def test_sigma_from_l1_examples():
    assert sigma_from_l1([0.0, 0.0], 1.0) == 2.0
    assert sigma_from_l1([3.0, 4.0], 2.0) == 8.0
    with pytest.raises(ValueError):
        sigma_from_l1([0.0], -1.0)


# ---------------------------------------------------------------------------
# audits

def test_fejer_audit_constant_trace():
    assert fejer_audit(np.zeros((1, 2)), [1.0, 1.0]) == 0.0
    assert fejer_audit(np.ones((3, 2)), [1.0, 1.0]) == 0.0


def test_fejer_audit_flags_corrupted_trace():
    problem = gen_linear_feasibility(11, 6, 4, 3)
    result = run(problem, _config(residual_tolerance=1e-8), SequentialCyclic(problem.m))
    assert fejer_audit(result.trace.points, problem.witness) <= 1e-10
    # move one iterate away from the witness: the audit must turn positive
    corrupted = result.trace.points.copy()
    mid = len(corrupted) // 2
    corrupted[mid] += 10.0 * (corrupted[mid] - problem.witness) + 1.0
    assert fejer_audit(corrupted, problem.witness) > 0.0


def test_run_result_invariant_residual_status():
    problem = gen_linear_feasibility(12, 6, 4, 3)
    config = _config(residual_tolerance=1e-7)
    result = run(problem, config, SequentialCyclic(problem.m))
    if result.status is RunStatus.RESIDUAL_CONVERGED:
        assert result.trace[-1].max_residual <= config.residual_tolerance


def test_record_perturbation_norm_within_weighted_budgets():
    # ||e^k|| <= sum_i w_k(i) * budget(lam_k, r_i, sigma) by the triangle
    # inequality; recompute the right-hand side from the recorded residuals
    from blockproj import budget

    problem = gen_linear_feasibility(13, 8, 5, 3)
    schedule = SimultaneousUniform(problem.m)
    config = _config(residual_tolerance=1e-6, seed=2)
    result = run(problem, config, schedule, RandomDirectionPolicy(0.99))
    for rec in result.trace:
        w = schedule.weights_at(rec.k)
        cap = sum(
            w[i] * budget(rec.lam, rec.per_index_residuals[i], problem.sigma)
            for i in range(problem.m)
        )
        assert rec.perturbation_norm <= cap + 1e-12


def test_residual_sweep_matches_records():
    problem = gen_linear_feasibility(14, 5, 3, 2)
    result = run(problem, _config(residual_tolerance=1e-6), SequentialCyclic(problem.m))
    rec = result.trace[0]
    assert np.allclose([c.residual(rec.point) for c in problem.cutters],
                       rec.per_index_residuals)


# ---------------------------------------------------------------------------
# the stacked sweep against a scalar reference

def _reference_points(problem, config, schedule, policy, tol):
    """Iterates of a scalar implementation of the iteration: one ``apply``
    and one ``budget`` per operator, stopping at max residual <= tol or at
    the cap.  A random iteration draws one direction, n normals from
    ``perturbation_rng(seed, k)`` redrawn while they are zero, and every
    supported index with a positive budget steps along it."""
    from blockproj import budget, perturbation_rng

    x, points = np.array(problem.x0), []
    for k in range(config.max_iterations + 1):
        applied = [c.apply(x) for c in problem.cutters]
        residuals = [float(np.linalg.norm(t - x)) for t in applied]
        points.append(x)
        if max(residuals) <= tol:
            break
        w, lam = schedule.weights_at(k), config.lambda_schedule(k)
        support = np.flatnonzero(w > 0.0)
        step, e = np.zeros_like(x), np.zeros_like(x)
        live = []
        for i in support:
            step += w[i] * (applied[i] - x)
            b = 0.0 if isinstance(policy, ZeroPolicy) else budget(lam, residuals[i], problem.sigma)
            if b > 0.0:
                live.append((i, b))
        if live and isinstance(policy, RandomDirectionPolicy):
            rng = perturbation_rng(config.seed, k)
            d = rng.standard_normal(x.size)
            while np.linalg.norm(d) == 0.0:
                d = rng.standard_normal(x.size)
            directions = [d for _ in live]
        else:
            directions = [-policy.cost.grad(x) for _ in live]
        for (i, b), d in zip(live, directions):
            e += w[i] * (policy.rho * b / np.linalg.norm(d)) * d
        x = x + lam * step + e
    return points


def _mixed_problem(seed, n=4):
    """Halfspaces and hyperplanes interleaved with every other kind of
    operator; all of them fix the origin."""
    from blockproj import (AbsSum, AffineFunction, Box, L1Ball, QuadraticFunction,
                           SetIndicator)

    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(4):
        rows.append(Halfspace(rng.standard_normal(n), rng.uniform(0.1, 1.0)))
        rows.append(Hyperplane(rng.standard_normal(n), 0.0))
    others = [
        Ball(rng.uniform(-0.3, 0.3, n), 2.0),
        Box(-rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)),
        L1Ball(3.0),
        SubgradientProjection(AffineFunction(rng.standard_normal(n), 0.5)),
        SubgradientProjection(BallQuadratic(rng.uniform(-0.3, 0.3, n), 1.5)),
        SubgradientProjection(QuadraticFunction(np.eye(n), np.zeros(n), -1.0)),
        Resolvent(AbsSum(), 0.05),
        Resolvent(SquaredNorm(), 0.01),
        Resolvent(SetIndicator(Box(-np.ones(n), np.ones(n))), 1.0),
    ]
    cutters = []
    for j in range(max(len(rows), len(others))):
        cutters.extend(rows[j:j + 1] + others[j:j + 1])
    x0 = rng.uniform(-4.0, 4.0, n)
    return Problem(n, cutters, x0, sigma=float(np.linalg.norm(x0)) + 1.0,
                   witness=np.zeros(n), cost=SquaredNorm())


_REGIMES = {
    "sequential_cyclic": lambda m: SequentialCyclic(m),
    "simultaneous_uniform": lambda m: SimultaneousUniform(m),
    "block_classical": lambda m: BlockClassicalCyclic(
        m, [list(range(0, m, 3)), list(range(1, m, 3)), list(range(2, m, 3))]),
    "simultaneous_drifting": lambda m: SimultaneousDrifting(m),
}


@pytest.mark.parametrize("policy_name", ["zero", "random", "superiorized"])
@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_run_matches_scalar_reference(regime, policy_name):
    for seed in (1, 2):
        problem = _mixed_problem(seed)
        policy = {"zero": ZeroPolicy(), "random": RandomDirectionPolicy(0.99),
                  "superiorized": SuperiorizedPolicy(problem.cost, 0.99)}[policy_name]
        schedule = _REGIMES[regime](problem.m)
        config = _config(residual_tolerance=1e-6, max_iterations=300, seed=seed + 40)
        result = run(problem, config, schedule, policy)
        reference = _reference_points(problem, config, schedule, policy, 1e-6)
        assert result.iterations_used == len(reference) - 1
        assert any(rec.perturbation_norm > 0 for rec in result.trace) == (policy_name != "zero")
        points = np.array([rec.point for rec in result.trace])
        assert np.max(np.abs(points - np.array(reference))) <= 1e-12


def test_superiorized_run_never_touches_the_stream(monkeypatch):
    from blockproj import solver
    from blockproj.perturbation import PerturbationStream

    streams = []

    class WatchedStream(PerturbationStream):
        def __init__(self, seed):
            super().__init__(seed)
            streams.append(self)

        def at(self, k):
            pytest.fail(f"the superiorized run reset the stream at k={k}")

    def position(stream):
        state = stream._bits.state
        return state["state"]["counter"].tolist(), state["buffer_pos"]

    monkeypatch.setattr(solver, "PerturbationStream", WatchedStream)
    problem = _mixed_problem(3)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300),
                 SimultaneousUniform(problem.m), SuperiorizedPolicy(problem.cost, 0.99))
    assert any(rec.perturbation_norm > 0 for rec in result.trace)
    # the run built its stream and left it where a fresh one starts
    assert len(streams) == 1
    assert position(streams[0]) == position(PerturbationStream(problem.m))


def test_update_adds_a_zero_step_to_a_negative_zero_coordinate():
    # no operator moves coordinate 0, which starts at -0.0: the step there is
    # 2 * (-(0.5 / 1) * (0 / 1)) + 0.5 * (+0.0) = -0.0 + (+0.0) = +0.0, and
    # -0.0 + lam * (+0.0) is +0.0
    problem = Problem(2, [Hyperplane([0.0, 1.0], 1.0), Ball([0.0, 0.0], 100.0)],
                      [-0.0, 3.0], sigma=10.0)
    result = run(problem, _config(max_iterations=1), SimultaneousUniform(2), stopping=[])
    assert result.trace[0].point.tobytes() == np.array([-0.0, 3.0]).tobytes()
    assert result.final_point.tobytes() == np.array([0.0, 2.0]).tobytes()


class _RefilledSchedule(WeightSchedule):
    """Uniform weights on a block that moves with k, computed on every call:
    into one writable array refilled in place, or into a fresh one."""

    regime = "refilled"

    def __init__(self, m, refill):
        super().__init__(m)
        self.buffer = np.zeros(m) if refill else None

    def _weights(self, k):
        w = np.zeros(self.m) if self.buffer is None else self.buffer
        w[:] = 0.0
        block = [(k + j) % self.m for j in range(1 + k % 3)]
        w[block] = 1.0 / len(block)
        return w


@pytest.mark.parametrize("policy_name", ["random", "superiorized"])
def test_weights_refilled_in_place_give_the_same_trace(policy_name):
    problem = _mixed_problem(7)
    traces = []
    for refill in (False, True):
        policy = {"random": RandomDirectionPolicy(0.99),
                  "superiorized": SuperiorizedPolicy(problem.cost, 0.99)}[policy_name]
        schedule = _RefilledSchedule(problem.m, refill)
        result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=7),
                     schedule, policy)
        if refill:
            assert schedule.weights_at(0) is schedule.weights_at(1)
        traces.append([(rec.point.tobytes(), rec.perturbation_norm) for rec in result.trace])
    assert sum(norm > 0.0 for _, norm in traces[0]) > 10
    assert traces[0] == traces[1]


class _ComputedBlocks(WeightSchedule):
    """intra[k % len(blocks)] on blocks[k % len(blocks)], computed on every call."""

    def __init__(self, m, blocks, intra):
        super().__init__(m)
        self.blocks, self.intra = blocks, intra

    def _weights(self, k):
        w = np.zeros(self.m)
        w[self.blocks[k % len(self.blocks)]] = self.intra[k % len(self.blocks)]
        return w


@pytest.mark.parametrize("policy_name", ["random", "superiorized"])
def test_block_tables_give_the_trace_of_the_same_computed_weights(policy_name):
    # a table holds each of its rows as its support, sorted and without its
    # zero weights; the same rows computed on every call have their support
    # resolved on every step.  The three blocks are unsorted, and the intra
    # weights of the second hold one zero, which its support leaves out.
    problem = _mixed_problem(7)
    m = problem.m
    order = [int(i) for i in np.random.default_rng(3).permutation(m)]
    blocks = [order[:6], order[6:12], order[12:]]
    intra = [np.arange(1.0, len(block) + 1.0) for block in blocks]
    intra[1][2] = 0.0
    intra = [(ws / ws.sum()).tolist() for ws in intra]
    pairs = [(BlockClassicalCyclic(m, blocks, intra),
              _ComputedBlocks(m, blocks, intra)),
             (BlockGeneralized(m, blocks), BlockGeneralized(m, lambda k: blocks[k % 3]))]
    assert [pairs[0][0]._table.support(k)[0].size for k in range(3)] == [6, 5, m - 12]
    assert [pairs[1][0]._table.support(k)[0].size for k in range(3)] == [6, 6, m - 12]
    for schedules in pairs:
        assert schedules[1]._table is None
        traces = []
        for schedule in schedules:
            policy = {"random": RandomDirectionPolicy(0.99),
                      "superiorized": SuperiorizedPolicy(problem.cost, 0.99)}[policy_name]
            result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=7),
                         schedule, policy)
            traces.append([_record_bytes(rec) for rec in result.trace])
        assert sum(rec.perturbation_norm > 0.0 for rec in result.trace) > 10
        assert traces[0] == traces[1]


# the schedules of _mixed_problem's 17 operators: rows at the even indices
# 0..14, the other kinds at the odd ones and at 16.  The overlapping blocks
# are unsorted; the first one's rows sit at consecutive positions among the
# rows, the second holds none, the third's do not and the last holds all.
_OVERLAPPING = [[4, 0, 2, 6, 1], [5, 3, 7, 9, 11], [16, 8, 9, 12, 13, 14], list(range(17))]
_TWINS = {
    "sequential_cyclic": lambda m: (
        SequentialCyclic(m), _ComputedBlocks(m, [[i] for i in range(m)], [[1.0]] * m)),
    "simultaneous_uniform": lambda m: (
        SimultaneousUniform(m), _ComputedBlocks(m, [list(range(m))], [[1.0 / m] * m])),
    "block_generalized": lambda m: (
        BlockGeneralized(m, _OVERLAPPING),
        BlockGeneralized(m, lambda k: _OVERLAPPING[k % len(_OVERLAPPING)])),
}


@pytest.mark.parametrize("regime", sorted(_TWINS))
@pytest.mark.parametrize("policy_name", ["zero", "random"])
def test_a_table_and_its_computed_twin_give_the_same_trace(regime, policy_name):
    # a table takes its step rows from the ones built once per run, the twin
    # builds its row's on each call: the arithmetic is one, and so are the bits
    from blockproj import solver

    problem = _mixed_problem(7)
    table, twin = _TWINS[regime](problem.m)
    assert twin._table is None
    sweep = solver._Sweep(problem.cutters, problem.dimension)
    assert solver._TableSteps.of(sweep, table._table) is not None
    traces = []
    for schedule in (table, twin):
        policy = {"zero": ZeroPolicy(), "random": RandomDirectionPolicy(0.99)}[policy_name]
        result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=7),
                     schedule, policy)
        traces.append([_record_bytes(rec) for rec in result.trace])
    assert len(result.trace) > 20
    assert (sum(rec.perturbation_norm > 0.0 for rec in result.trace) > 10) == (
        policy_name == "random")
    assert traces[0] == traces[1]


def test_a_long_repetitive_control_builds_its_step_terms_per_call():
    # step rows built once for all 100,000 entries of the control would take
    # 100,000 x 8 floats, 6.4 MB; the run builds its row's on each call
    problem = gen_linear_feasibility(5, 4, 8, 2.0)
    schedule = SequentialRepetitive(4, np.random.default_rng(2).integers(0, 4, 100_000).tolist())
    assert schedule._table is not None
    gc.collect()
    tracemalloc.start()
    try:
        result = run(problem, _config(max_iterations=600), schedule, stopping=[])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations_used == 600
    assert peak < 500_000


def test_run_with_a_huge_sigma_computes_its_budgets_without_overflow():
    # (lam r + 2 sigma)^2 overflows at sigma = 1e200; the budgets do not
    from blockproj.perturbation import _budgets

    problem = dataclasses.replace(gen_linear_feasibility(3, 8, 4, 2.0), sigma=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(problem, _config(residual_tolerance=1e-4, seed=3),
                     SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
        first = result.trace[0]
        budgets = _budgets(1.0, first.per_index_residuals, 1e200, first.max_residual)
    assert result.status is RunStatus.RESIDUAL_CONVERGED
    assert np.all((budgets > 0.0) == (first.per_index_residuals > 0.0))


# ---------------------------------------------------------------------------
# trace records

def test_records_hold_read_only_unaliased_points():
    problem = _mixed_problem(5)
    x0 = np.array(problem.x0)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=5),
                 SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    assert len(result.trace) > 2
    assert np.array_equal(problem.x0, x0)
    for rec in result.trace:
        for arr in (rec.point, rec.per_index_residuals):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert not np.shares_memory(rec.point, problem.x0)
    last = result.trace[-1]
    assert np.array_equal(result.final_point, last.point)
    assert not np.shares_memory(result.final_point, last.point)


def test_record_distances_are_the_norms_of_its_point():
    problem = _mixed_problem(6)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=6),
                 SimultaneousUniform(problem.m), SuperiorizedPolicy(problem.cost, 0.99))
    assert any(rec.perturbation_norm > 0 for rec in result.trace)
    for rec in result.trace:
        assert rec.distance_from_start == float(np.linalg.norm(rec.point - problem.x0))
        assert rec.distance_to_witness == float(np.linalg.norm(rec.point - problem.witness))
        for c, residual in zip(problem.cutters, rec.per_index_residuals):
            if c.linear_row is None:
                assert residual == float(np.linalg.norm(c.apply(rec.point) - rec.point))


def test_distances_over_many_chunks_match_one_chunk(monkeypatch):
    from blockproj import solver

    problem = _mixed_problem(6)
    args = (problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=6),
            SimultaneousUniform(problem.m), SuperiorizedPolicy(problem.cost, 0.99))
    whole = run(*args).trace
    # blocks of three rows: many blocks and a short last one
    monkeypatch.setattr(solver, "_BLOCK_ROWS", 3)
    chunked = run(*args).trace
    assert len(chunked) > 3 and len(chunked) % 3
    distances = [[(r.distance_from_start, r.distance_to_witness) for r in trace]
                 for trace in (whole, chunked)]
    assert distances[0] == distances[1]


def _record_bytes(rec):
    """A record's fields, each float as its hex and each array as its shape
    and bytes, so that equal tuples mean bit-identical records."""
    return tuple(
        (v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v.hex() if isinstance(v, float)
        else v
        for v in (getattr(rec, f.name) for f in dataclasses.fields(rec)))


def test_trace_reads_the_same_records_across_block_boundaries(monkeypatch):
    from blockproj import solver

    problem = _mixed_problem(6)
    args = (problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=6),
            SimultaneousUniform(problem.m), SuperiorizedPolicy(problem.cost, 0.99))
    expected = [_record_bytes(rec) for rec in run(*args).trace]
    monkeypatch.setattr(solver, "_BLOCK_ROWS", 3)
    result = run(*args)
    trace = result.trace
    n = len(trace)
    assert n == result.iterations_used + 1 == len(expected)
    assert n > 6 and n % 3
    assert [_record_bytes(rec) for rec in trace] == expected
    assert [_record_bytes(trace[i]) for i in range(n)] == expected
    assert [_record_bytes(trace[i - n]) for i in range(n)] == expected
    assert _record_bytes(trace[np.int64(4)]) == expected[4]
    for key in (slice(None), slice(2, 7), slice(4, -1), slice(1, None, 2), slice(None, None, -1),
                slice(-2, 0, -3), slice(5, 2), slice(2 * n, None)):
        records = trace[key]
        assert isinstance(records, tuple)
        assert [_record_bytes(rec) for rec in records] == expected[key]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[i]
    # a record is built on each access: editing one leaves the trace as it was
    rec = trace[4]
    assert rec is not trace[4]
    rec.lam = -1.0
    assert _record_bytes(trace[4]) == expected[4]
    assert all(not rec.point.flags.writeable and not rec.per_index_residuals.flags.writeable
               for rec in trace)


_COLUMNS = ("max_residual", "perturbation_norm", "lam", "distance_from_start",
            "distance_to_witness")


@pytest.mark.parametrize("witness", [True, False])
def test_columns_are_the_records_fields_across_block_boundaries(monkeypatch, witness):
    from blockproj import solver

    problem = _mixed_problem(6)
    if not witness:
        problem = dataclasses.replace(problem, witness=None)
    args = (problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=6),
            SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    # the trace does not depend on the block size: pick the smallest one
    # that makes several blocks and a short last one
    n = len(run(*args).trace)
    rows = next(rows for rows in range(3, n) if n % rows)
    monkeypatch.setattr(solver, "_BLOCK_ROWS", rows)
    result = run(*args)
    trace = result.trace
    assert len(trace.points) == len(trace) == result.iterations_used + 1 == n
    assert len(trace) > 2 * rows and len(trace) % rows
    assert (trace.distance_to_witness is None) is not witness
    records = list(trace)
    assert [rec.point.tobytes() for rec in records] == [row.tobytes() for row in trace.points]
    for name in _COLUMNS:
        column = getattr(trace, name)
        fields = [getattr(rec, name) for rec in records]
        if column is None:
            assert fields == [None] * len(records)
            continue
        assert column.shape == (len(trace),)
        assert [float(v).hex() for v in column] == [v.hex() for v in fields]
    for k in (0, 3, len(trace) - 1):
        assert trace.residuals(k).tobytes() == records[k].per_index_residuals.tobytes()
    # the drift that refutes sigma is the largest distance from the start
    assert result.sigma_refuted is bool(
        trace.distance_from_start.max() > 2.0 * problem.sigma)


def test_points_and_columns_are_read_only():
    problem = _mixed_problem(5)
    trace = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=5),
                SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99)).trace
    columns = [trace.points] + [getattr(trace, name) for name in _COLUMNS]
    for arr in columns + [trace.residuals(1)]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # nor can a caller make a column writable again
    for arr in columns:
        with pytest.raises(ValueError):
            arr.flags.writeable = True


def test_trace_distances_above_the_square_limit_are_finite():
    # ||x|| > 1.34e154 squares past the float range; the norms scale instead
    from blockproj.core import _norm
    from blockproj.solver import _row_norms

    d = np.array([[1e154, 1e154], [3e200, 4e200], [1.0, 2.0], [1e308, 1e308]])
    # the plain square overflows first, with no numpy warning
    norms = _row_norms(d).tolist()
    assert norms == pytest.approx(
        [math.hypot(1e154, 1e154), 5e200, math.sqrt(5.0), math.hypot(1e308, 1e308)], rel=1e-15)
    # _norm's square still warns as it overflows
    with np.errstate(over="ignore"):
        assert [_norm(row) for row in d] == norms
        # a norm past the float range, or of an infinite entry, is inf
        assert _norm(np.array([1e308] * 4)) == math.inf
        assert _norm(np.array([math.inf, 1.0])) == math.inf
    # a unit ball at [1e154, 1e154]: its residual no longer overflows
    ball = Problem(2, [Ball([0.0, 0.0], 1.0)], [1e154, 1e154], sigma=math.inf)
    result = run(ball, _config())
    assert result.status is RunStatus.RESIDUAL_CONVERGED
    assert result.trace.max_residual[0] == pytest.approx(math.sqrt(2.0) * 1e154, rel=1e-15)
    assert result.trace.distance_from_start[-1] == pytest.approx(math.sqrt(2.0) * 1e154,
                                                                 rel=1e-15)
    # a halfspace from [1e200, 0] steps 1e200 to the origin
    half = Problem(2, [Halfspace([1.0, 0.0], 0.0)], [1e200, 0.0], sigma=10.0)
    result = run(half, _config())
    assert result.final_point.tolist() == [0.0, 0.0]
    assert result.trace.distance_from_start.tolist() == [0.0, 1e200]
    assert [rec.distance_from_start for rec in result.trace] == [0.0, 1e200]
    assert fejer_audit(result.trace.points, [0.0, 0.0]) == -1e200


def test_a_finished_run_holds_little_more_than_its_numbers():
    problem = gen_l1_constrained(3, 20, 100, 2.0)
    args = (problem, SolverConfig(residual_tolerance=1e-6, seed=3),
            SimultaneousUniform(problem.m), SuperiorizedPolicy(problem.cost, 0.99))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(*args)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # per iterate: its point, its residuals and seven floats' worth of
    # scalars and storage, with a tenth to spare
    n, m = problem.dimension, problem.m
    assert len(result.trace) > 1000
    assert held / len(result.trace) <= 1.1 * 8 * (n + m + 7)


def test_a_finished_run_holds_its_points_and_scalars_only():
    # the trace keeps no residual vector: per iterate its point and seven
    # floats' worth of scalars and storage, with a tenth to spare
    problem = gen_linear_feasibility(1, 200, 50, 5)
    args = (problem, SolverConfig(residual_tolerance=0.1, seed=1),
            SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run(*args)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = problem.dimension
    assert len(result.trace) > 1000
    assert held / len(result.trace) <= 1.1 * 8 * (n + 7)


def test_residuals_are_swept_only_when_read(monkeypatch):
    from blockproj import solver
    from blockproj.cli import write_trace_csv

    problem = _mixed_problem(6)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=6),
                 SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    sweeps = []
    monkeypatch.setattr(solver._Sweep, "residuals",
                        lambda self, x, out=None: sweeps.append(x) or pytest.fail("swept"))
    # points and scalars, the columns, and the CLI's trace file, sweep nothing
    for rec in result.trace:
        rec.point, rec.max_residual, rec.distance_to_witness
    for name in ("points",) + _COLUMNS:
        getattr(result.trace, name).tolist()
    write_trace_csv(result.trace, os.devnull)
    assert result.trace._sweep is None
    monkeypatch.undo()
    rec = result.trace[3]
    first = rec.per_index_residuals
    assert rec.per_index_residuals is first
    assert result.trace._sweep is not None


def test_a_record_whose_point_was_replaced_reports_its_rows_residuals():
    problem = _mixed_problem(5)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=5),
                 SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    expected = result.trace[4].per_index_residuals.tobytes()
    rec = result.trace[4]
    rec.point = np.zeros(problem.dimension)
    residuals = rec.per_index_residuals
    assert residuals.tobytes() == expected
    assert not residuals.flags.writeable
    with pytest.raises(ValueError):
        residuals[0] = 1.0
    # the dataclass stays one: replace keeps the residuals it is given
    assert dataclasses.replace(rec, lam=0.5).per_index_residuals is residuals
    assert isinstance(rec, IterationRecord)


def test_a_copied_record_reports_its_rows_residuals():
    problem = _mixed_problem(5)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=5),
                 SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    expected = result.trace[4].per_index_residuals.tobytes()
    # each copies a record whose residuals were never read
    shallow = copy.copy(result.trace[4]).per_index_residuals
    assert shallow.tobytes() == expected and not shallow.flags.writeable
    for copied in (copy.deepcopy, lambda rec: pickle.loads(pickle.dumps(rec))):
        assert copied(result.trace[4]).per_index_residuals.tobytes() == expected


def test_a_pickled_record_carries_its_fields_not_the_run():
    problem = gen_l1_constrained(3, 20, 100, 2.0)
    result = run(problem, _config(seed=3), SimultaneousUniform(problem.m),
                 SuperiorizedPolicy(problem.cost, 0.99))
    rec = result.trace[5]
    data = pickle.dumps(rec)
    assert len(data) < 4 * (rec.point.nbytes + rec.per_index_residuals.nbytes)
    back = pickle.loads(data)
    assert type(back) is IterationRecord
    assert _record_bytes(back) == _record_bytes(rec)


def test_a_record_equals_only_itself():
    problem = _mixed_problem(5)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=5),
                 SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99))
    rec = result.trace[5]
    # each access builds a new record, so none of these compares arrays
    assert rec == rec and rec != result.trace[5]
    assert rec not in result.trace and result.trace.count(rec) == 0


def test_a_trace_sweeps_its_residuals_after_the_problem_is_gone():
    problem = _mixed_problem(5)
    result = run(problem, _config(residual_tolerance=1e-6, max_iterations=300, seed=5),
                 SimultaneousUniform(problem.m), SuperiorizedPolicy(problem.cost, 0.99))
    expected = [[c.residual(rec.point) for c in problem.cutters] for rec in result.trace]
    gone = weakref.ref(problem)
    del problem
    gc.collect()
    assert gone() is None
    assert np.allclose([rec.per_index_residuals for rec in result.trace], expected)


def test_a_drift_beyond_twice_sigma_refutes_it():
    problem = gen_linear_feasibility(3, 20, 10, 5.0)
    schedule, policy = SimultaneousUniform(problem.m), RandomDirectionPolicy(0.99)
    for sigma, refuted in ((1e-300, True), (problem.sigma, False)):
        result = run(dataclasses.replace(problem, sigma=sigma), _config(), schedule, policy)
        assert result.status is RunStatus.RESIDUAL_CONVERGED
        drift = max(rec.distance_from_start for rec in result.trace)
        assert 9.0 < drift < 9.2
        assert result.sigma_refuted is refuted is (drift > 2.0 * sigma)


# ---------------------------------------------------------------------------
# edge cases

def test_lambda_at_both_bounds_is_accepted():
    problem = gen_linear_feasibility(8, 6, 3, 2.0)
    tau1, tau2 = 0.3, 0.4
    lo, hi = tau1, 2.0 - tau2
    for lam in (lo, hi, [lo, hi], lambda k: (lo, hi)[k % 2]):
        config = _config(tau1=tau1, tau2=tau2, lambda_schedule=LambdaSchedule(lam),
                         residual_tolerance=1e-6)
        result = run(problem, config, SequentialCyclic(problem.m))
        assert result.status is RunStatus.RESIDUAL_CONVERGED
        assert {rec.lam for rec in result.trace} == ({lam} if isinstance(lam, float) else {lo, hi})


_FIXED_SCHEDULES = {
    "sequential_cyclic": SequentialCyclic,
    "simultaneous_uniform": SimultaneousUniform,
    "block_classical": lambda m: BlockClassicalCyclic(m, [list(range(0, m, 2)),
                                                         list(range(1, m, 2))][:min(m, 2)]),
    "sequential_repetitive": lambda m: SequentialRepetitive(m, list(range(m)) * 2),
}


@pytest.mark.parametrize("policy_name", ["zero", "random", "superiorized"])
@pytest.mark.parametrize("regime", sorted(_FIXED_SCHEDULES))
@pytest.mark.parametrize("m, n", [(1, 3), (4, 1), (1, 1)])
def test_one_operator_and_one_dimension(m, n, regime, policy_name):
    problem = gen_linear_feasibility(m + 10 * n, m, n, 2.0)
    policy = {"zero": ZeroPolicy(), "random": RandomDirectionPolicy(0.99),
              "superiorized": SuperiorizedPolicy(SquaredNorm(), 0.99)}[policy_name]
    result = run(problem, _config(residual_tolerance=1e-8, max_iterations=10_000, seed=m),
                 _FIXED_SCHEDULES[regime](m), policy)
    assert result.status is RunStatus.RESIDUAL_CONVERGED
    assert result.final_point.shape == (n,)
    assert fejer_audit(result.trace.points, problem.witness) <= 1e-10


def test_problem_refuses_no_cutters_and_a_cost_of_another_dimension():
    with pytest.raises(InvalidProblem, match="^need at least one cutter$"):
        Problem(2, [], [0.0, 0.0], 1.0)
    with pytest.raises(DimensionMismatch, match="^cost has dimension 3, expected 2$"):
        Problem(2, [Ball([0.0, 0.0], 1.0)], [3.0, 0.0], 10.0, cost=AffineFunction([1, 2, 3], 0))
    # a cost that works in any dimension, or that declares none, is taken
    for cost in (SquaredNorm(), mock.Mock(spec=["value", "grad"])):
        Problem(2, [Ball([0.0, 0.0], 1.0)], [3.0, 0.0], 10.0, cost=cost)


def test_unknown_stopping_rule_is_refused():
    problem = Problem(1, [Halfspace([1.0], 0.0)], [1.0], 1.0)
    with pytest.raises(InvalidConfig, match="^unknown stopping rule 'tol'$"):
        run(problem, stopping=["tol"])


def test_a_policy_cost_of_another_dimension_is_refused_before_iteration_0():
    # the cost's gradient refused the iterate at k = 0, naming no policy
    problem = Problem(2, [Ball([0, 0], 1)], [3, 0], 10)
    policy = SuperiorizedPolicy(AffineFunction([1, 2, 3], 0))
    with pytest.raises(DimensionMismatch, match=r"^policy cost has dimension 3, expected 2$"):
        run(problem, SolverConfig(), SimultaneousUniform(1), policy)
