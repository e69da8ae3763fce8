
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from blockproj import Ball, Box, Cutter, InvalidCutter, InvalidSchedule, cutters, oracles
from blockproj.oracles import (
    ALL_KINDS,
    PROJECTION_KINDS,
    budget_trial,
    convergence_trial,
    cutter_trial,
    perturbed_fejer_trial,
    qhat_instance,
    qhat_trial,
    run_budget_suite,
    run_convergence_suite,
    run_cutter_suite,
    run_fejer_suite,
    run_qhat_suite,
    strict_fejer_trial,
    summable_last_index_schedule,
)


def test_trials_reproducible_from_seed_state():
    for fn in (perturbed_fejer_trial, strict_fejer_trial, cutter_trial, budget_trial):
        a = fn([123, 4])
        b = fn([123, 4])
        assert a == b


def _suite_outcomes(suite, trials, seed):
    """The outcomes ``suite`` hands to its summary, in order."""
    seen = []
    summarize = oracles._summarize

    def keep(name, outcomes, coverage):
        seen.extend(outcomes)
        return summarize(name, outcomes, coverage)

    with mock.patch.object(oracles, "_summarize", keep):
        suite(trials, seed)
    return seen


def test_kind_labels_keep_their_order():
    # a suite draws its label by index, so the order fixes every trial's operator
    assert PROJECTION_KINDS == ("halfspace", "hyperplane", "ball", "box", "l1_ball")
    assert ALL_KINDS == PROJECTION_KINDS + (
        "subgradient_affine", "subgradient_ball", "subgradient_quadratic",
        "resolvent_abs_sum", "resolvent_squared_norm", "resolvent_indicator")


def test_suites_reuse_one_stream_without_leaking_state():
    # trial t of a suite, drawn from the suite's reused generator, equals
    # the same trial run on its own, also after a trial that drew another
    # kind or left half of a 64-bit draw buffered (an integer draw, such as
    # the choice of an endpoint lambda in the budget suite)
    seed, trials = 9, 60
    fejer = _suite_outcomes(run_fejer_suite, trials, seed)
    cutter = _suite_outcomes(run_cutter_suite, trials, seed)
    budget = _suite_outcomes(run_budget_suite, trials, seed)
    assert {o.kind for o in fejer} == set(PROJECTION_KINDS)
    assert {o.kind for o in cutter} == set(ALL_KINDS)
    endpoints = [t for t, o in enumerate(budget)
                 if " lam=0.000000 " in o.inputs_digest or " lam=2.000000 " in o.inputs_digest]
    assert endpoints and endpoints[0] < trials - 1
    for t in range(trials):
        assert fejer[2 * t] == perturbed_fejer_trial([seed, t])
        assert fejer[2 * t + 1] == strict_fejer_trial([seed, trials + t])
        assert cutter[t] == cutter_trial([seed, t])
        assert budget[t] == budget_trial([seed, t])
    # the instance suites number their instances from the suite's seed
    assert _suite_outcomes(run_qhat_suite, 2, seed) == qhat_trial(seed) + qhat_trial(seed + 1)
    assert _suite_outcomes(run_convergence_suite, 1, seed) == convergence_trial(
        seed, extra_regime="almost_cyclic")


def test_suite_coverage_counts_the_kinds_drawn():
    rep = run_cutter_suite(30, 4)
    kinds = [cutter_trial([4, t]).kind for t in range(30)]
    assert rep.coverage == {kind: kinds.count(kind) for kind in set(kinds)}


def test_perturbed_fejer_boundary_sweep():
    for t in range(500):
        out = perturbed_fejer_trial([77, t])
        assert out.passed, out.inputs_digest
        assert out.violation == 0.0


def test_strict_fejer_sweep():
    for t in range(500):
        out = strict_fejer_trial([78, t])
        assert out.passed, out.inputs_digest
        assert out.lhs < out.rhs


def test_cutter_sweep():
    for t in range(500):
        out = cutter_trial([79, t])
        assert out.passed, out.inputs_digest


def test_budget_sweep():
    for t in range(500):
        out = budget_trial([80, t])
        assert out.passed, out.inputs_digest


def test_fejer_trial_special_cases():
    # a trivially feasible start: budget 0, y = x, lhs == rhs
    out = perturbed_fejer_trial([0, 0])
    assert out.lhs <= out.rhs + 1e-10


def test_suite_reports():
    rep = run_fejer_suite(50, 5)
    assert rep.trials == 100 and rep.all_passed
    rep = run_cutter_suite(50, 5)
    assert rep.all_passed
    rep = run_budget_suite(50, 5)
    assert rep.all_passed


def test_cutter_suite_coverage_per_1000():
    rep = run_cutter_suite(1000, 6)
    assert rep.all_passed
    assert set(ALL_KINDS) <= set(rep.coverage)


def test_convergence_trial_passes():
    outcomes = convergence_trial(7, extra_regime="drifting")
    assert len(outcomes) == 5
    for out in outcomes:
        assert out.passed, out.inputs_digest


def test_qhat_trial_semantics():
    outcomes = qhat_trial(5)
    summable, divergent = outcomes
    assert summable.passed and divergent.passed
    assert "Q3 not asserted" in summable.inputs_digest
    # the exempted set is genuinely violated on this geometry
    d3 = float(summable.inputs_digest.split("d(limit,Q3)=")[1].split()[0])
    assert d3 > 1e-2


def test_qhat_summable_profile_bounded():
    schedule = summable_last_index_schedule(3)
    profile = schedule.divergence_profile(60)
    assert profile[-1] <= 1.0  # geometric series sum
    assert profile[0] > 10.0  # the others keep diverging


def test_qhat_instance_witness_in_full_intersection():
    problem = qhat_instance(3)
    for c in problem.cutters:
        assert c.residual(problem.witness) <= 1e-10


def test_qhat_suite():
    rep = run_qhat_suite(2, 1)
    assert rep.all_passed
    assert "regime:block_generalized" in rep.coverage


def test_combined_regime_coverage():
    from blockproj.oracles import run_convergence_suite

    conv = run_convergence_suite(4, 20)
    qhat = run_qhat_suite(1, 20)
    assert conv.all_passed and qhat.all_passed
    regimes = {
        key for rep in (conv, qhat) for key in rep.coverage if key.startswith("regime:")
    }
    assert regimes == {
        "regime:sequential_cyclic",
        "regime:sequential_almost_cyclic",
        "regime:sequential_repetitive",
        "regime:simultaneous_uniform",
        "regime:simultaneous_drifting",
        "regime:block_classical",
        "regime:block_generalized",
    }


def test_samplers_refuse_what_they_cannot_draw():
    rng = np.random.default_rng(0)
    for label in ("pentagon", 5):
        with pytest.raises(InvalidCutter, match="^unknown kind label "):
            oracles.draw_cutter(rng, label, 2)
    with pytest.raises(InvalidCutter, match="^no fixed-point sampler for "):
        oracles.sample_fixed_point(Cutter(), rng, 2)
    # every draw of [-6, 6]^n lies in the box
    with pytest.raises(InvalidCutter, match="^could not draw a point outside Fix for "):
        oracles._sample_exterior_point(Box([-6.0, -6.0], [6.0, 6.0]), rng, 2)
    with pytest.raises(InvalidSchedule, match="^unknown extra regime 'bogus'$"):
        convergence_trial(0, "bogus")


def test_budget_trial_fails_a_budget_that_does_not_vanish_at_infinite_sigma():
    real = oracles.budget
    with mock.patch.object(oracles, "budget",
                           lambda lam, r, sigma: 1.0 if sigma == np.inf else real(lam, r, sigma)):
        outcomes = [budget_trial([80, t]) for t in range(100)]
    infinite = ["sigma=inf" in out.inputs_digest for out in outcomes]
    assert any(infinite)
    assert [out.passed for out in outcomes] == [not inf for inf in infinite]
    assert all(out.violation == 1.0 for out, inf in zip(outcomes, infinite) if inf)


def _nan_points(self, x):
    return np.full(np.shape(x), np.nan)


def test_a_nan_inequality_fails_its_cutter_trial():
    # NaN affine and ball projections; the ball's indicator and the affine
    # subgradient step, whose fixed point is drawn through its halfspace,
    # give NaN too, and the other kinds are untouched
    untouched = {"box", "l1_ball", "subgradient_ball", "subgradient_quadratic",
                 "resolvent_abs_sum", "resolvent_squared_norm"}
    with mock.patch.object(cutters._AffineCutter, "apply", _nan_points), \
            mock.patch.object(Ball, "apply", _nan_points):
        outcomes = [cutter_trial([1, t]) for t in range(200)]
        rep = run_cutter_suite(200, 1)
    assert [o.passed for o in outcomes] == [o.kind in untouched for o in outcomes]
    assert all(o.violation == math.inf for o in outcomes if not o.passed)
    assert rep.failures == sum(not o.passed for o in outcomes) > 0
    assert rep.worst_violation == math.inf


def test_a_nan_budget_fails_its_trial():
    # the infinite-sigma trials check only that the budget vanishes
    with mock.patch.object(oracles, "budget", lambda lam, r, sigma: math.nan):
        outcomes = [budget_trial([80, t]) for t in range(100)]
        rep = run_budget_suite(200, 1)
    assert any("sigma=inf" in o.inputs_digest for o in outcomes)
    assert not any(o.passed for o in outcomes)
    assert all(o.violation == math.inf for o in outcomes)
    assert rep.failures == 200 and rep.worst_violation == math.inf


def test_a_nan_projection_fails_its_fejer_trials():
    # the budget refused the NaN residual with InvalidConfig, and the strict
    # half's exterior point was never found, so the suite stopped
    with mock.patch.object(Ball, "apply", _nan_points):
        rep = run_fejer_suite(50, 1)
    assert (rep.trials, rep.failures) == (100, rep.coverage["ball"])
    assert rep.failures > 0 and rep.worst_violation == math.inf
    assert all(" kind=ball " in d for d in rep.failed_digests)
    assert {d.split("[")[0] for d in rep.failed_digests} == {"perturbed_fejer", "strict_fejer"}


def test_a_nan_distance_fails_its_qhat_check():
    with mock.patch.object(Ball, "fixed_point_distance", lambda self, x: math.nan):
        summable, divergent = qhat_trial(5)
    # the disc's distance is asserted in the divergent run only
    assert summable.passed
    assert not divergent.passed and divergent.violation == math.inf


def test_a_stream_suite_folds_its_outcomes_in_trial_order():
    # trial t of the two stubs runs states [3, t] and [3, 25 + t]; 30 of
    # the 50 fail, and the largest violation comes twice, first as a numpy
    # float, which the report keeps as max would
    def stub(state, rng):
        j = state[1]
        failed = j % 5 in (1, 2, 3)
        violation = {7: np.float64(9.0), 33: 9.0}.get(j, j / 100) if failed else 0.0
        return oracles.TrialOutcome(f"stub[{state!r}]", 0.0, 0.0, violation, not failed,
                                    "odd" if j % 2 else None)

    rep = oracles._stream_suite("stub", (stub, stub), 25, 3)
    failing = [j for t in range(25) for j in (t, 25 + t) if j % 5 in (1, 2, 3)]
    assert (rep.trials, rep.passes, rep.failures) == (50, 20, 30)
    assert rep.failed_digests == tuple(f"stub[[3, {j}]]" for j in failing[:20])
    assert rep.worst_violation == 9.0 and type(rep.worst_violation) is np.float64
    assert rep.coverage == {"stub": 25, "odd": 25}


def _traced_peak(suite, trials, seed):
    tracemalloc.start()
    try:
        suite(trials, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_suite_keeps_no_outcome_of_a_passing_trial():
    run_fejer_suite(20, 1)  # the imports and caches a first suite fills
    small = _traced_peak(run_fejer_suite, 200, 1)
    large = _traced_peak(run_fejer_suite, 2000, 1)
    assert large - small < 200_000
