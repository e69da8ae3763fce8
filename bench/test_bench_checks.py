"""The benchmark's output checks accept real solver output and reject
corrupted copies of it."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import blockproj as bp

import checks
import workloads


@pytest.fixture(scope="module")
def solved():
    workload = workloads.LinearSimRandom()
    problem = bp.gen_linear_feasibility(3, 20, 10, 5.0)
    config = bp.SolverConfig(residual_tolerance=workload.tol, seed=3)
    instance = (problem, config, bp.SimultaneousUniform(problem.m), bp.RandomDirectionPolicy(0.99))
    return workload, instance, bp.run(*instance)


def _with_last_point(result, point):
    last = dataclasses.replace(result.trace[-1], point=point)
    return dataclasses.replace(result, trace=result.trace[:-1] + (last,), final_point=point)


def test_real_output_passes(solved):
    workload, instance, result = solved
    assert workload.check(instance, result) is None


def test_final_point_moved_off_a_halfspace_is_rejected(solved):
    workload, instance, result = solved
    halfspace = instance[0].cutters[0]
    unit = halfspace.a / np.linalg.norm(halfspace.a)
    x = result.final_point
    signed_distance = (halfspace.a @ x - halfspace.b) / np.linalg.norm(halfspace.a)
    moved = x + (2 * workload.tol - signed_distance) * unit
    message = workload.check(instance, _with_last_point(result, moved))
    assert message is not None and "final point" in message
    dist = checks.halfspace_distances(np.array([halfspace.a]), np.array([halfspace.b]), moved)[0]
    assert checks.check_within_tolerance(dist, workload.tol, "halfspace") is not None


def test_one_increase_of_the_witness_distance_is_rejected(solved):
    _, instance, result = solved
    points = np.array([rec.point for rec in result.trace])
    distances = np.linalg.norm(points - instance[0].witness, axis=1)
    assert checks.check_fejer(distances) is None
    k = len(distances) // 2
    distances[k] = distances[k - 1] + 1e-8
    message = checks.check_fejer(distances)
    assert message is not None and f"k={k}" in message


def test_perturbation_above_the_budget_is_rejected(solved):
    workload, instance, result = solved
    trace = list(result.trace)
    k = next(i for i, rec in enumerate(trace[:-1]) if rec.perturbation_norm > 0)
    rec = trace[k]
    bound = checks.paper_budget(rec.lam, rec.max_residual, instance[0].sigma)
    trace[k] = dataclasses.replace(rec, perturbation_norm=1.001 * float(bound))
    message = workload.check(instance, dataclasses.replace(result, trace=tuple(trace)))
    assert message is not None and "budget" in message


def test_independent_formulas_agree_with_the_library():
    rng = np.random.default_rng(0)
    for _ in range(200):
        lam, r, sigma = rng.uniform(0.1, 1.9), rng.uniform(0, 5), rng.uniform(0.1, 10)
        expected = bp.budget(lam, r, sigma)
        assert checks.paper_budget(lam, r, sigma) == pytest.approx(expected, rel=1e-12)
        x = rng.standard_normal(7) * 2
        radius = rng.uniform(0.5, 3)
        expected = np.linalg.norm(x - bp.project_l1_ball(x, radius))
        assert checks.l1_ball_distance(x, radius) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_cli_witness_distances_that_disagree_with_the_problem_are_rejected(tmp_path):
    workload = workloads.LinearBlockCli()
    workload.count = 1
    state = workload.setup(5, str(tmp_path))
    assert workload.round(state).failures == [None]
    _, problem, trace, summary = state["files"][0]
    with open(summary, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(trace, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # halving every distance keeps the column decreasing, so only the
    # distances computed from the problem's x0 and witness can catch it
    for row in rows:
        row["dist_to_witness"] = repr(float(row["dist_to_witness"]) / 2)
    with open(trace, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    message = workload.check(state, 0, doc, problem, trace)
    assert message is not None and "witness distance" in message
