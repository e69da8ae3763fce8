"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed in ``setup`` and
then runs identical rounds: a round solves (or verifies) every input once
and checks every output with ``checks``, which does not use the solver.
A round's solves always run to the stated
residual tolerance, so a round's iteration count is exact for a given seed.
"""

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import blockproj as bp
from blockproj import cli

import calibration
import checks

SUCCESS = "residual_converged"


@dataclass
class Round:
    """One round's measurements; ``failures`` holds one entry per operation,
    None when its outputs passed every check.  ``solve_s`` is the wall time
    of the timed operations, ``calibrated_s`` the same time in reference
    seconds (``calibration``) and ``operations_s`` the wall time of all
    operations, untimed ones included."""

    solve_s: float
    calibrated_s: float
    operations_s: float
    iterations: int
    failures: list


def instance_seeds(seed, count):
    """``count`` independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _remove(*paths):
    """Delete last round's outputs, so that a run that writes none shows."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _quiet_cli(argv):
    """Run ``blockproj <argv>`` in this process; its stdout is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# API workloads: bp.run on generated problems


class _ApiWorkload:
    count = 0
    tol = 0.0

    def instance(self, seed):
        """(problem, schedule, policy) for one instance seed."""
        raise NotImplementedError

    def distances(self, problem, points):
        """Independent distance of each point (row) to each operator's set."""
        raise NotImplementedError

    def final_check(self, problem, x):
        return None

    def setup(self, seed, workdir):
        instances = []
        for s in instance_seeds(seed, self.count):
            problem, schedule, policy = self.instance(s)
            config = bp.SolverConfig(residual_tolerance=self.tol, seed=s)
            instances.append((problem, config, schedule, policy))
        return instances

    def round(self, instances):
        solve_s = calibrated_s = 0.0
        iterations = 0
        results = []
        for problem, config, schedule, policy in instances:
            wall, calibrated, result = calibration.timed(
                lambda: bp.run(problem, config, schedule, policy))
            solve_s += wall
            calibrated_s += calibrated
            iterations += result.iterations_used
            results.append(result)
        failures = [self.check(inst, res) for inst, res in zip(instances, results)]
        return Round(solve_s, calibrated_s, solve_s, iterations, failures)

    def check(self, instance, result):
        problem, config, _, _ = instance
        trace = result.trace
        if result.status.value != SUCCESS:
            return f"status {result.status.value}"
        points = np.array([rec.point for rec in trace])
        if not np.array_equal(points[-1], result.final_point):
            return "the last trace record is not the final point"
        dist = self.distances(problem, points)
        max_residual = dist.max(axis=1)
        sigma = problem.sigma
        return checks.first_failure(
            checks.check_within_tolerance(dist[-1], self.tol, "operator"),
            self.final_check(problem, result.final_point),
            checks.check_recorded([rec.max_residual for rec in trace], max_residual,
                                  "max residual"),
            checks.check_fejer(np.linalg.norm(points - problem.witness, axis=1)),
            checks.check_drift(np.linalg.norm(points - problem.x0, axis=1), sigma),
            checks.check_budget(
                [rec.perturbation_norm for rec in trace[:-1]],
                [rec.lam for rec in trace[:-1]],
                max_residual[:-1],
                sigma,
            ),
        )


class LinearSimRandom(_ApiWorkload):
    """200 halfspaces in R^50, all operators every iteration, random
    in-budget perturbations."""

    name = "linear-sim-random"
    count = 16
    tol = 0.3

    def instance(self, seed):
        problem = bp.gen_linear_feasibility(seed, 200, 50, 5.0)
        return problem, bp.SimultaneousUniform(problem.m), bp.RandomDirectionPolicy(0.99)

    def distances(self, problem, points):
        normals = np.array([c.a for c in problem.cutters])
        offsets = np.array([c.b for c in problem.cutters])
        return checks.halfspace_distances(normals, offsets, points)


class L1Superiorized(_ApiWorkload):
    """20 hyperplanes and one l1 ball in R^100, superiorized against ||x||_1."""

    name = "l1-superiorized"
    count = 20
    tol = 1e-6
    epsilon = 2.0

    def instance(self, seed):
        problem = bp.gen_l1_constrained(seed, 20, 100, self.epsilon)
        return (problem, bp.SimultaneousUniform(problem.m),
                bp.SuperiorizedPolicy(problem.cost, 0.99))

    def distances(self, problem, points):
        # the generator puts the hyperplanes first and the l1 ball last
        rows = problem.cutters[:-1]
        normals = np.array([c.a for c in rows])
        offsets = np.array([c.b for c in rows])
        ball = [checks.l1_ball_distance(x, self.epsilon) for x in points]
        return np.column_stack([checks.hyperplane_distances(normals, offsets, points), ball])

    def final_check(self, problem, x):
        return checks.check_l1_radius(x, self.epsilon, self.tol)


# ---------------------------------------------------------------------------
# CLI workload: blockproj gen and blockproj solve, called in process


class LinearBlockCli:
    """``blockproj gen linear`` at 200x50, solved by ``blockproj solve``
    with 10 classical blocks of 20 and no perturbations."""

    name = "linear-block-cli"
    count = 32
    tol = 0.3

    def setup(self, seed, workdir):
        files = []
        for j, s in enumerate(instance_seeds(seed, self.count)):
            problem = os.path.join(workdir, f"problem-{j}.json")
            code = _quiet_cli(["gen", "linear", "--m", 200, "--n", 50, "--seed", s,
                               "--out", problem])
            if code != 0:
                raise RuntimeError(f"blockproj gen exited with {code}")
            files.append((s, problem, os.path.join(workdir, f"trace-{j}.csv"),
                          os.path.join(workdir, f"summary-{j}.json")))
        doc = {
            "tau1": 0.5,
            "tau2": 0.5,
            "lambda": 1.0,
            "schedule": {
                "regime": "block_classical",
                "partition": [list(range(20 * b + 1, 20 * b + 21)) for b in range(10)],
                "intra": "uniform",
            },
            "policy": {"policy": "zero"},
            "stopping": [{"rule": "residual_below", "tol": self.tol}],
            "max_iterations": 100_000,
            "seed": seed,
        }
        config = os.path.join(workdir, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return {"files": files, "config": config, "problems": {}}

    def round(self, state):
        solve_s = calibrated_s = 0.0
        iterations = 0
        outputs = []
        for s, problem, trace, summary in state["files"]:
            _remove(trace, summary)
            wall, calibrated, code = calibration.timed(lambda: _quiet_cli(
                ["solve", "--problem", problem, "--config", state["config"],
                 "--trace", trace, "--summary", summary, "--seed", s]))
            solve_s += wall
            calibrated_s += calibrated
            doc = None
            if code == 0:
                with open(summary, encoding="utf-8") as fh:
                    doc = json.load(fh)
                iterations += doc["iterations_used"]
            outputs.append((code, doc, problem, trace))
        failures = [self.check(state, *out) for out in outputs]
        return Round(solve_s, calibrated_s, solve_s, iterations, failures)

    def check(self, state, code, summary, problem_path, trace_path):
        if code != 0:
            return f"blockproj solve exited with {code}"
        if summary["status"] != SUCCESS:
            return f"status {summary['status']}"
        if problem_path not in state["problems"]:
            with open(problem_path, encoding="utf-8") as fh:
                state["problems"][problem_path] = json.load(fh)
        problem = state["problems"][problem_path]
        with open(trace_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != summary["iterations_used"] + 1:
            return f"{len(rows)} trace rows for {summary['iterations_used']} iterations"
        if [int(r["k"]) for r in rows] != list(range(len(rows))):
            return "trace rows are not k = 0, 1, ..."

        def column(name):
            return np.array([float(r[name]) for r in rows])

        perturbation = column("perturbation_norm")
        if np.any(perturbation != 0.0):
            return "the zero policy recorded a nonzero perturbation"
        normals = np.array([c["a"] for c in problem["cutters"]])
        offsets = np.array([c["b"] for c in problem["cutters"]])
        final = np.array(summary["final_point"])
        final_dist = checks.halfspace_distances(normals, offsets, final)[0]
        max_residual = column("max_residual")
        sigma = problem["sigma"]
        # the CSV holds distances, not iterates: its first and last rows are
        # tied to distances computed here from x0, the witness and the final point
        witness = np.array(problem["witness"])
        x0 = np.array(problem["x0"])
        to_witness = np.linalg.norm([x0 - witness, final - witness], axis=1)
        from_start = np.linalg.norm(final - x0)
        dist_to_witness = column("dist_to_witness")
        dist_from_start = column("dist_from_start")
        return checks.first_failure(
            checks.check_within_tolerance(final_dist, self.tol, "halfspace"),
            checks.check_recorded([summary["final_max_residual"], max_residual[-1]],
                                  [final_dist.max()] * 2, "max residual"),
            checks.check_recorded(dist_to_witness[[0, -1]], to_witness, "witness distance"),
            checks.check_recorded(dist_from_start[[0, -1]], [0.0, from_start],
                                  "distance from x0"),
            checks.check_fejer(to_witness),
            checks.check_fejer(dist_to_witness),
            checks.check_drift(dist_from_start, sigma),
            checks.check_budget(perturbation[:-1], column("lambda")[:-1], max_residual[:-1], sigma),
        )


# ---------------------------------------------------------------------------
# verify suites through ``blockproj verify``


class VerifySuites:
    """The five property suites at the CLI's default trial counts."""

    name = "verify-suites"
    # requested trials, and outcomes each trial reports
    suites = {"fejer": (10_000, 2), "cutter": (10_000, 1), "budget": (1_000, 1),
              "convergence": (2, 5), "qhat": (3, 2)}
    # run and checked in every round but left out of the round's time and
    # outcome count: its two trials solve to tolerance under random
    # perturbations and take 0.9 s to 3.5 s, depending on the seed
    untimed = "convergence"

    def setup(self, seed, workdir):
        return [(suite, trials, per_trial, seed, os.path.join(workdir, f"{suite}.json"))
                for suite, (trials, per_trial) in self.suites.items()]

    def round(self, runs):
        solve_s = calibrated_s = operations_s = 0.0
        outcomes = 0
        outputs = []
        for suite, trials, _, seed, report in runs:
            _remove(report)
            wall, calibrated, code = calibration.timed(lambda: _quiet_cli(
                ["verify", suite, "--trials", trials, "--seed", seed, "--json", report]))
            operations_s += wall
            doc = None
            if os.path.exists(report):
                with open(report, encoding="utf-8") as fh:
                    doc = json.load(fh)
            if suite != self.untimed:
                solve_s += wall
                calibrated_s += calibrated
                outcomes += doc["trials"] if doc is not None else 0
            outputs.append((code, doc))
        failures = [self.check(run, code, doc) for run, (code, doc) in zip(runs, outputs)]
        # the suites are this workload's operations: its solve time and
        # iteration count are the timed suites' time and trial outcomes
        return Round(solve_s, calibrated_s, operations_s, outcomes, failures)

    def check(self, run, code, doc):
        suite, trials, per_trial, _, _ = run
        if doc is None:
            return f"{suite}: exit {code} and no report"
        if code != 0 or doc["failures"] != 0:
            return f"{suite}: exit {code}, {doc['failures']} failures"
        if doc["trials"] != trials * per_trial or doc["passes"] != doc["trials"]:
            return (f"{suite}: {doc['trials']} outcomes, {doc['passes']} passed,"
                    f" expected {trials * per_trial}")
        return None


WORKLOADS = {w.name: w for w in
             (LinearSimRandom(), LinearBlockCli(), L1Superiorized(), VerifySuites())}
