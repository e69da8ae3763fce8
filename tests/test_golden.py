"""Byte-for-byte regression against the committed files in tests/golden.

Each golden file is the output of the recipe below.  Any change to a float
the solver computes, to the trace CSV format, to the problem-file format,
to a ``blockproj verify --json`` report or to the values of a verify trial
fails here.  When such a change is intended, first compare fresh output
with the committed traces, writing nothing:

    PYTHONPATH=src python tests/test_golden.py --diff

then rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and state the reason, with the comparison, with the change.
"""

import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from blockproj import (
    AbsSum,
    AffineFunction,
    Ball,
    BallQuadratic,
    Box,
    Halfspace,
    Hyperplane,
    L1Ball,
    Problem,
    QuadraticFunction,
    RandomDirectionPolicy,
    Resolvent,
    SetIndicator,
    SimultaneousUniform,
    SolverConfig,
    SquaredNorm,
    SubgradientProjection,
    SuperiorizedPolicy,
    load_problem,
    run,
    save_problem,
)
from blockproj import cli, oracles
from blockproj.cli import main

GOLDEN = Path(__file__).parent / "golden"

LINEAR = ["linear", "--m", "12", "--n", "6", "--seed", "5"]
L1 = ["l1", "--s", "5", "--n", "8", "--eps", "2", "--seed", "3"]

# three blocks of the 12 LINEAR halfspaces, 1-based as in config files
THIRDS = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]

# file name -> (generator arguments, schedule, policy, residual tolerance)
TRACES = {
    "trace_cyclic_zero_linear.csv":
        (LINEAR, {"regime": "sequential_cyclic"}, {"policy": "zero"}, 1e-6),
    "trace_simultaneous_random_linear.csv":
        (LINEAR, {"regime": "simultaneous_uniform"}, {"policy": "random", "rho": 0.99}, 1e-3),
    "trace_block_classical_linear.csv":
        (LINEAR, {"regime": "block_classical", "partition": THIRDS}, {"policy": "zero"}, 1e-6),
    # a table of several rows, each row's support two slices of the table
    "trace_block_random_linear.csv":
        (LINEAR, {"regime": "block_classical", "partition": THIRDS},
         {"policy": "random", "rho": 0.99}, 1e-3),
    "trace_superiorized_l1.csv":
        (L1, {"regime": "simultaneous_uniform"}, {"policy": "superiorized", "rho": 0.99}, 1e-4),
    # 20 one-hot rows of 20 weights: too long a period for the table to
    # build its rows once, so every row is built per call
    "trace_cyclic_random_linear20.csv":
        (["linear", "--m", "20", "--n", "6", "--seed", "5"], {"regime": "sequential_cyclic"},
         {"policy": "random", "rho": 0.99}, 1e-3),
}

PROBLEM = "problem_all_kinds.json"

# sha256 of every record's per-index residuals, as bytes, over the runs of
# residual_digest; the first five recipes' residuals were pinned while the
# trace still stored the vectors the run swept, so residuals swept again from
# a record's point must give their bits
RESIDUALS_SHA256 = "466238c4dc6d62ef7819eab709d5a2b4b1ea1710ed88970483350e4222bf4205"

# suite -> trials of ``blockproj verify <suite> --seed 0 --json``
VERIFY = {"fejer": 1000, "cutter": 1000, "budget": 200, "qhat": 1, "convergence": 1}

# suite -> trials whose every outcome is pinned in TRIALS, seed 0
TRIAL_VALUES = {"fejer": 100, "cutter": 200, "budget": 200, "qhat": 1, "convergence": 1}
TRIALS = "verify_trials.tsv"

CUTTER_TYPES = {"halfspace", "hyperplane", "ball", "box", "l1_ball",
                "subgradient_projection", "resolvent"}
FUNCTION_FORMS = {"affine", "quadratic", "norm_squared_minus", "abs_sum",
                  "squared_norm", "indicator"}


def write_trace(name, work, out):
    """Run ``blockproj gen`` and ``blockproj solve`` for one recipe into ``out``."""
    gen, schedule, policy, tol = TRACES[name]
    problem = work / "problem.json"
    config = work / "config.json"
    assert main(["gen", *gen, "--out", str(problem)]) == 0
    config.write_text(json.dumps({
        "lambda": 1.0,
        "schedule": schedule,
        "policy": policy,
        "stopping": [{"rule": "residual_below", "tol": tol}],
        "max_iterations": 50_000,
        "seed": 1,
    }))
    assert main(["solve", "--problem", str(problem), "--config", str(config),
                 "--trace", str(out), "--summary", str(work / "summary.json")]) == 0


def write_verify(suite, out):
    """Run ``blockproj verify`` for one suite, writing its JSON report to ``out``."""
    assert main(["verify", suite, "--trials", str(VERIFY[suite]), "--seed", "0",
                 "--json", str(out)]) == 0


def trial_lines():
    """One tab-separated line per trial outcome of each suite in
    TRIAL_VALUES: suite, inputs digest, lhs, rhs, violation (exact
    ``repr``) and passed.  The outcomes are the ones the suite itself
    hands to its summary, so the lines follow the suite's own seeding."""
    lines = []
    for suite, trials in TRIAL_VALUES.items():
        seen = []
        summarize = oracles._summarize

        def keep(name, outcomes, coverage):
            seen.extend(outcomes)
            return summarize(name, outcomes, coverage)

        with mock.patch.object(oracles, "_summarize", keep):
            oracles.SUITES[suite](trials, 0)
        for o in seen:
            values = "\t".join(repr(float(v)) for v in (o.lhs, o.rhs, o.violation))
            lines.append(f"{suite}\t{o.inputs_digest}\t{values}\t{o.passed}\n")
    return "".join(lines)


def residual_digest(work):
    """sha256 over the per-index residuals of every record of the TRACES
    runs, in name order, then of a mixed-kind problem under simultaneous
    control with random and with superiorized perturbations."""
    from test_solver import _mixed_problem

    results = []

    def solve(*args):
        results.append(run(*args))
        return results[-1]

    with mock.patch.object(cli, "run", solve):
        for name in sorted(TRACES):
            write_trace(name, work, work / name)
    problem = _mixed_problem(7)
    config = SolverConfig(residual_tolerance=1e-6, max_iterations=300, seed=7)
    for policy in (RandomDirectionPolicy(0.99), SuperiorizedPolicy(problem.cost, 0.99)):
        results.append(run(problem, config, SimultaneousUniform(problem.m), policy))
    digest = hashlib.sha256()
    for result in results:
        for rec in result.trace:
            digest.update(rec.per_index_residuals.tobytes())
    return digest.hexdigest()


def all_kinds_problem():
    """Every cutter type and every function form, with an indicator nested
    in a resolvent; the origin is a common fixed point."""
    third = 1.0 / 3.0
    cutters = [
        Halfspace([1.0, -2.5], 0.1),
        Hyperplane([third, 1.0], 0.0),
        Ball([0.25, -0.5], 1.5),
        Box([-1.0, -third], [2.0, 0.75]),
        L1Ball(float.fromhex("0x1.921fb54442d18p+1")),
        SubgradientProjection(AffineFunction([0.6, 0.8], 0.3)),
        SubgradientProjection(QuadraticFunction([[2.0, 0.5], [0.5, 1.0]], [0.1, -0.2], -1.0)),
        SubgradientProjection(BallQuadratic([-0.125, 0.375], 2.0)),
        Resolvent(AbsSum(), 0.7),
        Resolvent(SquaredNorm(), 1e-3),
        Resolvent(SetIndicator(Box([-0.5, -0.5], [0.5, 0.5])), 1.3),
    ]
    return Problem(2, cutters, [3.0, -4.0], sigma=7.125, witness=[0.0, 0.0],
                   cost=AbsSum())


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_matches_golden(name, tmp_path):
    out = tmp_path / name
    write_trace(name, tmp_path, out)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_per_index_residuals_match_their_digest(tmp_path):
    assert residual_digest(tmp_path) == RESIDUALS_SHA256


def test_problem_file_matches_golden(tmp_path):
    golden = (GOLDEN / PROBLEM).read_bytes()
    doc = json.loads(golden)
    assert {c["type"] for c in doc["cutters"]} == CUTTER_TYPES
    forms = {c[key]["form"] for c in doc["cutters"] for key in ("f", "g") if key in c}
    assert forms == FUNCTION_FORMS
    written = tmp_path / "written.json"
    save_problem(all_kinds_problem(), written)
    assert written.read_bytes() == golden
    # load and save again: the same bytes come back
    again = tmp_path / "again.json"
    save_problem(load_problem(GOLDEN / PROBLEM), again)
    assert again.read_bytes() == golden


@pytest.mark.parametrize("suite", sorted(VERIFY))
def test_verify_report_matches_golden(suite, tmp_path):
    out = tmp_path / "report.json"
    write_verify(suite, out)
    assert out.read_bytes() == (GOLDEN / f"verify_{suite}.json").read_bytes()


def test_verify_trial_values_match_golden():
    assert trial_lines().encode("utf-8") == (GOLDEN / TRIALS).read_bytes()


def _columns(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), {key: [row[key] for row in rows] for key in rows[0]}


def diff_traces():
    """Print, per golden trace, the row counts of the committed file and of
    fresh output and the largest absolute and relative difference of each
    column over the rows both have."""
    with tempfile.TemporaryDirectory() as work:
        for name in sorted(TRACES):
            fresh = Path(work) / name
            write_trace(name, Path(work), fresh)
            old_rows, old = _columns(GOLDEN / name)
            new_rows, new = _columns(fresh)
            print(f"{name}: rows committed {old_rows}, fresh {new_rows}")
            for key in old:
                pairs = [(float(a), float(b)) for a, b in zip(old[key], new[key]) if a and b]
                worst_abs = max((abs(a - b) for a, b in pairs), default=0.0)
                worst_rel = max((abs(a - b) / abs(a) for a, b in pairs if a != 0.0),
                                default=0.0)
                print(f"  {key}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        diff_traces()
        sys.exit(0)
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for trace in TRACES:
            write_trace(trace, Path(work), GOLDEN / trace)
    save_problem(all_kinds_problem(), GOLDEN / PROBLEM)
    for suite in VERIFY:
        write_verify(suite, GOLDEN / f"verify_{suite}.json")
    (GOLDEN / TRIALS).write_bytes(trial_lines().encode("utf-8"))
