import json

import pytest

from blockproj import load_problem
from blockproj.cli import main


def _write_config(path, **overrides):
    doc = {
        "tau1": 0.5,
        "tau2": 0.5,
        "lambda": 1.0,
        "schedule": {"regime": "sequential_cyclic"},
        "policy": {"policy": "zero"},
        "stopping": [{"rule": "residual_below", "tol": 1e-6}],
        "max_iterations": 50_000,
        "seed": 1,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def _solve_args(problem, config, trace, summary, seed=None):
    args = [
        "solve",
        "--problem", str(problem),
        "--config", str(config),
        "--trace", str(trace),
        "--summary", str(summary),
    ]
    if seed is not None:
        args += ["--seed", str(seed)]
    return args


def test_gen_then_solve_roundtrip(tmp_path):
    problem_path = tmp_path / "p.json"
    assert main(["gen", "linear", "--m", "8", "--n", "5", "--seed", "7",
                 "--out", str(problem_path)]) == 0
    problem = load_problem(problem_path)
    assert problem.m == 8 and problem.dimension == 5

    config_path = tmp_path / "c.json"
    _write_config(config_path)
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    assert main(_solve_args(problem_path, config_path, trace, summary)) == 0

    lines = trace.read_text().splitlines()
    assert lines[0] == "k,max_residual,perturbation_norm,lambda,dist_to_witness,dist_from_start"
    doc = json.loads(summary.read_text())
    assert doc["status"] == "residual_converged"
    last = lines[-1].split(",")
    assert float(last[1]) == doc["final_max_residual"]
    assert doc["final_max_residual"] <= 1e-6
    # monotone nonincreasing distance-to-witness column
    dist = [float(row.split(",")[4]) for row in lines[1:]]
    assert all(b <= a + 1e-10 for a, b in zip(dist, dist[1:]))


def test_gen_discs_and_l1_structure(tmp_path):
    discs = tmp_path / "discs.json"
    assert main(["gen", "discs", "--m", "3", "--seed", "1", "--out", str(discs)]) == 0
    doc = json.loads(discs.read_text())
    assert [c["type"] for c in doc["cutters"]] == ["ball"] * 3

    l1 = tmp_path / "l1.json"
    assert main(["gen", "l1", "--s", "5", "--n", "8", "--eps", "2", "--seed", "3",
                 "--out", str(l1)]) == 0
    doc = json.loads(l1.read_text())
    kinds = [c["type"] for c in doc["cutters"]]
    assert kinds.count("hyperplane") == 5 and kinds.count("l1_ball") == 1
    assert doc["cost"] == {"form": "abs_sum"}


def test_trivially_feasible_single_row(tmp_path):
    problem_path = tmp_path / "p.json"
    problem_path.write_text(json.dumps({
        "dimension": 2,
        "cutters": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0}],
        "x0": [0.1, 0.0],
        "sigma": 5.0,
    }))
    config_path = tmp_path / "c.json"
    _write_config(config_path)
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    assert main(_solve_args(problem_path, config_path, trace, summary)) == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    doc = json.loads(summary.read_text())
    assert doc["iterations_used"] == 0
    # no witness: the column is empty
    assert trace.read_text().splitlines()[1].split(",")[4] == ""


def test_byte_identical_reruns(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["gen", "linear", "--m", "6", "--n", "4", "--seed", "9", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(
        config_path,
        policy={"policy": "random", "rho": 0.99},
        schedule={"regime": "simultaneous_uniform"},
        stopping=[{"rule": "residual_below", "tol": 1e-4}],
    )
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(_solve_args(problem_path, config_path, t1, s1)) == 0
    assert main(_solve_args(problem_path, config_path, t2, s2)) == 0
    assert t1.read_bytes() == t2.read_bytes()
    assert s1.read_bytes() == s2.read_bytes()
    # a different seed changes the trace
    t3 = tmp_path / "t3.csv"
    assert main(_solve_args(problem_path, config_path, t3, tmp_path / "s3.json",
                            seed=5)) == 0
    assert t1.read_bytes() != t3.read_bytes()


def test_missing_problem_file_exits_1(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    _write_config(config_path)
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    code = main(_solve_args(tmp_path / "nope.json", config_path, trace, summary))
    assert code == 1
    assert not trace.exists() and not summary.exists()
    assert "error:" in capsys.readouterr().err


def test_max_iterations_exit_code_2(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["gen", "linear", "--m", "6", "--n", "4", "--seed", "2", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, max_iterations=3, stopping=[{"rule": "residual_below", "tol": 0.0}])
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    assert main(_solve_args(problem_path, config_path, trace, summary)) == 2
    assert json.loads(summary.read_text())["status"] == "max_iterations"
    assert trace.exists()


def test_invalid_lambda_config_exits_1(tmp_path, capsys):
    problem_path = tmp_path / "p.json"
    main(["gen", "linear", "--m", "4", "--n", "3", "--seed", "4", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, **{"lambda": 1.95})
    code = main(_solve_args(problem_path, config_path, tmp_path / "t.csv", tmp_path / "s.json"))
    assert code == 1
    assert "lambda" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, where", [
    ({"stopping": [{"rule": "residual_below"}]}, "config.stopping[0].tol"),
    ({"stopping": [{"rule": "residual_below", "tol": None}]}, "config.stopping[0].tol"),
    ({"schedule": {"regime": "block_classical", "partition": 5}}, "config.schedule.partition"),
    ({"stopping": 5}, "config.stopping"),
    ({"max_iterations": None}, "config.max_iterations"),
    ({"lambda": float("nan")}, "config.lambda"),
    ({"lambda": {"list": [1.0, float("nan")]}}, "config.lambda.list"),
    ({"stopping": [{"rule": "residual_below", "tol": float("nan")}]},
     "config.stopping[0].tol"),
    ({"stopping": [{"rule": "max_distance", "eps": float("nan")}]},
     "config.stopping[0].eps"),
    ({"tau1": float("nan")}, "config.tau1"),
])
def test_malformed_config_field_exits_1(tmp_path, capsys, overrides, where):
    problem_path = tmp_path / "p.json"
    main(["gen", "discs", "--m", "3", "--seed", "6", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, **overrides)
    code = main(_solve_args(problem_path, config_path, tmp_path / "t.csv", tmp_path / "s.json"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1


def test_block_schedule_one_based_indices(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["gen", "discs", "--m", "3", "--seed", "6", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(
        config_path,
        schedule={"regime": "block_classical", "partition": [[1, 2], [3]], "intra": "uniform"},
    )
    assert main(_solve_args(problem_path, config_path, tmp_path / "t.csv",
                            tmp_path / "s.json")) == 0
    # an out-of-range index is a config error
    _write_config(
        config_path,
        schedule={"regime": "block_classical", "partition": [[1, 2], [4]], "intra": "uniform"},
    )
    assert main(_solve_args(problem_path, config_path, tmp_path / "t2.csv",
                            tmp_path / "s2.json")) == 1


def test_superiorized_policy_uses_problem_cost(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["gen", "l1", "--s", "4", "--n", "6", "--eps", "2", "--seed", "8",
          "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(
        config_path,
        policy={"policy": "superiorized", "rho": 0.9},
        schedule={"regime": "simultaneous_uniform"},
    )
    assert main(_solve_args(problem_path, config_path, tmp_path / "t.csv",
                            tmp_path / "s.json")) == 0
    # without a problem cost the same config is rejected
    bare = tmp_path / "bare.json"
    main(["gen", "linear", "--m", "4", "--n", "3", "--seed", "4", "--out", str(bare)])
    assert main(_solve_args(bare, config_path, tmp_path / "t2.csv",
                            tmp_path / "s2.json")) == 1


def test_verify_suites(tmp_path, capsys):
    assert main(["verify", "budget", "--trials", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "suite=budget" in out and "failures=0" in out

    report_path = tmp_path / "report.json"
    assert main(["verify", "fejer", "--trials", "100", "--seed", "2",
                 "--json", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["failures"] == 0
    assert doc["trials"] == 200  # boundary + strict sweeps


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_without_trials_exits_1(capsys, trials):
    assert main(["verify", "fejer", "--trials", trials]) == 1
    assert "--trials must be >= 1" in capsys.readouterr().err


def test_verify_unknown_suite_exits_1(capsys):
    assert main(["verify", "qhatt"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_gen_unknown_kind_exits_1(tmp_path, capsys):
    assert main(["gen", "pentagon", "--out", str(tmp_path / "x.json")]) == 1
    assert "unknown generator kind" in capsys.readouterr().err


def test_gen_invalid_params_exit_1(tmp_path):
    assert main(["gen", "discs", "--m", "1", "--out", str(tmp_path / "x.json")]) == 1
