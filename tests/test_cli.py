import json
from unittest import mock

import pytest

from blockproj import (
    BlockGeneralized,
    LambdaSchedule,
    RandomDirectionPolicy,
    ResidualBelow,
    SequentialRepetitive,
    SimultaneousDrifting,
    SolverConfig,
    ZeroPolicy,
    load_problem,
    run,
)
from blockproj import cli, oracles, solver
from blockproj.cli import assemble_config, main


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


def test_trace_csv_without_a_witness_formats_every_record(tmp_path):
    generated = tmp_path / "g.json"
    assert main(["gen", "linear", "--m", "20", "--n", "5", "--out", str(generated)]) == 0
    doc = json.loads(generated.read_text())
    del doc["witness"]
    problem_path = tmp_path / "p.json"
    problem_path.write_text(json.dumps(doc))
    partition = [list(range(b + 1, b + 6)) for b in range(0, 20, 5)]
    config = _write_config(tmp_path / "c.json",
                           schedule={"regime": "block_classical", "partition": partition},
                           stopping=[{"rule": "residual_below", "tol": 1e-8}])
    trace = tmp_path / "t.csv"
    assert main(_solve_args(problem_path, tmp_path / "c.json", trace, tmp_path / "s.json")) == 0

    problem = load_problem(problem_path)
    assert problem.witness is None
    records = run(problem, *assemble_config(config, problem)).trace
    # the trace crosses a storage block
    assert len(records) > solver._BLOCK_ROWS
    rows = ["k,max_residual,perturbation_norm,lambda,dist_to_witness,dist_from_start"]
    for rec in records:
        assert rec.distance_to_witness is None
        fields = (rec.max_residual, rec.perturbation_norm, rec.lam, "", rec.distance_from_start)
        rows.append(",".join([str(rec.k)] + [v if v == "" else f"{v:.17g}" for v in fields]))
    assert trace.read_text() == "\n".join(rows) + "\n"


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
    ({"schedule": {"regime": "block_classical", "partition": [[1, 2], [3]],
                   "intra": [[float("nan"), 1.0], [1.0]]}}, "config.schedule.intra[0]"),
    # numbers and integers are decoded as in problem files, not coerced
    ({"lambda": {"list": ["1.5", True]}}, "config.lambda.list"),
    ({"schedule": {"regime": "block_classical", "partition": [[1.9, "2"], ["3", 4.7]]}},
     "config.schedule.partition[0][0]"),
    ({"max_iterations": 12.9}, "config.max_iterations"),
    ({"seed": "7"}, "config.seed"),
    ({"policy": {"policy": "random", "rho": True}}, "config.policy.rho"),
    ({"stopping": [{"rule": "max_iterations", "limit": 3.0}]}, "config.stopping[0].rule"),
    ({"stopping": {"rule": "residual_below", "tol": 1e-6}}, "config.stopping"),
    ({"schedule": {"regime": "sequential_repetitive"}}, "config.schedule.control"),
    ({"schedule": {"regime": "block_generalized"}}, "config.schedule.blocks"),
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


def test_numeric_infinite_problem_sigma_is_infinity(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["gen", "linear", "--m", "6", "--n", "4", "--seed", "3", "--out", str(problem_path)])
    doc = json.loads(problem_path.read_text())
    config_path = tmp_path / "c.json"
    _write_config(config_path, policy={"policy": "random", "rho": 0.99})
    traces = []
    for name, sigma in (("string", "infinity"), ("number", float("inf"))):
        doc["sigma"] = sigma
        problem_path.write_text(json.dumps(doc))
        trace = tmp_path / f"{name}.csv"
        assert main(_solve_args(problem_path, config_path, trace, tmp_path / "s.json")) == 0
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    rows = traces[0].decode().splitlines()[1:]
    assert rows and all(float(row.split(",")[2]) == 0.0 for row in rows)


def test_nan_cutter_field_exits_1(tmp_path, capsys):
    problem_path = tmp_path / "p.json"
    problem_path.write_text(json.dumps({
        "dimension": 2,
        "cutters": [{"type": "halfspace", "a": [1.0, 0.0], "b": float("nan")}],
        "x0": [3.0, 0.0],
        "sigma": 10.0,
        "witness": [0.0, 0.0],
    }))
    config_path = tmp_path / "c.json"
    _write_config(config_path)
    trace = tmp_path / "t.csv"
    code = main(_solve_args(problem_path, config_path, trace, tmp_path / "s.json"))
    assert code == 1 and not trace.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: problem.cutters[0].b: ") and "NaN" in err


@pytest.mark.parametrize("cutter, where", [
    ({"type": "hyperplane", "a": [1.0, 0.0], "b": float("inf")}, "problem.cutters[0].b"),
    ({"type": "ball", "center": [0.0, 0.0], "radius": float("inf")},
     "problem.cutters[0].radius"),
])
def test_infinite_cutter_field_exits_1(tmp_path, capsys, cutter, where):
    problem_path = tmp_path / "p.json"
    problem_path.write_text(json.dumps({
        "dimension": 2, "cutters": [cutter], "x0": [3.0, 0.0], "sigma": 10.0,
    }))
    config_path = tmp_path / "c.json"
    _write_config(config_path)
    trace = tmp_path / "t.csv"
    code = main(_solve_args(problem_path, config_path, trace, tmp_path / "s.json"))
    assert code == 1 and not trace.exists()
    assert capsys.readouterr().err == f"error: {where}: expected a finite number, got inf\n"


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


# each regime as a config names it (1-based), and the schedule it names
@pytest.mark.parametrize("regime, schedule", [
    ({"regime": "sequential_repetitive", "control": [2, 1, 3, 1]},
     lambda m: SequentialRepetitive(m, [1, 0, 2, 0])),
    ({"regime": "simultaneous_drifting"}, SimultaneousDrifting),
    ({"regime": "simultaneous_drifting", "selector": [3, 1]},
     lambda m: SimultaneousDrifting(m, [2, 0])),
    ({"regime": "block_generalized", "blocks": [[3, 1], [2]]},
     lambda m: BlockGeneralized(m, [[2, 0], [1]])),
])
@pytest.mark.parametrize("policy", ["zero", "random"])
def test_config_regime_solves_as_its_schedule(tmp_path, regime, schedule, policy):
    problem_path = tmp_path / "p.json"
    main(["gen", "discs", "--m", "3", "--seed", "6", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, schedule=regime, policy={"policy": policy})
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    assert main(_solve_args(problem_path, config_path, trace, summary)) == 0
    doc = json.loads(summary.read_text())
    assert doc["status"] == "residual_converged"
    assert len(trace.read_text().splitlines()) == doc["iterations_used"] + 2

    problem = load_problem(problem_path)
    config = SolverConfig(lambda_schedule=LambdaSchedule(1.0), max_iterations=50_000, seed=1)
    result = run(problem, config, schedule(problem.m),
                 ZeroPolicy() if policy == "zero" else RandomDirectionPolicy(0.99),
                 [ResidualBelow(1e-6)])
    assert result.iterations_used == doc["iterations_used"]
    assert result.final_point.tolist() == doc["final_point"]


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


@pytest.mark.parametrize("cost", [None, {"form": "squared_norm"}])
def test_a_superiorized_cost_is_refused_also_where_the_problem_has_one(tmp_path, capsys, cost):
    # the policy steers against the problem's cost; a config names none
    problem_path = tmp_path / "p.json"
    main(["gen", "l1", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, policy={"policy": "superiorized", "cost": cost})
    code = main(_solve_args(problem_path, config_path, tmp_path / "t.csv", tmp_path / "s.json"))
    assert code == 1
    assert capsys.readouterr().err == "error: config.policy.cost: unknown field\n"


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config file"),
    ("{not json", "invalid JSON in"),
])
def test_unreadable_or_malformed_config_exits_1(tmp_path, capsys, content, message):
    problem_path = tmp_path / "p.json"
    main(["gen", "linear", "--m", "4", "--n", "3", "--seed", "4", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    if content is None:
        config_path.mkdir()  # a directory: open() raises an OSError
    else:
        config_path.write_text(content)
    trace = tmp_path / "t.csv"
    code = main(_solve_args(problem_path, config_path, trace, tmp_path / "s.json"))
    assert code == 1 and not trace.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} ") and err.count("\n") == 1


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


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 70)])
def test_verify_seed_outside_64_bits_exits_1(capsys, seed):
    # a 64-bit stream key would alias these seeds onto others
    assert main(["verify", "cutter", "--trials", "1", "--seed", seed]) == 1
    assert "--seed must be in [0, 2^64)" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["--seed", "config.seed"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_solve_seed_outside_64_bits_exits_1(tmp_path, capsys, where, seed):
    # the stream key keeps 64 bits, so -1 and 2^64 - 1 would write one trace
    problem_path = tmp_path / "p.json"
    main(["gen", "linear", "--m", "6", "--n", "4", "--seed", "9", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, **({"seed": seed} if where == "config.seed" else {}))
    trace, summary = tmp_path / "t.csv", tmp_path / "s.json"
    args = _solve_args(problem_path, config_path, trace, summary,
                       seed=seed if where == "--seed" else None)
    assert main(args) == 1
    assert not trace.exists() and not summary.exists()
    assert f"error: {where} must be in [0, 2^64), got {seed}" in capsys.readouterr().err


def test_solve_largest_seed_runs(tmp_path):
    problem_path = tmp_path / "p.json"
    main(["gen", "linear", "--m", "6", "--n", "4", "--seed", "9", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, policy={"policy": "random", "rho": 0.99})
    args = _solve_args(problem_path, config_path, tmp_path / "t.csv", tmp_path / "s.json",
                       seed=2 ** 64 - 1)
    assert main(args) == 0


@pytest.mark.parametrize("suite, trials", [("cutter", "5"), ("qhat", "2"), ("convergence", "2")])
def test_verify_largest_seed_runs(capsys, suite, trials):
    # the instance suites solve instance (s + t) mod 2^64: here s, then 0
    assert main(["verify", suite, "--trials", trials, "--seed", str(2 ** 64 - 1)]) == 0
    assert "failures=0" in capsys.readouterr().out


def test_verify_unknown_suite_exits_1(capsys):
    assert main(["verify", "qhatt"]) == 1
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("kind, generator, spelled", [
    ("linear", "gen_linear_feasibility", ["--radius", "5.0"]),
    ("discs", "gen_disc_intersection", ["--n", "2", "--overlap", "0.5"]),
    ("l1", "gen_l1_constrained", ["--eps", "2.0"]),
])
def test_gen_leaves_an_option_it_is_not_given_to_the_generator(tmp_path, kind, generator, spelled):
    sparse, explicit = tmp_path / "sparse.json", tmp_path / "explicit.json"
    with mock.patch.object(cli, generator, wraps=getattr(cli, generator)) as called:
        assert main(["gen", kind, "--out", str(sparse)]) == 0
        assert main(["gen", kind, *spelled, "--out", str(explicit)]) == 0
    # no keyword argument the command line did not give: the library's defaults
    assert called.call_args_list[0].kwargs == {}
    assert sparse.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("kind, args, flag", [
    ("linear", ["--s", "3"], "--s"),
    ("linear", ["--eps", "1.5"], "--eps"),
    ("linear", ["--overlap", "7"], "--overlap"),
    ("discs", ["--s", "3"], "--s"),
    ("discs", ["--eps", "1.5"], "--eps"),
    ("discs", ["--radius", "2"], "--radius"),
    ("l1", ["--m", "4"], "--m"),
    ("l1", ["--radius", "2"], "--radius"),
    ("l1", ["--overlap", "0.5"], "--overlap"),
    # the first foreign option in the parser's flag order, not the command line's
    ("linear", ["--overlap", "7", "--radius", "2", "--s", "3"], "--s"),
])
def test_gen_refuses_an_option_its_kind_does_not_take(tmp_path, capsys, kind, args, flag):
    out = tmp_path / "x.json"
    assert main(["gen", kind, *args, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: gen {kind} takes no {flag}\n"
    assert not out.exists()


def test_gen_has_no_margin_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["gen", "linear", "--margin", "1.0", "--out", str(tmp_path / "x.json")])
    assert exit_.value.code == 2 and "--margin" in capsys.readouterr().err


def test_gen_unknown_kind_exits_1(tmp_path, capsys):
    assert main(["gen", "pentagon", "--out", str(tmp_path / "x.json")]) == 1
    assert "unknown generator kind" in capsys.readouterr().err


def test_gen_invalid_params_exit_1(tmp_path):
    assert main(["gen", "discs", "--m", "1", "--out", str(tmp_path / "x.json")]) == 1


def test_main_reuses_its_parser_and_runs_the_command_bound_when_called(tmp_path):
    # a command replaced after the parser was built, as a tracer replaces
    # cmd_gen and cmd_solve, is the one main runs
    assert main(["gen", "linear", "--m", "3", "--n", "2", "--out", str(tmp_path / "a.json")]) == 0
    parser = cli.build_parser()
    with mock.patch.object(cli, "cmd_gen", return_value=7) as gen:
        assert main(["gen", "linear", "--out", str(tmp_path / "b.json")]) == 7
    gen.assert_called_once()
    assert cli.build_parser() is parser
    assert not (tmp_path / "b.json").exists()


# a config field read through the problem file's codec is reported in its form
@pytest.mark.parametrize("overrides, message", [
    ({"schedule": 5}, "config.schedule: expected an object"),
    ({"schedule": {}}, "config.schedule.regime: missing required field"),
    ({"policy": 5}, "config.policy: expected an object"),
    ({"policy": {}}, "config.policy.policy: missing required field"),
    ({"stopping": [5]}, "config.stopping[0]: expected an object"),
    ({"stopping": [{"tol": 1e-6}]}, "config.stopping[0].rule: missing required field"),
    ({"schedule": {"regime": "sequential_repetitive"}},
     "config.schedule.control: missing required field"),
    ({"schedule": {"regime": "block_classical"}}, "config.schedule.partition: missing required field"),
    ({"schedule": {"regime": "block_generalized"}}, "config.schedule.blocks: missing required field"),
    ({"lambda": {}}, 'config.lambda: expected a number or {"list": [...]}'),
    ({"policy": {"policy": "superiorized"}},
     "config.policy: a superiorized policy needs a cost; the problem declares none"),
    # a key that is present is decoded: null is refused, not taken as absent
    ({"schedule": {"regime": "simultaneous_drifting", "selector": None}},
     "config.schedule.selector: expected an array"),
    # a key that no field names is refused, the first in document order
    ({"max_iteraions": 3}, "config.max_iteraions: unknown field"),
    ({"schedule": {"regime": "sequential_cyclic", "selector": [1]},
      "policy": {"policy": "zero", "rho": "x"}}, "config.schedule.selector: unknown field"),
    ({"schedule": {"regime": "block_classical", "partition": [[1], [2, 3]], "intra": "uniform",
                   "intr": "uniform"}}, "config.schedule.intr: unknown field"),
    ({"policy": {"policy": "zero", "rho": "x"}}, "config.policy.rho: unknown field"),
    ({"policy": {"policy": "random", "cost": {"form": "abs_sum"}}},
     "config.policy.cost: unknown field"),
    ({"policy": {"policy": "superiorized", "cost": {"form": "abs_sum"}}},
     "config.policy.cost: unknown field"),
    ({"sigma_override": 1}, "config.sigma_override: unknown field"),
    ({"stopping": [{"rule": "residual_below", "tol": 1e-6, "eps": 1, "limit": 2}]},
     "config.stopping[0].eps: unknown field"),
    ({"lambda": {"list": [1.0], "cycle": True}}, "config.lambda.cycle: unknown field"),
    # an index list is nonempty, and a block holds each index once: the
    # schedule's own messages would name 0-based indices and its arguments
    ({"schedule": {"regime": "block_generalized", "blocks": [[1, 1]]}},
     "config.schedule.blocks[0][1]: repeated index 1"),
    ({"schedule": {"regime": "block_generalized", "blocks": [[2], [3, 1, 3]]}},
     "config.schedule.blocks[1][2]: repeated index 3"),
    ({"schedule": {"regime": "block_classical", "partition": [[1, 1], [2, 3]]}},
     "config.schedule.partition[0][1]: repeated index 1"),
    ({"schedule": {"regime": "block_generalized", "blocks": [[]]}},
     "config.schedule.blocks[0]: expected a nonempty array"),
    ({"schedule": {"regime": "block_generalized", "blocks": []}},
     "config.schedule.blocks: expected a nonempty array"),
    ({"schedule": {"regime": "block_classical", "partition": [[1, 2], []]}},
     "config.schedule.partition[1]: expected a nonempty array"),
    ({"schedule": {"regime": "sequential_repetitive", "control": []}},
     "config.schedule.control: expected a nonempty array"),
    ({"schedule": {"regime": "simultaneous_drifting", "selector": []}},
     "config.schedule.selector: expected a nonempty array"),
])
def test_config_error_message(tmp_path, capsys, overrides, message):
    problem_path = tmp_path / "p.json"
    main(["gen", "discs", "--m", "3", "--seed", "6", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, **overrides)
    code = main(_solve_args(problem_path, config_path, tmp_path / "t.csv", tmp_path / "s.json"))
    assert code == 1 and capsys.readouterr().err == f"error: {message}\n"


# a partition or intra weights the schedule would refuse, named in file terms
@pytest.mark.parametrize("partition, intra, message", [
    ([[1, 2], [2, 3, 4]], "uniform", "partition[1][0]: index 2 is also in block 1"),
    ([[1, 2], [3]], "uniform", "partition: index 4 is in no block"),
    ([[1, 2], [3, 4]], [[1.0], [0.5, 0.5]],
     "intra[0]: expected 2 weights, one per index of block 1"),
    ([[1, 2], [3, 4]], [[0.2, 0.5], [0.5, 0.5]],
     "intra[0]: weights must lie in [0, 1] and sum to 1"),
    ([[1, 2], [3, 4]], [[0.5, 0.5], [1.5, -0.5]],
     "intra[1]: weights must lie in [0, 1] and sum to 1"),
    ([[1, 2], [3, 4]], [[0.5, 0.5]], "intra: expected 2 arrays, one per block"),
])
def test_block_classical_config_error_message(tmp_path, capsys, partition, intra, message):
    problem_path = tmp_path / "p.json"
    main(["gen", "discs", "--m", "4", "--out", str(problem_path)])
    config_path = tmp_path / "c.json"
    _write_config(config_path, schedule={"regime": "block_classical", "partition": partition,
                                         "intra": intra})
    code = main(_solve_args(problem_path, config_path, tmp_path / "t.csv", tmp_path / "s.json"))
    assert code == 1 and capsys.readouterr().err == f"error: config.schedule.{message}\n"


def test_problem_cost_of_another_dimension_exits_1(tmp_path, capsys):
    problem_path = tmp_path / "p.json"
    main(["gen", "discs", "--m", "3", "--seed", "6", "--out", str(problem_path)])
    doc = json.loads(problem_path.read_text())
    doc["cost"] = {"form": "affine", "a": [1, 2, 3], "b": 0}
    problem_path.write_text(json.dumps(doc))
    config_path = tmp_path / "c.json"
    _write_config(config_path, policy={"policy": "superiorized"})
    trace = tmp_path / "t.csv"
    assert main(_solve_args(problem_path, config_path, trace, tmp_path / "s.json")) == 1
    assert not trace.exists()
    assert capsys.readouterr().err == "error: problem.cost: dimension 3 does not match 2\n"


def test_verify_unknown_suite_is_one_error_line(capsys):
    assert main(["verify", "nosuch"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: unknown suite 'nosuch'; choose from {sorted(cli.SUITES)}\n"


def test_verify_prints_the_digest_of_each_failed_trial(capsys):
    report = oracles.SuiteReport("fejer", 3, 1, 2, 0.5, {}, ("a1b2", "c3d4"))
    with mock.patch.dict(cli.SUITES, fejer=lambda trials, seed: report):
        assert main(["verify", "fejer", "--trials", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "suite=fejer trials=3 passes=1 failures=2 worst_violation=0.5\n"
    assert err == "  FAIL a1b2\n  FAIL c3d4\n"


# every default a config file may leave out, spelled out
_DEFAULTS = {"lambda": 1.0, "tau1": 0.5, "tau2": 0.5, "max_iterations": 100_000, "seed": 0,
             "stopping": [{"rule": "residual_below", "tol": 1e-8}],
             "schedule": {"regime": "sequential_cyclic"}, "policy": {"policy": "zero"}}


@pytest.mark.parametrize("kind, sparse, spelled", [
    ("linear", {}, _DEFAULTS),
    ("discs", {}, _DEFAULTS),
    ("l1", {}, _DEFAULTS),
    ("linear", {"policy": {"policy": "random"}}, {"policy": {"policy": "random", "rho": 0.99}}),
    ("l1", {"policy": {"policy": "superiorized"}},
     {"policy": {"policy": "superiorized", "rho": 0.99}}),
    ("linear", {"schedule": {"regime": "sequential_almost_cyclic"}},
     {"schedule": {"regime": "sequential_almost_cyclic", "order_seed": 0}}),
])
def test_a_config_that_leaves_out_a_default_solves_as_one_that_spells_it_out(
        tmp_path, capsys, kind, sparse, spelled):
    problem = tmp_path / "p.json"
    main(["gen", kind, "--out", str(problem)])
    capsys.readouterr()
    outputs = []
    for name, doc in (("sparse", sparse), ("spelled", spelled)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        trace = tmp_path / f"{name}.csv"
        code = main(_solve_args(problem, config, trace, tmp_path / f"{name}-summary.json"))
        outputs.append((code, capsys.readouterr().out, trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_an_empty_config_leaves_the_schedule_policy_and_stopping_to_run(tmp_path):
    problem = tmp_path / "p.json"
    main(["gen", "linear", "--out", str(problem)])
    config, *parts = assemble_config({}, load_problem(problem))
    assert parts == [None, None, None]
    assert (config.tau1, config.tau2, config.max_iterations, config.seed) == (0.5, 0.5, 100_000, 0)


@pytest.mark.parametrize("which", ["problem", "config"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys, which):
    paths = {"problem": tmp_path / "p.json", "config": tmp_path / "c.json"}
    main(["gen", "linear", "--m", "4", "--n", "3", "--out", str(paths["problem"])])
    paths["config"].write_text("{}")
    paths[which].write_bytes(b"\xff{}")
    capsys.readouterr()
    code = main(_solve_args(paths["problem"], paths["config"], tmp_path / "t.csv",
                            tmp_path / "s.json"))
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: invalid JSON in {paths[which]}: 'utf-8' codec can't decode")
