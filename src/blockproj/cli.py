"""Command-line front end: generate instances, run solves, verify properties.

Exit codes: 0 on success (including a converged solve), 2 when a solve ran
out of iterations, 1 on any error.  Trace CSVs are byte-reproducible for
identical (problem, config, seed) inputs.
"""

import argparse
import dataclasses
import json
import math
import sys

from .core import (
    INFINITE_SIGMA,
    BlockprojError,
    LambdaSchedule,
    ParseError,
    RunStatus,
    SolverConfig,
)
from .oracles import SUITES
from .perturbation import RandomDirectionPolicy, SuperiorizedPolicy, ZeroPolicy
from .problems import (
    _convert,
    _get,
    function_from_json,
    gen_disc_intersection,
    gen_l1_constrained,
    gen_linear_feasibility,
    load_problem,
    save_problem,
)
from .solver import MaxDistance, MaxFunctionValue, MaxIterations, ResidualBelow, run
from .weights import (
    BlockClassicalCyclic,
    BlockGeneralized,
    SequentialAlmostCyclic,
    SequentialCyclic,
    SequentialRepetitive,
    SimultaneousDrifting,
    SimultaneousUniform,
)

_SUCCESS_STATUSES = (
    RunStatus.RESIDUAL_CONVERGED,
    RunStatus.DISTANCE_CONVERGED,
    RunStatus.FUNCTION_CONVERGED,
)


# ---------------------------------------------------------------------------
# config-file decoding (operator indices are 1-based in files)

def _number(value, path):
    """A numeric field.  Python's JSON reader accepts NaN, which every range
    check of the solver refuses; refusing it here names the field."""
    number = _convert(value, path)
    if math.isnan(number):
        raise ParseError(f"{path}: expected a number, got NaN")
    return number


def _indices(raw, m, path):
    idx = _convert(raw, path, lambda r: [int(i) - 1 for i in r], "an array of 1-based indices")
    if any(not 0 <= i < m for i in idx):
        raise ParseError(f"{path}: index outside 1..{m}")
    return idx


def schedule_from_json(obj, m, path="config.schedule"):
    if not isinstance(obj, dict) or "regime" not in obj:
        raise ParseError(f"{path}: expected an object with a 'regime' field")
    regime = obj["regime"]
    if regime == "sequential_cyclic":
        return SequentialCyclic(m)
    if regime == "sequential_almost_cyclic":
        return SequentialAlmostCyclic(
            m,
            _convert(obj.get("period_bound", m), f"{path}.period_bound", int),
            _convert(obj.get("order_seed", 0), f"{path}.order_seed", int),
        )
    if regime == "sequential_repetitive":
        if "control" not in obj:
            raise ParseError(f"{path}.control: a control cycle is required")
        return SequentialRepetitive(m, _indices(obj["control"], m, f"{path}.control"))
    if regime == "simultaneous_uniform":
        return SimultaneousUniform(m)
    if regime == "simultaneous_drifting":
        selector = obj.get("selector")
        if selector is not None:
            selector = _indices(selector, m, f"{path}.selector")
        return SimultaneousDrifting(m, selector)
    if regime == "block_classical":
        if "partition" not in obj:
            raise ParseError(f"{path}.partition: required")
        partition = [
            _indices(block, m, f"{path}.partition[{i}]")
            for i, block in enumerate(_convert(obj["partition"], f"{path}.partition", list,
                                               "an array"))
        ]
        intra = obj.get("intra", "uniform")
        if intra != "uniform":
            intra = _convert(intra, f"{path}.intra",
                             lambda raw: [[float(v) for v in ws] for ws in raw],
                             "\"uniform\" or an array of weight arrays")
        return BlockClassicalCyclic(m, partition, intra)
    if regime == "block_generalized":
        if "blocks" not in obj:
            raise ParseError(f"{path}.blocks: required")
        blocks = [
            _indices(block, m, f"{path}.blocks[{i}]")
            for i, block in enumerate(_convert(obj["blocks"], f"{path}.blocks", list,
                                               "an array"))
        ]
        return BlockGeneralized(m, blocks)
    raise ParseError(f"{path}.regime: unknown regime {regime!r}")


def policy_from_json(obj, problem_cost, path="config.policy"):
    if not isinstance(obj, dict) or "policy" not in obj:
        raise ParseError(f"{path}: expected an object with a 'policy' field")
    kind = obj["policy"]
    if kind == "zero":
        return ZeroPolicy()
    if kind == "random":
        return RandomDirectionPolicy(_number(obj.get("rho", 0.99), f"{path}.rho"))
    if kind == "superiorized":
        cost = obj.get("cost")
        if cost is not None:
            cost = function_from_json(cost, f"{path}.cost")
        elif problem_cost is not None:
            cost = problem_cost
        else:
            raise ParseError(f"{path}.cost: required (the problem declares no cost)")
        return SuperiorizedPolicy(cost, _number(obj.get("rho", 0.99), f"{path}.rho"))
    raise ParseError(f"{path}.policy: unknown policy {kind!r}")


_RULES = {
    "residual_below": (ResidualBelow, "tol", _number),
    "max_distance": (MaxDistance, "eps", _number),
    "max_function_value": (MaxFunctionValue, "eps", _number),
    "max_iterations": (MaxIterations, "limit", lambda raw, path: _convert(raw, path, int)),
}


def stopping_from_json(rules, path="config.stopping"):
    out = []
    for i, obj in enumerate(_convert(rules, path, list, "an array")):
        if not isinstance(obj, dict) or "rule" not in obj:
            raise ParseError(f"{path}[{i}]: expected an object with a 'rule' field")
        kind = obj["rule"]
        if not isinstance(kind, str) or kind not in _RULES:
            raise ParseError(f"{path}[{i}].rule: unknown rule {kind!r}")
        rule, key, decode = _RULES[kind]
        out.append(rule(decode(_get(obj, key, f"{path}[{i}]"), f"{path}[{i}].{key}")))
    return out


def assemble_config(doc, problem, seed_override=None):
    """Build (SolverConfig, schedule, policy, stopping) from a config document."""
    if not isinstance(doc, dict):
        raise ParseError("config: expected a JSON object")
    lam = doc.get("lambda", 1.0)
    if isinstance(lam, dict):
        if "list" not in lam:
            raise ParseError("config.lambda: expected a number or {\"list\": [...]}")
        values = _convert(lam["list"], "config.lambda.list",
                          lambda vs: [float(v) for v in vs], "numbers")
        if any(math.isnan(v) for v in values):
            raise ParseError("config.lambda.list: expected numbers, got NaN")
        schedule = LambdaSchedule(values)
    else:
        schedule = LambdaSchedule(_number(lam, "config.lambda"))
    sigma = doc.get("sigma_override")
    if sigma == "infinity":
        sigma = INFINITE_SIGMA
    elif sigma is not None:
        sigma = _number(sigma, "config.sigma_override")
    stopping = stopping_from_json(doc.get("stopping", [{"rule": "residual_below", "tol": 1e-8}]))
    residual_tol = next((r.tol for r in stopping if isinstance(r, ResidualBelow)), 1e-8)
    if seed_override is None:
        seed = _convert(doc.get("seed", 0), "config.seed", int)
    else:
        seed = int(seed_override)
    config = SolverConfig(
        tau1=_number(doc.get("tau1", 0.5), "config.tau1"),
        tau2=_number(doc.get("tau2", 0.5), "config.tau2"),
        lambda_schedule=schedule,
        sigma=sigma,
        max_iterations=_convert(doc.get("max_iterations", 100_000), "config.max_iterations", int),
        residual_tolerance=residual_tol,
        seed=seed,
    )
    weight_schedule = schedule_from_json(
        doc.get("schedule", {"regime": "sequential_cyclic"}), problem.m
    )
    policy = policy_from_json(doc.get("policy", {"policy": "zero"}), problem.cost)
    return config, weight_schedule, policy, stopping


# ---------------------------------------------------------------------------
# outputs

def _fmt(value):
    return f"{value:.17g}"


def write_trace_csv(trace, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,max_residual,perturbation_norm,lambda,dist_to_witness,dist_from_start\n")
        for rec in trace:
            witness = "" if rec.distance_to_witness is None else _fmt(rec.distance_to_witness)
            fh.write(
                f"{rec.k},{_fmt(rec.max_residual)},{_fmt(rec.perturbation_norm)},"
                f"{_fmt(rec.lam)},{witness},{_fmt(rec.distance_from_start)}\n"
            )


def write_summary(result, config_echo, path):
    doc = {
        "status": result.status.value,
        "iterations_used": result.iterations_used,
        "final_max_residual": result.trace[-1].max_residual,
        "final_point": [float(v) for v in result.final_point],
        "config_echo": config_echo,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands

def cmd_solve(args):
    problem = load_problem(args.problem)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {args.config}: {exc}") from exc
    config, schedule, policy, stopping = assemble_config(doc, problem, args.seed)
    result = run(problem, config, schedule, policy, stopping)
    echo = dict(doc)
    echo["seed"] = config.seed
    write_trace_csv(result.trace, args.trace)
    write_summary(result, echo, args.summary)
    print(
        f"status={result.status.value} iterations={result.iterations_used}"
        f" final_max_residual={_fmt(result.trace[-1].max_residual)}"
    )
    return 0 if result.status in _SUCCESS_STATUSES else 2


def cmd_gen(args):
    kind = args.kind
    if kind == "linear":
        n = args.n if args.n is not None else 10
        problem = gen_linear_feasibility(args.seed, args.m, n, args.radius,
                                         margin=args.margin)
    elif kind == "discs":
        n = args.n if args.n is not None else 2
        problem = gen_disc_intersection(args.seed, args.m, n=n,
                                        overlap=args.overlap, margin=args.margin)
    elif kind == "l1":
        n = args.n if args.n is not None else 8
        problem = gen_l1_constrained(args.seed, args.s, n, args.eps,
                                     margin=args.margin)
    else:
        raise ParseError(f"unknown generator kind {kind!r} (use linear, discs or l1)")
    save_problem(problem, args.out)
    print(f"wrote {args.out}: {problem.m} cutters in R^{problem.dimension}")
    return 0


_DEFAULT_TRIALS = {"fejer": 10_000, "cutter": 10_000, "budget": 1_000,
                   "convergence": 2, "qhat": 3}


def cmd_verify(args):
    suite = args.suite
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 1
    trials = args.trials if args.trials is not None else _DEFAULT_TRIALS[suite]
    if trials < 1:
        print(f"error: --trials must be >= 1, got {trials}", file=sys.stderr)
        return 1
    report = SUITES[suite](trials, args.seed)
    print(
        f"suite={report.suite} trials={report.trials} passes={report.passes}"
        f" failures={report.failures} worst_violation={_fmt(report.worst_violation)}"
    )
    for digest in report.failed_digests:
        print(f"  FAIL {digest}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=2)
            fh.write("\n")
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockproj",
        description="Block-iterative projection solver for common fixed point problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the iteration on a problem file")
    solve.add_argument("--problem", required=True)
    solve.add_argument("--config", required=True)
    solve.add_argument("--trace", required=True, help="output CSV path")
    solve.add_argument("--summary", required=True, help="output JSON path")
    solve.add_argument("--seed", type=int, default=None, help="override the config seed")
    solve.set_defaults(func=cmd_solve)

    gen = sub.add_parser("gen", help="generate a problem instance")
    gen.add_argument("kind", help="linear | discs | l1")
    gen.add_argument("--m", type=int, default=10, help="number of halfspaces / discs")
    gen.add_argument("--n", type=int, default=None,
                     help="ambient dimension (default: 10 linear, 2 discs, 8 l1)")
    gen.add_argument("--s", type=int, default=5, help="number of linear equations (l1)")
    gen.add_argument("--eps", type=float, default=2.0, help="l1 radius (l1)")
    gen.add_argument("--radius", type=float, default=5.0, help="witness ball radius (linear)")
    gen.add_argument("--overlap", type=float, default=0.5, help="disc center spread (discs)")
    gen.add_argument("--margin", type=float, default=1.0, help="sigma safety margin")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    verify = sub.add_parser("verify", help="run a randomized property suite")
    verify.add_argument("suite", help="fejer | cutter | budget | convergence | qhat")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", default=None, help="write a machine-readable report")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
