"""Command-line front end: generate instances, run solves, verify properties.

Exit codes: 0 on success (including a converged solve), 2 when a solve ran
out of iterations, 1 on any error.  Trace CSVs are byte-reproducible for
identical (problem, config, seed) inputs.
"""

import argparse
import dataclasses
import functools
import sys

from .core import (DimensionMismatch, InvalidConfig, LambdaSchedule, ParseError, RunStatus,
                   SolverConfig, _check_seed, _integer)
from .oracles import SUITES
from .perturbation import RandomDirectionPolicy, SuperiorizedPolicy, ZeroPolicy
from .problems import (
    _decode,
    _float,
    _floats,
    _given,
    _int,
    _known,
    _read_json,
    _sigma,
    _write_json,
    function_from_json,
    gen_disc_intersection,
    gen_l1_constrained,
    gen_linear_feasibility,
    load_problem,
    save_problem,
)
from .solver import MaxDistance, MaxFunctionValue, ResidualBelow, run
from .weights import (
    BlockClassicalCyclic,
    BlockGeneralized,
    SequentialAlmostCyclic,
    SequentialCyclic,
    SequentialRepetitive,
    SimultaneousDrifting,
    SimultaneousUniform,
)


# ---------------------------------------------------------------------------
# config-file decoding (operator indices are 1-based in files); numbers
# follow the problem-file rules

def _array(value, path):
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array")
    return value


def _nonempty(value, path):
    if not _array(value, path):
        raise ParseError(f"{path}: expected a nonempty array")
    return value


def _indices(m, raw, path):
    idx = [_int(i, f"{path}[{j}]") - 1 for j, i in enumerate(_nonempty(raw, path))]
    if any(not 0 <= i < m for i in idx):
        raise ParseError(f"{path}: index outside 1..{m}")
    return idx


def _blocks(m, raw, path):
    """A nonempty array of index lists, each as ``_indices`` reads it and
    none holding an index twice."""
    blocks = [_indices(m, block, f"{path}[{i}]") for i, block in enumerate(_nonempty(raw, path))]
    for i, block in enumerate(blocks):
        if len(set(block)) < len(block):
            j = next(j for j, index in enumerate(block) if index in block[:j])
            raise ParseError(f"{path}[{i}][{j}]: repeated index {block[j] + 1}")
    return blocks


def _intra(raw, path):
    """Intra-block weights: "uniform", or one array of numbers per block."""
    return raw if raw == "uniform" else [_floats(ws, path) for ws in _array(raw, path)]


def schedule_from_json(obj, m, path="config.schedule"):
    # a table of problems._decode (see _RULES), built per call: its index decoders take m
    indices, blocks = functools.partial(_indices, m), functools.partial(_blocks, m)
    regimes = {
        "sequential_cyclic": (SequentialCyclic, []),
        "sequential_almost_cyclic": (SequentialAlmostCyclic, [],
                                     {"period_bound": _int, "order_seed": _int}),
        "sequential_repetitive": (SequentialRepetitive, [("control", (None, indices))]),
        "simultaneous_uniform": (SimultaneousUniform, []),
        "simultaneous_drifting": (SimultaneousDrifting, [], {"selector": indices}),
        "block_classical": (BlockClassicalCyclic, [("partition", (None, blocks))],
                            {"intra": _intra}),
        "block_generalized": (BlockGeneralized, [("blocks", (None, blocks))]),
    }
    return _decode(obj, path, "regime", regimes, "unknown regime", m)


def policy_from_json(obj, problem, path="config.policy"):
    # a superiorized policy takes the problem's cost unless the config names one
    def superiorized(cost=problem.cost, **rho):
        if cost is None:
            raise ParseError(f"{path}.cost: required (the problem declares no cost)")
        if cost.dim not in (None, problem.dimension):
            raise DimensionMismatch(
                f"{path}.cost: dimension {cost.dim} does not match {problem.dimension}")
        return SuperiorizedPolicy(cost, **rho)

    policies = {
        "zero": (ZeroPolicy, []),
        "random": (RandomDirectionPolicy, [], {"rho": _float}),
        "superiorized": (superiorized, [], {"cost": function_from_json, "rho": _float}),
    }
    return _decode(obj, path, "policy", policies, "unknown policy")


# tables of the problem-file codec (problems._decode); a config is never encoded
_RULES = {
    "residual_below": (ResidualBelow, [("tol", (None, _float))]),
    "max_distance": (MaxDistance, [("eps", (None, _float))]),
    "max_function_value": (MaxFunctionValue, [("eps", (None, _float))]),
}


def stopping_from_json(rules, path="config.stopping"):
    return [_decode(obj, f"{path}[{i}]", "rule", _RULES, "unknown rule")
            for i, obj in enumerate(_array(rules, path))]


def assemble_config(doc, problem, seed_override=None):
    """Build (SolverConfig, schedule, policy, stopping) from a config
    document.  What it leaves out takes the library's default: a field of
    SolverConfig, or None for a part that ``run`` fills in."""
    _known(doc, "config", ("tau1", "tau2", "max_iterations", "lambda", "sigma_override", "seed",
                           "stopping", "schedule", "policy"))
    fields = _given(doc, "config", tau1=_float, tau2=_float, max_iterations=_int)
    if "lambda" in doc:
        lam = doc["lambda"]
        if isinstance(lam, dict):
            if "list" not in _known(lam, "config.lambda", ("list",)):
                raise ParseError("config.lambda: expected a number or {\"list\": [...]}")
            fields["lambda_schedule"] = LambdaSchedule(_floats(lam["list"], "config.lambda.list"))
        else:
            fields["lambda_schedule"] = LambdaSchedule(_float(lam, "config.lambda"))
    if "sigma_override" in doc:
        fields["sigma"] = _sigma(doc["sigma_override"], "config.sigma_override")
    if seed_override is not None:
        fields["seed"] = _check_seed(seed_override, "--seed")
    elif "seed" in doc:
        fields["seed"] = _check_seed(_int(doc["seed"], "config.seed"), "config.seed")
    stopping = stopping_from_json(doc["stopping"]) if "stopping" in doc else None
    schedule = schedule_from_json(doc["schedule"], problem.m) if "schedule" in doc else None
    policy = policy_from_json(doc["policy"], problem) if "policy" in doc else None
    return SolverConfig(**fields), schedule, policy, stopping


# ---------------------------------------------------------------------------
# outputs

def _fmt(value):
    return f"{value:.17g}"


# one trace row from (k, max_residual, perturbation_norm, lam,
# distance_from_start[, distance_to_witness]); the witness column stays
# empty without a witness
_TRACE_ROW = "{0},{1:.17g},{2:.17g},{3:.17g},{5:.17g},{4:.17g}\n"
_TRACE_ROW_NO_WITNESS = "{0},{1:.17g},{2:.17g},{3:.17g},,{4:.17g}\n"


def write_trace_csv(trace, path):
    """Write a run's trace one block of its columns at a time, building no
    record: each row holds what ``f"{v:.17g}"`` gives for its record's
    fields."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("k,max_residual,perturbation_norm,lambda,dist_to_witness,dist_from_start\n")
        for start, columns in trace._scalar_columns():
            row = _TRACE_ROW if len(columns) > 4 else _TRACE_ROW_NO_WITNESS
            fh.write("".join(map(row.format, range(start, start + len(columns[0])), *columns)))


def write_summary(result, config_echo, path):
    doc = {
        "status": result.status.value,
        "iterations_used": result.iterations_used,
        "final_max_residual": result.trace[-1].max_residual,
        "final_point": result.final_point.tolist(),
        "config_echo": config_echo,
    }
    _write_json(doc, path)


# ---------------------------------------------------------------------------
# commands

def cmd_solve(args):
    problem = load_problem(args.problem)
    doc = _read_json(args.config, "config file")
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
    return 2 if result.status is RunStatus.MAX_ITERATIONS else 0


def cmd_gen(args):
    # built per call, so a generator replaced on this module after import (as
    # by a tracer) is the one called; each kind takes only its own options
    kinds = {"linear": (gen_linear_feasibility, ("m", "n", "radius", "margin")),
             "discs": (gen_disc_intersection, ("m", "n", "overlap", "margin")),
             "l1": (gen_l1_constrained, ("s", "n", "epsilon", "margin"))}
    if args.kind not in kinds:
        raise ParseError(f"unknown generator kind {args.kind!r} (use linear, discs or l1)")
    generator, takes = kinds[args.kind]
    # the options the command line gives, in flag order; the generator supplies the rest
    given = [(flag, name) for flag, name, *_ in _GEN_OPTIONS if getattr(args, name) is not None]
    for flag, name in given:
        if name not in takes:
            raise ParseError(f"gen {args.kind} takes no {flag}")
    problem = generator(args.seed, **{name: getattr(args, name) for _, name in given})
    save_problem(problem, args.out)
    print(f"wrote {args.out}: {problem.m} cutters in R^{problem.dimension}")
    return 0


_DEFAULT_TRIALS = {"fejer": 10_000, "cutter": 10_000, "budget": 1_000,
                   "convergence": 2, "qhat": 3}


def cmd_verify(args):
    suite = args.suite
    if suite not in SUITES:
        raise ParseError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    trials = args.trials if args.trials is not None else _DEFAULT_TRIALS[suite]
    trials = _integer(trials, "--trials", InvalidConfig, 1)
    report = SUITES[suite](trials, _check_seed(args.seed, "--seed"))
    print(
        f"suite={report.suite} trials={report.trials} passes={report.passes}"
        f" failures={report.failures} worst_violation={_fmt(report.worst_violation)}"
    )
    for digest in report.failed_digests:
        print(f"  FAIL {digest}", file=sys.stderr)
    if args.json:
        _write_json(dataclasses.asdict(report), args.json)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# entry point

# the generator options of blockproj gen in flag order, as (flag, generator
# keyword, type, help); one left out takes the generator's default
_GEN_OPTIONS = (
    ("--m", "m", int, "number of halfspaces / discs"),
    ("--n", "n", int, "ambient dimension (default: 10 linear, 2 discs, 8 l1)"),
    ("--s", "s", int, "number of linear equations (l1)"),
    ("--eps", "epsilon", float, "l1 radius (l1)"),
    ("--radius", "radius", float, "witness ball radius (linear)"),
    ("--overlap", "overlap", float, "disc center spread (discs)"),
    ("--margin", "margin", float, "sigma safety margin"),
)


@functools.cache
def build_parser():
    """The one parser of the process, built on first use; callers must not change it."""
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

    gen = sub.add_parser("gen", help="generate a problem instance")
    gen.add_argument("kind", help="linear | discs | l1")
    for flag, name, kind, text in _GEN_OPTIONS:
        gen.add_argument(flag, dest=name, metavar=flag[2:].upper(), type=kind, help=text)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="run a randomized property suite")
    verify.add_argument("suite", help="fejer | cutter | budget | convergence | qhat")
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", default=None, help="write a machine-readable report")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up when main runs, not when the one parser was built, so a
    # command wrapped after that (as by a tracer) is the one called
    command = {"solve": cmd_solve, "gen": cmd_gen, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    # every BlockprojError is a ValueError
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
