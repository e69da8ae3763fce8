"""The error contract: every error blockproj raises is a BlockprojError.

A static check keeps builtin exceptions out of the library's raise
statements, and a fuzz of the decoders and constructors checks that what
numpy or Python would raise on a malformed input is turned into one of the
library's classes.
"""

import ast
import builtins
import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockproj
from blockproj import core, oracles, problems
from blockproj import (
    AbsSum,
    AffineFunction,
    Ball,
    BallQuadratic,
    BlockClassicalCyclic,
    BlockGeneralized,
    BlockprojError,
    Box,
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
    Problem,
    QuadraticFunction,
    RandomDirectionPolicy,
    ResidualBelow,
    Resolvent,
    SequentialCyclic,
    SequentialRepetitive,
    SetIndicator,
    SimultaneousDrifting,
    SolverConfig,
    SquaredNorm,
    SubgradientProjection,
    budget,
    fejer_audit,
    gen_disc_intersection,
    gen_l1_constrained,
    gen_linear_feasibility,
    normalize_sigma,
    perturbation_rng,
    project_l1_ball,
    run,
    sigma_from_ball,
    sigma_from_l1,
    theta_budget,
    validate_config,
    zeta,
)
from blockproj.cli import assemble_config
from blockproj.problems import (
    _CUTTER_KINDS,
    _FUNCTION_FORMS,
    cutter_from_json,
    problem_from_json,
)

ERRORS = {
    "BlockprojError",
    "DimensionMismatch",
    "InvalidConfig",
    "InvalidCutter",
    "InvalidProblem",
    "InvalidSchedule",
    "LambdaOutOfRange",
    "NonfiniteIterate",
    "NonpositiveSigma",
    "ParseError",
}


def _raised_builtins(path):
    """(file, class) for each raise of a builtin exception class in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            value = getattr(builtins, getattr(exc, "id", ""), None)
            if isinstance(value, type) and issubclass(value, BaseException):
                found.append((path.name, exc.id))
    return found


def test_library_raises_no_builtin_exception():
    # the one exception: the JSON writer refuses a key with the TypeError
    # that json.dumps raises
    src = Path(blockproj.__file__).parent
    found = [hit for path in sorted(src.glob("*.py")) for hit in _raised_builtins(path)]
    assert found == [("problems.py", "TypeError")]


def test_exception_classes_are_the_documented_ten():
    defined = {name for name, value in vars(core).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == core.__name__}
    exported = {name for name, value in vars(blockproj).items()
                if isinstance(value, type) and issubclass(value, BaseException)}
    assert defined == exported == ERRORS
    assert all(issubclass(getattr(blockproj, name), BlockprojError) for name in ERRORS)
    assert issubclass(BlockprojError, ValueError)


# Python's float() and int() raise a bare ValueError or TypeError on these
@pytest.mark.parametrize("call, error, name", [
    (lambda: RandomDirectionPolicy(rho="x"), InvalidConfig, "rho"),
    (lambda: budget("x", 1.0, 1.0), InvalidConfig, "lambda"),
    (lambda: LambdaSchedule("a"), InvalidConfig, "lambda"),
    (lambda: Problem("x", [Halfspace([1.0], 0.0)], [0.0], 1.0), InvalidProblem, "dimension"),
    (lambda: SequentialCyclic("x"), InvalidSchedule, "m"),
    (lambda: validate_config(SolverConfig(tau1="a")), InvalidConfig, "tau1"),
    (lambda: run(Problem(1, [Halfspace([1.0], 0.0)], [1.0], 1.0),
                 SolverConfig(lambda_schedule=LambdaSchedule(lambda k: "a"))),
     InvalidConfig, "lambda"),
    (lambda: BlockClassicalCyclic(1, [["a"]]), InvalidSchedule, "partition block"),
    (lambda: SequentialRepetitive(1, ["a"]), InvalidSchedule, "control"),
    (lambda: SequentialRepetitive(1, lambda k: "a").weights_at(0), InvalidSchedule, "control"),
    (lambda: BlockGeneralized(1, [["a"]]).weights_at(0), InvalidSchedule, "selection"),
    (lambda: BlockGeneralized(2, lambda k: ["x"]).weights_at(0), InvalidSchedule, "selection"),
    (lambda: SimultaneousDrifting(2, lambda k: "a").weights_at(0), InvalidSchedule, "selector"),
    # a comparison with the threshold raised TypeError; a limit was unchecked
    (lambda: _stopped_by(ResidualBelow(None)), InvalidConfig, "ResidualBelow tol"),
    (lambda: _stopped_by(ResidualBelow(True)), InvalidConfig, "ResidualBelow tol"),
    (lambda: _stopped_by(MaxDistance("a")), InvalidConfig, "MaxDistance eps"),
    (lambda: _stopped_by(MaxFunctionValue(False)), InvalidConfig, "MaxFunctionValue eps"),
    (lambda: _capped_at(None), InvalidConfig, "max_iterations"),
    (lambda: _capped_at(-1), InvalidConfig, "max_iterations"),
    (lambda: _capped_at(2.5), InvalidConfig, "max_iterations"),
    (lambda: _capped_at(True), InvalidConfig, "max_iterations"),
    (lambda: validate_config(SolverConfig(max_iterations=2.5)), InvalidConfig, "max_iterations"),
    (lambda: validate_config(SolverConfig(max_iterations=1e5)), InvalidConfig, "max_iterations"),
    (lambda: SequentialCyclic(2).weights_at("a"), InvalidSchedule, "k"),
    (lambda: SequentialCyclic(2).divergence_profile("x"), InvalidSchedule, "horizon"),
    (lambda: BlockClassicalCyclic(1, [[0]], [["a"]]), InvalidSchedule, "intra"),
    (lambda: BlockClassicalCyclic(1, [[0]], intra="foo"), InvalidSchedule, "intra"),
    (lambda: gen_linear_feasibility(1, "a", 3, 2.0), InvalidProblem, "m"),
    (lambda: gen_linear_feasibility(1, 4, 3, "x"), InvalidProblem, "radius"),
    (lambda: gen_linear_feasibility(-1, 4, 3, 2.0), InvalidProblem, "seed"),
    (lambda: gen_linear_feasibility(1.5, 4, 3, 2.0), InvalidProblem, "seed"),
    (lambda: gen_l1_constrained(1, 2, "x", 1.0), InvalidProblem, "n"),
    (lambda: gen_l1_constrained(1, 2, 3, None), InvalidProblem, "epsilon"),
    (lambda: gen_disc_intersection(1, 2.5), InvalidProblem, "m"),
    (lambda: gen_disc_intersection(1, 3, overlap="x"), InvalidProblem, "overlap"),
    (lambda: run(Problem(1, [Halfspace([1.0], 0.0)], [1.0], 1.0),
                 SolverConfig(lambda_schedule=1.0)), InvalidConfig, "lambda_schedule"),
    # Python converts a boolean as 0 or 1
    (lambda: LambdaSchedule(True), InvalidConfig, "lambda"),
    (lambda: SequentialCyclic(True), InvalidSchedule, "m"),
    (lambda: SequentialCyclic(2).weights_at(True), InvalidSchedule, "k"),
    (lambda: SequentialCyclic(2).weights_at(np.True_), InvalidSchedule, "k"),
    (lambda: Problem(True, [Halfspace([1.0], 0.0)], [0.0], 1.0), InvalidProblem, "dimension"),
    (lambda: gen_linear_feasibility(True, 4, 3, 2.0), InvalidProblem, "seed"),
    (lambda: gen_disc_intersection(1, 3, n=True), InvalidProblem, "n"),
    (lambda: Halfspace([1.0, 0.0], True), InvalidCutter, "b"),
    (lambda: Ball([0.0, 0.0], True), InvalidCutter, "ball radius"),
    (lambda: L1Ball(np.True_), InvalidCutter, "l1 ball radius"),
    (lambda: Resolvent(AbsSum(), True), InvalidCutter, "gamma"),
    # Python's int() truncates a float, 2.0 included
    (lambda: SequentialCyclic(2.5), InvalidSchedule, "m"),
    (lambda: SequentialCyclic(2.0), InvalidSchedule, "m"),
    (lambda: BlockClassicalCyclic(3, [[0, 1.7], [2]]), InvalidSchedule, "partition block"),
    (lambda: BlockGeneralized(3, [[0, 2.9]]).weights_at(0), InvalidSchedule, "selection"),
    (lambda: SequentialRepetitive(2, [0, 1.0]), InvalidSchedule, "control"),
    (lambda: SequentialCyclic(2).weights_at(1.9), InvalidSchedule, "k"),
    (lambda: SequentialCyclic(2).weights_at(np.float64(1.0)), InvalidSchedule, "k"),
    (lambda: SequentialCyclic(2).divergence_profile(3.0), InvalidSchedule, "horizon"),
    (lambda: Problem(2.7, [Halfspace([1.0, 0.0], 0.0)], [0.0, 0.0], 1.0), InvalidProblem,
     "dimension"),
    # a range check written as x < 0 or x <= 0 lets NaN through
    (lambda: sigma_from_ball([0.0, 0.0], math.nan, [1.0, 1.0], 1.0), InvalidProblem, "radius"),
    (lambda: sigma_from_ball([0.0, 0.0], 1.0, [1.0, 1.0], math.nan), InvalidProblem, "margin"),
    (lambda: sigma_from_l1([0.0, 0.0], math.nan, 1.0), InvalidProblem, "epsilon"),
    (lambda: sigma_from_l1([0.0, 0.0], 1.0, math.nan), InvalidProblem, "margin"),
    (lambda: theta_budget(math.nan, 1.0, 1.0, 1.0), InvalidConfig, "theta"),
    (lambda: theta_budget(0.5, 1.0, 1.0, math.nan), InvalidConfig, "anchor distance"),
    # a table that is not iterable, and a boolean inside a table
    (lambda: BlockClassicalCyclic(3, 5), InvalidSchedule, "partition"),
    (lambda: BlockGeneralized(3, 5), InvalidSchedule, "selection"),
    (lambda: SequentialRepetitive(3, 5), InvalidSchedule, "control"),
    (lambda: SimultaneousDrifting(3, 5), InvalidSchedule, "selector"),
    (lambda: BlockClassicalCyclic(2, [[0, True]]), InvalidSchedule, "partition block"),
    (lambda: BlockGeneralized(2, [[0, True]]), InvalidSchedule, "selection"),
    (lambda: BlockGeneralized(2, lambda k: [0, True]).weights_at(0), InvalidSchedule, "selection"),
    (lambda: LambdaSchedule([True]), InvalidConfig, "lambda"),
    (lambda: BlockClassicalCyclic(1, [[0]], [[True]]), InvalidSchedule, "intra"),
    # generator arguments that numpy refused with its own errors, or with
    # a RuntimeWarning and then a NaN offset
    (lambda: gen_linear_feasibility(1, 4, 3, 1e308), InvalidProblem, "radius"),
    (lambda: gen_linear_feasibility(1, 4, 3, -5.0), InvalidProblem, "radius"),
    (lambda: gen_linear_feasibility(1, 4, 3, math.inf), InvalidProblem, "radius"),
    (lambda: gen_disc_intersection(1, 3, overlap=math.inf), InvalidProblem, "overlap"),
    (lambda: gen_disc_intersection(1, 3, overlap=1e200), InvalidProblem, "overlap"),
    (lambda: gen_disc_intersection(1, 3, n=-1), InvalidProblem, "n"),
    (lambda: gen_l1_constrained(1, 2, 3, math.inf), InvalidProblem, "epsilon"),
    # scales at which rounding put the witness past its check, so that the
    # generated problem was refused naming no argument; the least refused scales
    (lambda: gen_linear_feasibility(1, 20, 5, 1e150), InvalidProblem, "radius"),
    (lambda: gen_linear_feasibility(1, 4, 3, 1.0000000000001e13), InvalidProblem, "radius"),
    (lambda: gen_l1_constrained(1, 5, 8, 1e8), InvalidProblem, "epsilon"),
    (lambda: gen_l1_constrained(1, 2, 3, 1.0000000000001e5), InvalidProblem, "epsilon"),
    (lambda: project_l1_ball([1.0, 2.0], "x"), InvalidCutter, "l1 ball radius"),
    (lambda: project_l1_ball([1.0, 2.0], True), InvalidCutter, "l1 ball radius"),
    # Python converts numeric text, which no number argument takes
    pytest.param(lambda: Ball([0, 0], "1.5"), InvalidCutter, "ball radius", id="Ball text"),
    pytest.param(lambda: Ball(["1", "2"], 1.0), DimensionMismatch, "center",
                 id="Ball center text"),
    # a Fraction makes numpy pick the object dtype, whose float() parsed "1"
    pytest.param(lambda: core.as_vector([Fraction(1, 2), "1"]), DimensionMismatch, "vector",
                 id="as_vector object text"),
    pytest.param(lambda: normalize_sigma("2"), blockproj.NonpositiveSigma, "sigma",
                 id="normalize_sigma text"),
    pytest.param(lambda: budget("1", 1.0, 1.0), InvalidConfig, "lambda", id="budget text"),
    pytest.param(lambda: LambdaSchedule("1"), InvalidConfig, "lambda", id="LambdaSchedule text"),
    pytest.param(lambda: RandomDirectionPolicy("0.5"), InvalidConfig, "rho",
                 id="RandomDirectionPolicy text"),
    pytest.param(lambda: gen_linear_feasibility(0, 3, 2, "5"), InvalidProblem, "radius",
                 id="gen_linear_feasibility text"),
    pytest.param(lambda: sigma_from_ball([0.0], "1", [1.0], 1.0), InvalidProblem, "radius",
                 id="sigma_from_ball text"),
    # the stream's counter: numpy wrapped -1 to 2^64 - 1, truncated 3.7,
    # took True as 1 and refused 2^64 with its own OverflowError
    pytest.param(lambda: perturbation_rng(5, -1), InvalidConfig, "k", id="stream k -1"),
    pytest.param(lambda: perturbation_rng(5, 3.7), InvalidConfig, "k", id="stream k 3.7"),
    pytest.param(lambda: perturbation_rng(5, True), InvalidConfig, "k", id="stream k True"),
    pytest.param(lambda: perturbation_rng(5, 2 ** 64), InvalidConfig, "k", id="stream k 2^64"),
    # the stream's seed: 3.7 drew seed 3's stream, and True, "5" and 2.0 were
    # taken; numpy refused a qhat seed of 2.5 with its own TypeError, and
    # took True as 1
    pytest.param(lambda: perturbation_rng(3.7, 0), InvalidConfig, "seed", id="stream seed 3.7"),
    pytest.param(lambda: perturbation_rng(True, 0), InvalidConfig, "seed", id="stream seed True"),
    pytest.param(lambda: perturbation_rng("5", 0), InvalidConfig, "seed", id="stream seed text"),
    pytest.param(lambda: perturbation_rng(2.0, 0), InvalidConfig, "seed", id="stream seed 2.0"),
    pytest.param(lambda: oracles.run_qhat_suite(1, 2.5), InvalidProblem, "seed",
                 id="qhat suite seed 2.5"),
    pytest.param(lambda: oracles.qhat_instance(True), InvalidProblem, "seed",
                 id="qhat instance seed True"),
    # tuple() of an int raised TypeError, and the cutters of a string had no dim
    pytest.param(lambda: Problem(1, 5, [0.0], 1.0), InvalidProblem, "cutters", id="cutters int"),
    pytest.param(lambda: Problem(1, "ab", [0.0], 1.0), InvalidProblem, "cutters",
                 id="cutters text"),
    # a cutter without dim raised AttributeError, a weights_fn was first
    # called by weights_at, and stopping rules were unpacked with *
    pytest.param(lambda: Problem(1, [5], [0.0], 1.0), InvalidProblem, "cutter 0",
                 id="cutter int"),
    pytest.param(lambda: BlockGeneralized(3, [[0, 1]], weights_fn=5), InvalidSchedule,
                 "weights_fn", id="weights_fn int"),
    pytest.param(lambda: run(Problem(1, [Halfspace([1.0], 0.0)], [1.0], 1.0), stopping=5),
                 InvalidConfig, "stopping", id="stopping int"),
])
def test_an_argument_that_is_not_a_number_raises_a_library_error_naming_it(call, error, name):
    with pytest.raises(error, match=f"^{name} must be "):
        call()


@pytest.mark.parametrize("call, error, name", [
    (lambda v: normalize_sigma(v), blockproj.NonpositiveSigma, "sigma"),
    (lambda v: L1Ball(v), InvalidCutter, "l1 ball radius"),
    (lambda v: LambdaSchedule(v), InvalidConfig, "lambda"),
    (lambda v: gen_l1_constrained(1, 2, 3, v), InvalidProblem, "epsilon"),
])
def test_an_integer_beyond_the_float_range_is_named_without_its_digits(call, error, name):
    with pytest.raises(error, match=f"^{name} must be [a-z ]+, got one that overflows a float$"):
        call(10**400)


@pytest.mark.parametrize("call, error, message", [
    (lambda: validate_config(SolverConfig(max_iterations=2.5)), InvalidConfig,
     r"max_iterations must be an integer, got 2\.5"),
    (lambda: validate_config(SolverConfig(max_iterations=0)), InvalidConfig,
     "max_iterations must be >= 1, got 0"),
    (lambda: validate_config(SolverConfig(residual_tolerance=-1)), InvalidConfig,
     r"residual_tolerance must be >= 0, got -1\.0"),
    (lambda: _stopped_by(ResidualBelow(None)), InvalidConfig,
     "ResidualBelow tol must be a number, got None"),
    (lambda: _stopped_by(ResidualBelow(-1)), InvalidConfig,
     r"ResidualBelow tol must be >= 0, got -1\.0"),
    (lambda: _stopped_by(MaxDistance("a")), InvalidConfig,
     "MaxDistance eps must be a number, got 'a'"),
    (lambda: _stopped_by(MaxFunctionValue(-1)), InvalidConfig,
     r"MaxFunctionValue eps must be >= 0, got -1\.0"),
    (lambda: _capped_at(True), InvalidConfig, "max_iterations must be an integer, got True"),
    (lambda: _capped_at(-1), InvalidConfig, "max_iterations must be >= 1, got -1"),
    (lambda: sigma_from_ball([0.0], -1, [1.0], 1.0), InvalidProblem,
     r"radius must be >= 0, got -1\.0"),
    (lambda: budget(1.0, -1, 1.0), InvalidConfig, r"residual must be in \[0, inf\), got -1\.0"),
    # the budget formula gives inf, or NaN at an infinite sigma, for an infinite residual
    (lambda: budget(1.0, math.inf, 1.0), InvalidConfig,
     r"residual must be in \[0, inf\), got inf"),
    (lambda: budget(1.0, math.inf, math.inf), InvalidConfig,
     r"residual must be in \[0, inf\), got inf"),
    (lambda: theta_budget(0.5, 1.0, math.inf, 2.0), InvalidConfig,
     r"residual must be in \[0, inf\), got inf"),
    (lambda: zeta(1.0, math.inf, 1.0), InvalidConfig, r"residual must be in \[0, inf\), got inf"),
    (lambda: theta_budget(-1, 1.0, 1.0, 1.0), InvalidConfig, r"theta must be >= 0, got -1\.0"),
    (lambda: theta_budget(0.5, 1.0, 1.0, -1), InvalidConfig,
     r"anchor distance must be >= 0, got -1\.0"),
    (lambda: BallQuadratic([0.0], -1), InvalidCutter, r"radius must be >= 0, got -1\.0"),
])
def test_a_number_argument_message_names_its_one_requirement(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def _stopped_by(rule):
    return run(Problem(1, [Halfspace([1.0], 0.0)], [1.0], 1.0), stopping=[rule])


def _capped_at(limit):
    return run(Problem(1, [Halfspace([1.0], 0.0)], [1.0], 1.0),
               SolverConfig(max_iterations=limit))


@pytest.mark.parametrize("witness", [[0.0], [0.0, 0.0], [0.0] * 4])
def test_fejer_audit_refuses_a_witness_of_another_dimension(witness):
    # a 1-entry witness broadcast against the points and gave a number
    problem = Problem(3, [Halfspace([1.0, 0.0, 0.0], 0.0)], [1.0, 2.0, 3.0], 10.0)
    trace = run(problem).trace
    with pytest.raises(DimensionMismatch, match="^witness has dimension"):
        fejer_audit(trace, witness)


def test_fixed_point_sampler_refuses_a_singular_quadratic():
    # numpy's solve raises LinAlgError here
    cutter = SubgradientProjection(QuadraticFunction(np.zeros((2, 2)), [1.0, 0.0], -1.0))
    with pytest.raises(InvalidCutter, match="singular Q"):
        oracles.sample_fixed_point(cutter, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# fuzzing: JSON-like trees, and documents shaped like the file formats whose
# field values are such trees

_FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0])
_NUMBERS = st.integers(-3, 3) | st.floats(-4, 4) | st.integers() | _FLOATS
_SCALARS = _NUMBERS | st.none() | st.booleans() | st.text(max_size=4) | st.just("infinity")
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _mostly(typed):
    """``typed`` most of the time, any tree otherwise."""
    return st.integers(0, 3).flatmap(lambda i: _JSON if i == 3 else typed)


def _vectors(n):
    return st.lists(_NUMBERS, min_size=n, max_size=n)


def _matrices(n):
    return st.lists(_vectors(n), min_size=n, max_size=n)


@functools.lru_cache(maxsize=None)
def _operators(n, tag_key):
    """Documents with a known tag and every field of its kind, each field
    mostly drawn as the kind of value its codec reads, in dimension n."""
    table = _CUTTER_KINDS if tag_key == "type" else _FUNCTION_FORMS
    typed = {problems._VECTOR: _vectors(n), problems._NUMBER: _NUMBERS,
             problems._MATRIX: _matrices(n),
             problems._FUNCTION: st.deferred(lambda: _operators(n, "form")),
             problems._CUTTER: st.deferred(lambda: _operators(n, "type"))}
    return st.sampled_from(sorted(table)).flatmap(lambda tag: st.fixed_dictionaries(
        {tag_key: st.just(tag),
         **{key: _mostly(typed[codec]) for key, codec, *_ in table[tag][1]}}))


_DIMENSIONS = st.integers(1, 2)
_PROBLEMS = _mostly(_DIMENSIONS.flatmap(lambda n: st.fixed_dictionaries(
    {"dimension": _mostly(st.just(n)),
     "cutters": _mostly(st.lists(_mostly(_operators(n, "type")), min_size=1, max_size=2)),
     "x0": _mostly(_vectors(n)),
     "sigma": _mostly(st.floats(-1.0, 10.0) | st.just("infinity")),
     "witness": _mostly(_vectors(n))},
    optional={"cost": _mostly(_operators(n, "form"))},
)))
_CONFIGS = st.fixed_dictionaries({}, optional={
    "lambda": _NUMBERS | st.fixed_dictionaries({"list": _mostly(_vectors(2))}) | _JSON,
    "tau1": _NUMBERS, "tau2": _NUMBERS, "sigma_override": _SCALARS,
    "max_iterations": _NUMBERS,
    "seed": st.sampled_from([-1, 0, 2 ** 64 - 1, 2 ** 64]) | _SCALARS,
    "stopping": st.lists(st.fixed_dictionaries(
        {"rule": st.sampled_from(["residual_below", "max_distance", "max_function_value",
                                  "max_iterations"]) | _SCALARS},
        optional={"tol": _NUMBERS, "eps": _NUMBERS, "limit": _NUMBERS}), max_size=2) | _JSON,
    "schedule": st.fixed_dictionaries(
        {"regime": st.sampled_from(["sequential_cyclic", "sequential_almost_cyclic",
                                    "sequential_repetitive", "simultaneous_uniform",
                                    "simultaneous_drifting", "block_classical",
                                    "block_generalized"]) | _SCALARS},
        optional={key: _mostly(_vectors(2) | _matrices(2))
                  for key in ("period_bound", "order_seed", "control", "selector",
                              "partition", "blocks", "intra")}),
    "policy": st.fixed_dictionaries(
        {"policy": st.sampled_from(["zero", "random", "superiorized"]) | _SCALARS},
        optional={"rho": _NUMBERS, "cost": _mostly(_operators(2, "form"))}),
}) | _JSON
# each constructor with the kind of value each argument takes: a vector, a
# number, a matrix or an operator
_OPERANDS = st.sampled_from([AbsSum(), SquaredNorm(), Ball([0.0], 1.0), BallQuadratic([0.0], 1.0)])
_CONSTRUCTORS = [(Halfspace, "vn"), (Hyperplane, "vn"), (Ball, "vn"), (Box, "vv"), (L1Ball, "n"),
                 (AffineFunction, "vn"), (QuadraticFunction, "mvn"), (BallQuadratic, "vn"),
                 (SubgradientProjection, "o"), (Resolvent, "on"), (SetIndicator, "o")]
_FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _result_or_library_error(fn, *args):
    """fn(*args), or None when it raises a BlockprojError; any other
    exception fails the test."""
    try:
        return fn(*args)
    except BlockprojError:
        return None


@_FUZZ
@given(doc=_mostly(_DIMENSIONS.flatmap(lambda n: _operators(n, "type"))))
def test_cutter_decoder_raises_only_library_errors(doc):
    _result_or_library_error(cutter_from_json, doc)


@_FUZZ
@given(doc=_PROBLEMS)
def test_problem_decoder_raises_only_library_errors(doc):
    _result_or_library_error(problem_from_json, doc)


@_FUZZ
@given(doc=_CONFIGS)
def test_config_decoder_raises_only_library_errors(doc):
    problem = Problem(2, [Halfspace([1.0, 0.0], 1.0)] * 3, [2.0, 0.0], sigma=5.0)
    assembled = _result_or_library_error(assemble_config, doc, problem)
    if assembled is not None:
        _result_or_library_error(validate_config, assembled[0])


@_FUZZ
@given(data=st.data(), constructor=st.sampled_from(_CONSTRUCTORS))
def test_constructors_raise_only_library_errors(data, constructor):
    cls, kinds = constructor
    n = data.draw(_DIMENSIONS)
    arguments = {"v": _vectors(n), "n": _NUMBERS, "m": _matrices(n), "o": _OPERANDS}
    args = [data.draw(_mostly(arguments[kind])) for kind in kinds]
    _result_or_library_error(cls, *args)
