import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockproj import (
    INFINITE_SIGMA,
    AbsSum,
    Ball,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    InvalidCutter,
    InvalidProblem,
    L1Ball,
    ParseError,
    Problem,
    Resolvent,
    SetIndicator,
    SubgradientProjection,
    BallQuadratic,
    Cutter,
    gen_disc_intersection,
    gen_l1_constrained,
    gen_linear_feasibility,
    load_problem,
    save_problem,
)
from blockproj.problems import (
    _json_text,
    _unit,
    cutter_from_json,
    cutter_to_json,
    problem_from_json,
    problem_to_json,
)


def test_minimal_problem_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "cutters": [{"type": "halfspace", "a": [1.0, 0.0], "b": 1.0}],
        "x0": [0.0, 0.0],
        "sigma": 5.0,
    }))
    problem = load_problem(path)
    assert problem.m == 1
    assert problem.cutters[0].residual(problem.x0) == 0.0


def test_round_trip_all_kinds(tmp_path):
    cutters = [
        Halfspace([1.0, 0.5], 1.0),
        Hyperplane([0.3, -2.0], 0.0),
        Ball([0.1, 0.2], 1.5),
        L1Ball(3.0),
        SubgradientProjection(BallQuadratic([0.0, 0.0], 2.0)),
        Resolvent(AbsSum(), 0.7),
        Resolvent(SetIndicator(Ball([0.0, 0.0], 1.0)), 1.3),
    ]
    problem = Problem(2, cutters, [0.125, -0.25], sigma=7.0, witness=[0.0, 0.0],
                      cost=AbsSum())
    path = tmp_path / "roundtrip.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.dimension == problem.dimension
    assert np.array_equal(loaded.x0, problem.x0)
    assert np.array_equal(loaded.witness, problem.witness)
    assert loaded.sigma == problem.sigma
    assert problem_to_json(loaded) == problem_to_json(problem)
    # second round trip is byte-identical
    path2 = tmp_path / "roundtrip2.json"
    save_problem(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_exact_float_round_trip(tmp_path):
    ugly = float.fromhex("0x1.921fb54442d18p+1")
    problem = Problem(1, [Halfspace([ugly], ugly)], [0.0], sigma=ugly)
    path = tmp_path / "exact.json"
    save_problem(problem, path)
    loaded = load_problem(path)
    assert loaded.cutters[0].b == ugly
    assert loaded.sigma == ugly


def test_infinite_sigma_round_trip(tmp_path):
    problem = Problem(1, [Halfspace([1.0], 1.0)], [0.0], sigma=INFINITE_SIGMA)
    path = tmp_path / "inf.json"
    save_problem(problem, path)
    assert json.loads(path.read_text())["sigma"] == "infinity"
    assert load_problem(path).sigma == INFINITE_SIGMA


def test_infeasible_witness_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "cutters": [{"type": "halfspace", "a": [1.0, 0.0], "b": 0.0}],
        "x0": [0.0, 0.0],
        "sigma": 5.0,
        "witness": [0.5, 0.0],
    }))
    with pytest.raises(InvalidProblem, match="witness violates cutter 0"):
        load_problem(path)


def test_unknown_cutter_kind(tmp_path):
    # unknown and non-string tags, on a cutter and on a nested function
    cases = [
        ({"type": "moebius", "a": [1.0]}, "cutters[0].type"),
        ({"type": [], "a": [1.0]}, "cutters[0].type"),
        ({"type": "resolvent", "g": {"form": "moebius"}, "gamma": 1.0}, "cutters[0].g.form"),
        ({"type": "resolvent", "g": {"form": {}}, "gamma": 1.0}, "cutters[0].g.form"),
        ({"type": "subgradient_projection", "f": {"form": 3}}, "cutters[0].f.form"),
    ]
    path = tmp_path / "unknown.json"
    for cutter, where in cases:
        path.write_text(json.dumps({
            "dimension": 1,
            "cutters": [cutter],
            "x0": [0.0],
            "sigma": 1.0,
        }))
        with pytest.raises(ParseError, match=rf"{re.escape(where)}: unknown (cutter kind|function form)"):
            load_problem(path)


def test_field_path_diagnostics(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "cutters": [{"type": "halfspace", "a": [1.0, 0.0]}],
        "x0": [0.0, 0.0],
        "sigma": 1.0,
    }))
    with pytest.raises(ParseError) as info:
        load_problem(path)
    assert "cutters[0].b" in str(info.value)


@pytest.mark.parametrize("overrides, where", [
    ({"cutters": [{"type": "halfspace", "a": [1.0, 0.0], "b": float("nan")}]},
     "problem.cutters[0].b"),
    ({"cutters": [{"type": "resolvent", "g": {"form": "abs_sum"}, "gamma": float("nan")}]},
     "problem.cutters[0].gamma"),
    ({"cutters": [{"type": "subgradient_projection",
                   "f": {"form": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]],
                         "c": [0.0, 0.0], "d": float("nan")}}]},
     "problem.cutters[0].f.d"),
    ({"sigma": float("nan")}, "problem.sigma"),
    ({"cutters": [{"type": "halfspace", "a": [float("nan"), 1.0], "b": 1.0}]},
     "problem.cutters[0].a"),
    ({"witness": [0.0, float("nan")]}, "problem.witness"),
])
def test_nan_number_names_its_field(overrides, where):
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0, 0.0], "sigma": 1.0, **overrides}
    message = rf"^{re.escape(where)}: expected (a number|numbers), got NaN"
    with pytest.raises(ParseError, match=message):
        problem_from_json(doc)


_INF = float("inf")


@pytest.mark.parametrize("overrides, where", [
    ({"cutters": [{"type": "halfspace", "a": [1.0, 0.0], "b": _INF}]}, "problem.cutters[0].b"),
    ({"cutters": [{"type": "hyperplane", "a": [1.0, 0.0], "b": -_INF}]}, "problem.cutters[0].b"),
    ({"cutters": [{"type": "ball", "center": [0.0, 0.0], "radius": _INF}]},
     "problem.cutters[0].radius"),
    ({"cutters": [{"type": "l1_ball", "radius": _INF}]}, "problem.cutters[0].radius"),
    ({"cutters": [{"type": "subgradient_projection",
                   "f": {"form": "norm_squared_minus", "center": [0.0, 0.0], "radius": _INF}}]},
     "problem.cutters[0].f.radius"),
    ({"cutters": [{"type": "subgradient_projection",
                   "f": {"form": "affine", "a": [1.0, 0.0], "b": _INF}}]},
     "problem.cutters[0].f.b"),
    ({"cutters": [{"type": "subgradient_projection",
                   "f": {"form": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]],
                         "c": [0.0, 0.0], "d": -_INF}}]},
     "problem.cutters[0].f.d"),
    ({"cutters": [{"type": "resolvent", "g": {"form": "abs_sum"}, "gamma": _INF}]},
     "problem.cutters[0].gamma"),
    ({"cutters": [{"type": "halfspace", "a": [_INF, 1.0], "b": 1.0}]},
     "problem.cutters[0].a"),
])
def test_infinite_number_names_its_field(overrides, where):
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0, 0.0], "sigma": 1.0, **overrides}
    message = rf"^{re.escape(where)}: expected (a finite number|finite numbers), got -?inf$"
    with pytest.raises(ParseError, match=message):
        problem_from_json(doc)


def test_numeric_infinite_sigma_is_infinite_sigma():
    doc = {"dimension": 1, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0], "sigma": _INF}
    assert problem_from_json(doc).sigma == INFINITE_SIGMA


def test_numeric_infinite_sigma_saves_as_infinity(tmp_path):
    source = tmp_path / "numeric.json"
    source.write_text(json.dumps({"dimension": 1, "cutters": [{"type": "l1_ball", "radius": 1.0}],
                                  "x0": [0.0], "sigma": _INF}))
    resaved, built = tmp_path / "resaved.json", tmp_path / "built.json"
    save_problem(load_problem(source), resaved)
    save_problem(Problem(1, [L1Ball(1.0)], [0.0], sigma=INFINITE_SIGMA), built)
    assert json.loads(resaved.read_text())["sigma"] == "infinity"
    assert resaved.read_bytes() == built.read_bytes()


def test_dimension_mismatch_diagnostics(tmp_path):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({
        "dimension": 3,
        "cutters": [{"type": "halfspace", "a": [1.0, 0.0], "b": 1.0}],
        "x0": [0.0, 0.0, 0.0],
        "sigma": 1.0,
    }))
    with pytest.raises(DimensionMismatch):
        load_problem(path)


@pytest.mark.parametrize("field", ["x0", "witness"])
def test_point_of_another_dimension_names_its_field(field):
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0, 0.0], "sigma": 1.0, field: [0.0, 0.0, 0.0]}
    with pytest.raises(DimensionMismatch,
                       match=rf"^problem\.{field}: dimension 3 does not match 2$"):
        problem_from_json(doc)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(ParseError):
        load_problem(tmp_path / "never-written.json")
    bad = tmp_path / "syntax.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_problem(bad)


@pytest.mark.parametrize("overrides, where", [
    ({"x0": ["3", " 4 "]}, "problem.x0"),
    ({"x0": [0.0, True]}, "problem.x0"),
    ({"witness": ["0", 0.0]}, "problem.witness"),
    ({"cutters": [{"type": "halfspace", "a": ["1.5", True], "b": 1.0}]}, "problem.cutters[0].a"),
    ({"cutters": [{"type": "ball", "center": [False, 0.0], "radius": 1.0}]},
     "problem.cutters[0].center"),
    ({"cutters": [{"type": "box", "lo": ["-1", -1.0], "hi": [1.0, 1.0]}]}, "problem.cutters[0].lo"),
    ({"cutters": [{"type": "subgradient_projection",
                   "f": {"form": "quadratic", "Q": [[1.0, 0.0], [0.0, "1"]],
                         "c": [0.0, 0.0], "d": -1.0}}]},
     "problem.cutters[0].f.Q[1]"),
])
def test_strings_and_booleans_in_arrays_name_their_field(overrides, where):
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0, 0.0], "sigma": 1.0, **overrides}
    with pytest.raises(ParseError, match=rf"^{re.escape(where)}: expected numbers$"):
        problem_from_json(doc)


# a key that is present is decoded: null is refused, not taken as absent
@pytest.mark.parametrize("key, message", [
    ("witness", "problem.witness: expected a nonempty array of numbers"),
    ("cost", "problem.cost: expected an object"),
])
def test_a_null_optional_field_is_refused_naming_it(key, message):
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0, 0.0], "sigma": 1.0, key: None}
    with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
        problem_from_json(doc)


@pytest.mark.parametrize("overrides, message", [
    ({"witnes": [0.0, 0.0]}, "problem.witnes: unknown field"),
    ({"cutters": [{"type": "l1_ball", "radius": 1.0, "center": [0.0, 0.0]}]},
     "problem.cutters[0].center: unknown field"),
    ({"cutters": [{"type": "resolvent", "g": {"form": "squared_norm", "c": 1.0}, "gamma": 1.0}]},
     "problem.cutters[0].g.c: unknown field"),
    ({"cost": {"form": "abs_sum", "weights": [1.0, 1.0]}}, "problem.cost.weights: unknown field"),
    # the first such key in document order
    ({"sigma": 1.0, "b": 0, "a": 0}, "problem.b: unknown field"),
])
def test_an_unknown_key_is_refused_naming_it(overrides, message):
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0, 0.0], "sigma": 1.0, **overrides}
    with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
        problem_from_json(doc)


@pytest.mark.parametrize("Q", [[[1.0], [1.0, 2.0]], [[1.0, 0.0], 1.0], [1.0, 2.0], ["ab"]])
def test_ragged_matrix_names_its_field(Q):
    # numpy would refuse the ragged rows with its own ValueError, unnamed
    doc = {"dimension": 2, "x0": [0.0, 0.0], "sigma": 1.0,
           "cutters": [{"type": "subgradient_projection",
                        "f": {"form": "quadratic", "Q": Q, "c": [0.0, 0.0], "d": -1.0}}]}
    with pytest.raises(ParseError, match=r"^problem\.cutters\[0\]\.f\.Q: expected a matrix$"):
        problem_from_json(doc)


def test_integers_in_arrays_are_numbers():
    doc = {"dimension": 2, "cutters": [{"type": "halfspace", "a": [1, 0], "b": 1}],
           "x0": [3, 4.0], "sigma": 10}
    problem = problem_from_json(doc)
    assert problem.x0.tolist() == [3.0, 4.0]
    assert problem.cutters[0].a.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("overrides, where", [
    ({"cutters": [{"type": "halfspace", "a": [1.0, 0.0], "b": 10 ** 400}]},
     "problem.cutters[0].b"),
    ({"sigma": 10 ** 400}, "problem.sigma"),
])
def test_integer_beyond_the_float_range_names_its_field(overrides, where):
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}],
           "x0": [0.0, 0.0], "sigma": 1.0, **overrides}
    with pytest.raises(ParseError, match=rf"^{re.escape(where)}: expected a number$"):
        problem_from_json(doc)


class _Unlisted(Cutter):
    """A cutter kind the file format does not know."""

    kind = "unlisted"

    def apply(self, x):
        return x


def test_failed_save_leaves_the_target_as_it_was(tmp_path):
    path = tmp_path / "p.json"
    save_problem(Problem(2, [Halfspace([1.0, 0.0], 1.0)], [0.0, 0.0], sigma=5.0), path)
    before = path.read_bytes()
    with pytest.raises(InvalidCutter, match="cannot encode cutter"):
        save_problem(Problem(2, [_Unlisted()], [0.0, 0.0], sigma=5.0), path)
    assert path.read_bytes() == before


def test_cutter_codec_field_names():
    doc = cutter_to_json(Halfspace([1.0, 0.0], 1.0))
    assert doc == {"type": "halfspace", "a": [1.0, 0.0], "b": 1.0}
    assert cutter_from_json(doc).b == 1.0


# ---------------------------------------------------------------------------
# generators

def test_gen_linear_feasibility_properties():
    problem = gen_linear_feasibility(7, 20, 10, 5)
    assert problem.m == 20 and problem.dimension == 10
    for c in problem.cutters:
        assert c.residual(problem.witness) == 0.0
    # sigma is a strict upper bound certificate for d(x0, Q)
    assert np.linalg.norm(problem.x0 - problem.witness) < problem.sigma
    # x0 starts infeasible
    assert max(c.residual(problem.x0) for c in problem.cutters) > 0


def test_gen_linear_feasibility_deterministic():
    a = gen_linear_feasibility(13, 6, 4, 3)
    b = gen_linear_feasibility(13, 6, 4, 3)
    assert problem_to_json(a) == problem_to_json(b)
    c = gen_linear_feasibility(14, 6, 4, 3)
    assert problem_to_json(a) != problem_to_json(c)


def test_generators_take_numpy_integers_as_ints():
    i = np.int64
    for gen, args in ((gen_linear_feasibility, (13, 6, 4, 3)),
                      (gen_disc_intersection, (13, 4, 3, 0.5)),
                      (gen_l1_constrained, (13, 3, 6, 2))):
        assert (problem_to_json(gen(*args))
                == problem_to_json(gen(*(i(a) if isinstance(a, int) else a for a in args))))


def test_gen_disc_intersection_properties():
    problem = gen_disc_intersection(1, 3, overlap=0.5)
    assert problem.m == 3 and problem.dimension == 2
    for c in problem.cutters:
        assert isinstance(c, Ball)
        assert np.linalg.norm(problem.witness - c.center) < c.radius
    assert np.linalg.norm(problem.x0 - problem.witness) < problem.sigma


def test_gen_disc_intersection_degenerate_overlap():
    problem = gen_disc_intersection(2, 4, overlap=1e-9)
    for c in problem.cutters:
        assert c.residual(problem.witness) == 0.0


def test_gen_l1_constrained_properties():
    problem = gen_l1_constrained(3, 5, 8, 2.0, margin=1.0)
    assert problem.m == 6
    hyperplanes = [c for c in problem.cutters if isinstance(c, Hyperplane)]
    balls = [c for c in problem.cutters if isinstance(c, L1Ball)]
    assert len(hyperplanes) == 5 and len(balls) == 1
    assert np.sum(np.abs(problem.witness)) <= 2.0
    for h in hyperplanes:
        assert abs(np.dot(h.a, problem.witness) - h.b) <= 1e-10
    # sigma recomputed independently: ||x0|| + eps + margin
    assert problem.sigma == pytest.approx(
        float(np.linalg.norm(problem.x0)) + 2.0 + 1.0
    )
    assert isinstance(problem.cost, AbsSum)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["linear", "discs", "l1"]), seed=st.integers(0, 2**32 - 1),
       m=st.integers(2, 12), n=st.integers(1, 6))
def test_generator_outputs_survive_save_load(tmp_path_factory, kind, seed, m, n):
    if kind == "linear":
        problem = gen_linear_feasibility(seed, m, n, 3.0)
    elif kind == "discs":
        problem = gen_disc_intersection(seed, m, n)
    else:
        problem = gen_l1_constrained(seed, m, n, 1.5)
    path = tmp_path_factory.mktemp("gen") / "p.json"
    save_problem(problem, path)
    first = path.read_bytes()
    assert first.decode() == json.dumps(problem_to_json(problem), indent=2) + "\n"
    save_problem(load_problem(path), path)
    assert path.read_bytes() == first


@pytest.mark.parametrize("m, n", [(200, 2), (20, 8), (200, 50)])
def test_generators_accept_their_largest_scale(m, n):
    # a witness is only as exact as rounding at its scale lets it be; the
    # bounds leave a factor 10 before the first refused witness
    for seed in range(5):
        gen_linear_feasibility(seed, m, n, 1e13)
        gen_l1_constrained(seed, m, n, 1e5)
    with pytest.raises(InvalidProblem, match=r"^radius must be in \[0, 1e13\], got 1e\+16$"):
        gen_linear_feasibility(0, m, n, 1e16)
    with pytest.raises(InvalidProblem, match=r"^epsilon must be in \(0, 1e5\], got 1000000.0$"):
        gen_l1_constrained(0, m, n, 1e6)


@pytest.mark.parametrize("generator, spelled", [
    (gen_linear_feasibility, (10, 10, 5.0)),
    (gen_disc_intersection, (10,)),
    (gen_l1_constrained, (5, 8, 2.0)),
])
def test_a_generator_takes_its_defaults_from_its_signature(generator, spelled):
    for seed in range(3):
        text = _json_text(problem_to_json(generator(seed)))
        assert text == _json_text(problem_to_json(generator(seed, *spelled)))


def test_generator_parameter_validation():
    with pytest.raises(ValueError):
        gen_linear_feasibility(0, 0, 5, 1.0)
    with pytest.raises(ValueError):
        gen_disc_intersection(0, 1)
    with pytest.raises(ValueError):
        gen_disc_intersection(0, 3, overlap=0.0)
    with pytest.raises(ValueError):
        gen_l1_constrained(0, 5, 8, -1.0)


# ---------------------------------------------------------------------------
# the JSON writer

_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e308, float("nan"), float("inf")]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, st.text())
_KEYS = st.one_of(st.text(), st.none(), st.booleans(), st.integers(), _FLOATS)
_DOCUMENTS = st.recursive(
    _SCALARS | st.lists(_FLOATS) | st.lists(st.floats(allow_nan=False, allow_infinity=False)),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_KEYS, inner)),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=_DOCUMENTS)
def test_writer_text_is_json_dumps_at_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_writer_refuses_what_json_refuses():
    for doc in ({(1, 2): 0.0}, {"x": np.zeros(2)}, [{1.5}]):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            _json_text(doc)


def test_cost_of_another_dimension_names_its_field():
    doc = {"dimension": 2, "cutters": [{"type": "l1_ball", "radius": 1.0}], "x0": [0.0, 0.0],
           "sigma": 1.0, "cost": {"form": "affine", "a": [1, 2, 3], "b": 0}}
    with pytest.raises(DimensionMismatch, match=r"^problem\.cost: dimension 3 does not match 2$"):
        problem_from_json(doc)
    doc["cost"] = {"form": "abs_sum"}
    assert isinstance(problem_from_json(doc).cost, AbsSum)


@pytest.mark.parametrize("m, n", [(2, 1), (20, 8), (20, 50)])
def test_disc_generator_accepts_overlaps_to_1e150(m, n):
    # from about 1.34e154 on, the norm of a disc's offset overflows
    for seed in range(5):
        gen_disc_intersection(seed, m, n, overlap=1e150)
    with pytest.raises(InvalidProblem, match=r"^overlap must be in \(0, 1e150\], got 1e\+200$"):
        gen_disc_intersection(0, m, n, overlap=1e200)


def test_unit_redraws_a_zero_vector():
    class ZeroFirst:
        draws = [np.zeros(3), np.array([3.0, 0.0, 4.0])]

        def standard_normal(self, n):
            return self.draws.pop(0)

    assert _unit(ZeroFirst(), 3).tolist() == [0.6, 0.0, 0.8]
