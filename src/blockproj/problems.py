"""Problem files (JSON) and reproducible instance generators.

The file format is plain JSON: ``dimension``, ``cutters`` (array of operator
encodings), ``x0``, ``sigma`` (positive number or the string "infinity"),
optional ``witness`` and ``cost``.  Numbers round-trip exactly: floats are
emitted via Python's shortest-repr encoder, which preserves all 64 bits.
Files are written as ``json.dumps(doc, indent=2)`` writes them, plus a
final newline.
"""

import json
import math

import numpy as np

from .core import (
    INFINITE_SIGMA,
    DimensionMismatch,
    InvalidCutter,
    InvalidProblem,
    ParseError,
    _converted,
    _integer,
    _norm,
)
from .cutters import (
    AbsSum,
    AffineFunction,
    Ball,
    BallQuadratic,
    Box,
    Halfspace,
    Hyperplane,
    L1Ball,
    QuadraticFunction,
    Resolvent,
    SetIndicator,
    SquaredNorm,
    SubgradientProjection,
)
from .solver import Problem, sigma_from_ball, sigma_from_l1


# ---------------------------------------------------------------------------
# JSON helpers

def _get(obj, key, path):
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    if key not in obj:
        raise ParseError(f"{path}.{key}: missing required field")
    return obj[key]

def _known(obj, path, keys):
    """``obj``, an object that holds only ``keys``; else a ParseError at its first other key."""
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise ParseError(f"{path}.{key}: unknown field")
    return obj

def _given(obj, path, **decoders):
    """The keys of ``obj`` that ``decoders`` names, decoded, ``null`` included;
    the constructor supplies the rest."""
    return {key: decode(obj[key], f"{path}.{key}") for key, decode in decoders.items() if key in obj}

def _convert(value, path, convert=float, expected="a number"):
    """convert(value), or a ParseError naming the field when it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{path}: expected {expected}")

def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)

def _numbers(values, path):
    """``values`` as floats, refusing strings, booleans and other non-numbers
    as ``_float`` does for a scalar.  One pass over the types decides the
    common case: a list of floats, as JSON gives it, is returned as it is."""
    types = set(map(type, values))
    if types == {float}:
        return values
    if not types <= {float, int} and not all(map(_is_number, values)):
        raise ParseError(f"{path}: expected numbers")
    return _convert(values, path, lambda vs: list(map(float, vs)), "numbers")

def _floats(value, path):
    if not isinstance(value, list) or not value:
        raise ParseError(f"{path}: expected a nonempty array of numbers")
    floats = _numbers(value, path)
    # one pass decides the common case; the scan below only names the fault
    if not all(map(math.isfinite, floats)):
        if any(math.isnan(v) for v in floats):
            raise ParseError(f"{path}: expected numbers, got NaN")
        raise ParseError(f"{path}: expected finite numbers, got inf")
    return floats

def _float(value, path):
    """A number field.  Python's JSON reader accepts NaN, which a range check
    written as a comparison lets pass; refusing it here names the field."""
    if not _is_number(value):
        raise ParseError(f"{path}: expected a number")
    number = _convert(value, path)
    if math.isnan(number):
        raise ParseError(f"{path}: expected a number, got NaN")
    return number

def _int(value, path):
    """An integer field: booleans, strings and floats, 12.0 included, are
    refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer")
    return value

def _sigma(value, path):
    """A sigma field: a number, or the string "infinity" for INFINITE_SIGMA."""
    return INFINITE_SIGMA if value == "infinity" else _float(value, path)

def _finite(value, path):
    """A cutter or function scalar.  Python's JSON reader accepts Infinity,
    which the constructors refuse; refusing it here names the field."""
    number = _float(value, path)
    if math.isinf(number):
        raise ParseError(f"{path}: expected a finite number, got {number}")
    return number

def _matrix(value, path):
    """Rows of numbers, all of one length; the constructor judges the shape."""
    if not isinstance(value, list) or not all(
            isinstance(row, list) and len(row) == len(value[0]) for row in value):
        raise ParseError(f"{path}: expected a matrix")
    for i, row in enumerate(value):
        _numbers(row, f"{path}[{i}]")
    return value


# ---------------------------------------------------------------------------
# cutter and function codecs
#
# One table per tag: a cutter's ``kind`` (written as "type") or a function's
# ``form`` maps to its class and its JSON fields in constructor order.  A
# field is (key, codec) or, when the attribute is named differently,
# (key, codec, attribute); a codec is an (encode, decode) pair per value type.
# A decoded entry may add a third slot: its optional keys and their decoders.

def _tagged(table, tag):
    # non-string tags (say "type": []) are unknown, not unhashable
    return table.get(tag) if isinstance(tag, str) else None


def _encode(obj, tag_key, tag, table, noun):
    spec = _tagged(table, tag)
    if spec is None or not isinstance(obj, spec[0]):
        raise InvalidCutter(f"cannot encode {noun} {obj!r}")
    doc = {tag_key: tag}
    for key, (encode, _), *attr in spec[1]:
        doc[key] = encode(getattr(obj, attr[0] if attr else key))
    return doc


def _decode(obj, path, tag_key, table, unknown, *args):
    """The tag's class called with ``args``, its fields and the optional keys
    ``obj`` holds; once these decode, any other key is refused."""
    tag = _get(obj, tag_key, path)
    spec = _tagged(table, tag)
    if spec is None:
        raise ParseError(f"{path}.{tag_key}: {unknown} {tag!r}")
    cls, fields, optional = spec if len(spec) > 2 else (*spec, {})
    values = [decode(_get(obj, key, path), f"{path}.{key}") for key, (_, decode), *_ in fields]
    given = _given(obj, path, **optional) if optional else {}
    # every field is present, so the count alone shows another key; the scan names it
    if len(obj) > 1 + len(values) + len(given):
        _known(obj, path, (tag_key, *optional, *(key for key, *_ in fields)))
    return cls(*args, *values, **given)


def function_to_json(fn):
    return _encode(fn, "form", getattr(fn, "form", None), _FUNCTION_FORMS, "function")


def function_from_json(obj, path="cost"):
    return _decode(obj, path, "form", _FUNCTION_FORMS, "unknown function form")


def cutter_to_json(cutter):
    return _encode(cutter, "type", getattr(cutter, "kind", None), _CUTTER_KINDS, "cutter")


def cutter_from_json(obj, path="cutter"):
    return _decode(obj, path, "type", _CUTTER_KINDS, "unknown cutter kind")


_VECTOR = (np.ndarray.tolist, _floats)
_NUMBER = (float, _finite)
_MATRIX = (np.ndarray.tolist, _matrix)
_FUNCTION = (function_to_json, function_from_json)
_CUTTER = (cutter_to_json, cutter_from_json)

_FUNCTION_FORMS = {
    "affine": (AffineFunction, [("a", _VECTOR), ("b", _NUMBER)]),
    "quadratic": (QuadraticFunction, [("Q", _MATRIX), ("c", _VECTOR), ("d", _NUMBER)]),
    "norm_squared_minus": (BallQuadratic, [("center", _VECTOR), ("radius", _NUMBER)]),
    "abs_sum": (AbsSum, []),
    "squared_norm": (SquaredNorm, []),
    "indicator": (SetIndicator, [("set", _CUTTER, "set_cutter")]),
}

_CUTTER_KINDS = {
    "halfspace": (Halfspace, [("a", _VECTOR), ("b", _NUMBER)]),
    "hyperplane": (Hyperplane, [("a", _VECTOR), ("b", _NUMBER)]),
    "ball": (Ball, [("center", _VECTOR), ("radius", _NUMBER)]),
    "box": (Box, [("lo", _VECTOR), ("hi", _VECTOR)]),
    "l1_ball": (L1Ball, [("radius", _NUMBER)]),
    "subgradient_projection": (SubgradientProjection, [("f", _FUNCTION)]),
    "resolvent": (Resolvent, [("g", _FUNCTION), ("gamma", _NUMBER)]),
}


# ---------------------------------------------------------------------------
# problem codecs

def problem_to_json(problem):
    doc = {
        "dimension": problem.dimension,
        "cutters": [cutter_to_json(c) for c in problem.cutters],
        "x0": problem.x0.tolist(),
        "sigma": problem.sigma if math.isfinite(problem.sigma) else "infinity",
    }
    if problem.witness is not None:
        doc["witness"] = problem.witness.tolist()
    if problem.cost is not None:
        doc["cost"] = function_to_json(problem.cost)
    return doc


def problem_from_json(obj, path="problem"):
    _known(obj, path, ("dimension", "cutters", "x0", "sigma", "witness", "cost"))
    dimension = _int(_get(obj, "dimension", path), f"{path}.dimension")
    if dimension < 1:
        raise ParseError(f"{path}.dimension: expected a positive integer")
    raw_cutters = _get(obj, "cutters", path)
    if not isinstance(raw_cutters, list) or not raw_cutters:
        raise ParseError(f"{path}.cutters: expected a nonempty array")
    cutters = [cutter_from_json(c, f"{path}.cutters[{i}]") for i, c in enumerate(raw_cutters)]
    x0 = _floats(_get(obj, "x0", path), f"{path}.x0")
    sigma = _sigma(_get(obj, "sigma", path), f"{path}.sigma")
    given = _given(obj, path, witness=_floats, cost=function_from_json)
    for i, c in enumerate(cutters):
        if c.dim is not None and c.dim != dimension:
            raise DimensionMismatch(
                f"{path}.cutters[{i}]: dimension {c.dim} does not match {path}.dimension {dimension}"
            )
    # None where there is no witness or the cost works in any dimension
    witness, cost = given.get("witness"), given.get("cost")
    sizes = {"x0": len(x0), "witness": witness and len(witness), "cost": cost and cost.dim}
    for key, size in sizes.items():
        if size not in (None, dimension):
            raise DimensionMismatch(f"{path}.{key}: dimension {size} does not match {dimension}")
    return Problem(dimension, cutters, x0, sigma, **given)


def _read_json(path, what):
    """The JSON document in the file at ``path``, or a ParseError naming it as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc


def load_problem(path):
    """Read and fully validate a problem file; diagnostics carry field paths."""
    return problem_from_json(_read_json(path, "problem file"))


def save_problem(problem, path):
    _write_json(problem_to_json(problem), path)


# ---------------------------------------------------------------------------
# JSON writer
#
# CPython encodes with C code only when ``indent`` is None, so
# ``json.dump(doc, fh, indent=2)`` passes every float of a problem file
# through its pure-Python generator.  The writer below gives the same text:
# containers follow the dispatch of ``json.encoder`` at two-space indent, a
# flat list of ints or of finite floats is one join of their reprs, and every
# key and every other value is left to ``json.dumps``.

def _key(key):
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        # json writes a scalar key as its own text, quoted
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode_json(value, newline, out):
    """Append the chunks of ``value`` at the indent that ``newline`` ends with."""
    if isinstance(value, dict) and value:
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            out += separator, _key(key), ": "
            _encode_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        types = set(map(type, value))
        if types == {int} or types == {float} and all(map(math.isfinite, value)):
            out += "[", inner, ("," + inner).join(map(repr, value)), newline, "]"
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _encode_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _json_text(doc):
    """``json.dumps(doc, indent=2)``, without the pure-Python encoder."""
    out = []
    _encode_json(doc, "\n", out)
    return "".join(out)


def _write_json(doc, path):
    """Write ``doc`` and a final newline.  The text is complete before the
    file is opened, so a document that cannot be encoded leaves it as it was."""
    text = _json_text(doc) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# generators

def _unit(rng, n):
    v = rng.standard_normal(n)
    nrm = _norm(v)
    while nrm == 0.0:
        v = rng.standard_normal(n)
        nrm = _norm(v)
    return v / nrm


def _uniform_ball(rng, n, radius):
    return _unit(rng, n) * radius * rng.uniform() ** (1.0 / n)


def _generator(seed):
    """The instance generator of a seed, an integer >= 0."""
    return np.random.default_rng(_integer(seed, "seed", InvalidProblem, 0))


# requirements of the generators' scalars (see core._converted): from 1e14
# and 1e6 on, rounding put some sampled witness past WITNESS_RESIDUAL_TOL
_RADIUS = ("in [0, 1e13]", 0.0, 1e13)
_EPSILON = ("in (0, 1e5]", math.ulp(0.0), 1e5)
# from about 1.34e154 on, the norm of a disc's offset overflows
_OVERLAP = ("in (0, 1e150]", math.ulp(0.0), 1e150)


def gen_linear_feasibility(seed, m=10, n=10, radius=5.0, margin=1.0):
    """Random halfspaces with a strictly interior witness.

    Each halfspace {x : <a_i, x> <= b_i} has a unit normal and slack
    b_i - <a_i, q*> drawn in [0.01, 1], so the witness q* is interior by at
    least 0.01 and usable for monotonicity audits; x0 is drawn outside a
    fair share of the halfspaces.
    """
    m = _integer(m, "m", InvalidProblem, 1)
    n = _integer(n, "n", InvalidProblem, 1)
    radius = _converted(radius, "radius", InvalidProblem, _RADIUS)
    rng = _generator(seed)
    q = _uniform_ball(rng, n, radius)
    cutters = []
    for _ in range(m):
        a = _unit(rng, n)
        cutters.append(Halfspace(a, float(np.dot(a, q)) + rng.uniform(0.01, 1.0)))
    while True:
        x0 = q + rng.uniform(radius + 2.0, 2.0 * radius + 4.0) * _unit(rng, n)
        violated = sum(1 for c in cutters if c.residual(x0) > 1e-9)
        if violated >= max(1, m // 4):
            break
    # witness-based bound: d(x0, Q) <= ||x0 - q|| since q lies in Q; the unit
    # slack keeps the estimate conservative
    sigma = sigma_from_ball(q, 1.0, x0, margin)
    return Problem(n, cutters, x0, sigma, witness=q)


def gen_disc_intersection(seed, m=10, n=2, overlap=0.5, margin=1.0):
    """Overlapping discs sharing an interior witness (bounded solution set)."""
    m = _integer(m, "m", InvalidProblem, 2)
    n = _integer(n, "n", InvalidProblem, 1)
    overlap = _converted(overlap, "overlap", InvalidProblem, _OVERLAP)
    rng = _generator(seed)
    q = rng.uniform(-3.0, 3.0, n)
    cutters = []
    for _ in range(m):
        delta = rng.uniform(0.0, overlap) * _unit(rng, n)
        center = q + delta
        radius = _norm(delta) + 0.25 + rng.uniform(0.0, 0.75)
        cutters.append(Ball(center, radius))
    top = max(c.radius for c in cutters)
    x0 = q + (top + rng.uniform(1.0, 3.0)) * _unit(rng, n)
    # the whole solution set sits inside the first disc
    sigma = sigma_from_ball(cutters[0].center, cutters[0].radius, x0, margin)
    return Problem(n, cutters, x0, sigma, witness=q)


def gen_l1_constrained(seed, s=5, n=8, epsilon=2.0, margin=1.0):
    """Consistent linear system plus an l1-ball constraint, with an l1 cost.

    The planted solution has l1 norm at most 0.9 epsilon, so it is strictly
    feasible for the ball; row right-hand sides reuse the computed dot
    products, so the witness residuals are rounding error (< 1e-16 at eps 2).
    """
    s = _integer(s, "s", InvalidProblem, 1)
    n = _integer(n, "n", InvalidProblem, 1)
    epsilon = _converted(epsilon, "epsilon", InvalidProblem, _EPSILON)
    rng = _generator(seed)
    v = rng.standard_normal(n)
    xstar = v * (0.9 * epsilon * rng.uniform(0.3, 1.0) / float(np.sum(np.abs(v))))
    rows = rng.standard_normal((s, n))
    cutters = [Hyperplane(rows[i], float(np.dot(rows[i], xstar))) for i in range(s)]
    cutters.append(L1Ball(epsilon))
    x0 = rng.standard_normal(n)
    x0 *= epsilon / _norm(x0)
    sigma = sigma_from_l1(x0, epsilon, margin)
    return Problem(n, cutters, x0, sigma, witness=xstar, cost=AbsSum())
