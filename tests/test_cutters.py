import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import l1_projection_enumeration, prox_1d

from blockproj import (
    AbsSum,
    AffineFunction,
    Ball,
    BallQuadratic,
    Box,
    Cutter,
    DimensionMismatch,
    Halfspace,
    Hyperplane,
    InvalidCutter,
    L1Ball,
    QuadraticFunction,
    Resolvent,
    SetIndicator,
    SquaredNorm,
    SubgradientProjection,
    project_l1_ball,
)
from blockproj.oracles import ALL_KINDS, draw_cutter, sample_fixed_point


# ---------------------------------------------------------------------------
# apply

def test_halfspace_projection_example():
    hs = Halfspace([1.0, 0.0], 1.0)
    assert np.allclose(hs.apply([3.0, 4.0]), [1.0, 4.0])
    assert hs.residual([3.0, 4.0]) == pytest.approx(2.0)


def test_subgradient_projection_example():
    # f(x) = ||x||^2 - 1 at (2, 0): f = 3, grad = (4, 0)
    cutter = SubgradientProjection(BallQuadratic([0.0, 0.0], 1.0))
    out = cutter.apply([2.0, 0.0])
    assert np.allclose(out, [1.25, 0.0], atol=1e-15)


def test_subgradient_step_whose_squared_gradient_overflows():
    # f = 1e308 - 1 and ||grad f||^2 = 4e308 = inf: f / ||g||^2 vanished and
    # the step returned x, with residual 0, 1e154 away from the unit ball
    cutter = SubgradientProjection(BallQuadratic([0.0, 0.0], 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = cutter.apply([1e154, 0.0])
        assert out.tobytes() == np.array([5e153, 0.0]).tobytes()
        assert cutter.residual([1e154, 0.0]) == 5e153
    # a finite ||g||^2 keeps the step x - (f / ||g||^2) g bit for bit
    rng = np.random.default_rng(8)
    for scale in (1.0, 1e100, 1e153):
        x = rng.standard_normal(2) * scale
        g = 2.0 * x
        assert cutter.apply(x).tobytes() == (x - (cutter.f.value(x) / np.dot(g, g)) * g).tobytes()


def test_resolvent_abs_prox_example():
    cutter = Resolvent(AbsSum(), 1.0)
    out = cutter.apply([2.0])
    # independent check: minimize |u| + (u - 2)^2 / 2 numerically
    reference = prox_1d(abs, 1.0, 2.0)
    assert out[0] == pytest.approx(1.0, abs=1e-12)
    assert out[0] == pytest.approx(reference, abs=1e-6)


def test_resolvent_squared_norm_matches_numeric_prox():
    rng = np.random.default_rng(5)
    for _ in range(20):
        gamma = rng.uniform(0.2, 3.0)
        x = rng.uniform(-4, 4)
        out = Resolvent(SquaredNorm(), gamma).apply([x])
        reference = prox_1d(lambda u: u * u, gamma, x)
        assert out[0] == pytest.approx(reference, abs=1e-6)


def test_ball_interior_identity():
    ball = Ball([0.0, 0.0], 1.0)
    x = np.array([0.3, 0.4])
    assert np.array_equal(ball.apply(x), x)


def test_box_and_indicator_prox():
    box = Box([0.0, 0.0], [1.0, 2.0])
    assert np.allclose(box.apply([-1.0, 3.0]), [0.0, 2.0])
    res = Resolvent(SetIndicator(box), 0.7)
    assert np.allclose(res.apply([-1.0, 3.0]), [0.0, 2.0])


# ---------------------------------------------------------------------------
# fixed-point distances

def test_fixed_point_distance_examples():
    assert Ball([0.0, 0.0], 1.0).fixed_point_distance([2.0, 0.0]) == pytest.approx(1.0)
    assert Halfspace([1.0, 0.0], 1.0).fixed_point_distance([0.0, 5.0]) == 0.0
    # |<a, x> - b| / ||a|| = 25 / 5, evaluated independently
    a = np.array([3.0, 4.0])
    x = np.array([3.0, 4.0])
    expected = abs(float(np.dot(a, x))) / float(np.linalg.norm(a))
    assert Hyperplane(a, 0.0).fixed_point_distance(x) == pytest.approx(expected)
    assert expected == pytest.approx(5.0)


def test_distance_absent_for_unsupported_kinds():
    quad = SubgradientProjection(QuadraticFunction(np.eye(2), [0.0, 0.0], -1.0))
    assert quad.fixed_point_distance([3.0, 0.0]) is None
    assert Resolvent(AbsSum(), 1.0).fixed_point_distance([3.0]) is None


def test_distance_matches_residual_for_projections():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        label = ("halfspace", "hyperplane", "ball", "box", "l1_ball")[int(rng.integers(5))]
        cutter = draw_cutter(rng, label, n)
        x = rng.uniform(-5, 5, n)
        assert cutter.fixed_point_distance(x) == pytest.approx(cutter.residual(x), abs=1e-12)


# ---------------------------------------------------------------------------
# separator property

def test_check_separator_zero_at_fixed_points():
    hs = Halfspace([1.0, 0.0], 1.0)
    assert hs.check_separator([0.5, 2.0], [-3.0, 7.0]) == 0.0


def test_check_separator_halfspace_example():
    hs = Halfspace([1.0, 0.0], 0.0)
    # T(x) = (0, 0); <(2,0), (-1,3)> = -2
    assert hs.check_separator([2.0, 0.0], [-1.0, 3.0]) == pytest.approx(-2.0)


def test_separator_sweep_all_kinds():
    rng = np.random.default_rng(7)
    seen = set()
    for _ in range(2000):
        n = int(rng.integers(1, 7))
        label = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
        seen.add(label)
        cutter = draw_cutter(rng, label, n)
        x = rng.uniform(-6, 6, n)
        q = sample_fixed_point(cutter, rng, n)
        assert cutter.check_separator(x, q) <= 1e-10
    assert seen == set(ALL_KINDS)


def test_quasi_nonexpansive_and_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        label = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
        cutter = draw_cutter(rng, label, n)
        x = rng.uniform(-6, 6, n)
        q = sample_fixed_point(cutter, rng, n)
        tx = cutter.apply(x)
        assert np.linalg.norm(tx - q) <= np.linalg.norm(x - q) + 1e-10
        if cutter.is_projection:
            assert np.linalg.norm(cutter.apply(tx) - tx) <= 1e-10


def test_sampled_fixed_points_are_certified():
    rng = np.random.default_rng(9)
    for label in ALL_KINDS:
        for _ in range(25):
            n = int(rng.integers(1, 6))
            cutter = draw_cutter(rng, label, n)
            q = sample_fixed_point(cutter, rng, n)
            assert cutter.residual(q) <= 1e-10, label


def test_subgradient_fixed_point_set_is_sublevel_set():
    cutter = SubgradientProjection(BallQuadratic([0.0, 0.0], 1.0))
    rng = np.random.default_rng(10)
    for _ in range(200):
        x = rng.uniform(-2, 2, 2)
        fx = cutter.level_value(x)
        out = cutter.apply(x)
        if fx <= 0.0:
            assert np.array_equal(out, x)
        else:
            assert not np.array_equal(out, x)


def test_zero_gradient_at_positive_value_raises():
    # f identically 1: PSD zero matrix, zero slope, positive offset
    flat = SubgradientProjection(QuadraticFunction(np.zeros((2, 2)), [0.0, 0.0], 1.0))
    with pytest.raises(InvalidCutter, match="the zero-sublevel set is empty there"):
        flat.apply([0.0, 0.0])


def test_empty_quadratic_sublevel_set_has_no_fixed_point_sample():
    # f(x) = ||x||^2 + 1 is positive everywhere
    empty = SubgradientProjection(QuadraticFunction(np.eye(2), [0.0, 0.0], 1.0))
    with pytest.raises(InvalidCutter, match="quadratic sublevel set is empty at its minimizer"):
        sample_fixed_point(empty, np.random.default_rng(0), 2)


@pytest.mark.parametrize("make", [
    lambda: L1Ball("ab"), lambda: L1Ball(None), lambda: L1Ball(10 ** 400),
    lambda: Ball([0.0], [1.0]), lambda: Resolvent(AbsSum(), {"gamma": 1.0}),
])
def test_scalar_that_is_not_a_number_is_refused(make):
    # float() would raise its own TypeError, ValueError or OverflowError
    with pytest.raises(InvalidCutter, match="must be a finite number, got "):
        make()


def test_ball_quadratic_radius_whose_square_overflows_is_refused():
    # f subtracts radius ** 2, which raises OverflowError from about 1.34e154
    with pytest.raises(InvalidCutter, match=r"^radius must be below 1e154, got 1e\+200$"):
        BallQuadratic([0.0], 1e200)
    assert BallQuadratic([0.0], 9.9e153).value([0.0]) == -(9.9e153 ** 2)


def test_quadratic_matrix_must_be_finite_and_symmetric():
    with pytest.raises(InvalidCutter, match="^Q must be finite$"):
        QuadraticFunction([[np.inf]], [0.0], 0.0)
    # Q - Q.T overflows here; refused without a RuntimeWarning
    with pytest.raises(InvalidCutter, match="^Q must be symmetric$"):
        QuadraticFunction([[1e308, -1e308], [1e308, 1e308]], [0.0, 0.0], 0.0)


@pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
def test_normal_whose_squared_norm_overflows_is_refused(cls):
    # with <a, a> = inf the step offset / <a, a> vanishes, and the projection
    # would be the identity
    with pytest.raises(InvalidCutter, match="^the squared norm of a overflows$"):
        cls([1e308], 0.0)
    with pytest.raises(InvalidCutter, match="^the squared norm of a overflows$"):
        SubgradientProjection(AffineFunction([1e200, 1e200], 0.0))
    # np.vdot, which does not warn, gives np.dot's sum bit for bit
    rng = np.random.default_rng(4)
    for n in range(1, 60):
        a = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        assert cls(a, 0.0)._aa == float(np.dot(a, a))


# ---------------------------------------------------------------------------
# l1 ball projection

def test_l1_projection_against_enumeration():
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        radius = rng.uniform(0.2, 3.0)
        x = rng.uniform(-4, 4, n)
        fast = project_l1_ball(x, radius)
        slow = l1_projection_enumeration(x, radius)
        assert np.linalg.norm(fast - slow) <= 1e-6
        assert np.sum(np.abs(fast)) <= radius + 1e-12


def test_l1_projection_interior_identity():
    x = np.array([0.2, -0.1, 0.05])
    assert np.array_equal(project_l1_ball(x, 1.0), x)


def _reference_l1_projection(x, radius):
    """``project_l1_ball`` as first written, kept to pin its rewrite."""
    x = np.asarray(x, dtype=float)
    mag = np.abs(x)
    if float(mag.sum()) <= radius:
        return x
    u = np.sort(mag)[::-1]
    cumulative = np.cumsum(u)
    counts = np.arange(1, x.size + 1)
    positive = u - (cumulative - radius) / counts > 0
    rho = int(np.nonzero(positive)[0][-1])
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    return np.sign(x) * np.maximum(mag - theta, 0.0)


# few distinct magnitudes, so that ties are common, and signed zeros
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                     st.floats(-1e3, 1e3), st.floats(-1e-6, 1e-6))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(x=st.lists(_ENTRIES, min_size=1, max_size=200),
       where=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(1e-3, 1.5)))
def test_l1_projection_matches_reference_bytes(x, where):
    x = np.array(x)
    # where 1.0 puts x on the sphere, below 1 outside the ball, above inside
    radius = float(np.abs(x).sum()) * where or where
    assert project_l1_ball(x, radius).tobytes() == _reference_l1_projection(x, radius).tobytes()


def test_l1_projection_radius_below_rounding():
    # radius under half an ulp of the largest magnitude: no index passes the
    # threshold test in floating point, where exactly the first one does
    for x in ([1e20], [1e20, 1e20], [1e16, -3.0]):
        with pytest.raises(IndexError):
            _reference_l1_projection(x, 1.0)
        p = project_l1_ball(x, 1.0)
        assert np.all(np.isfinite(p)) and np.abs(p).sum() <= 1.0


# ---------------------------------------------------------------------------
# construction validation

def test_invalid_constructions():
    with pytest.raises(InvalidCutter):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(InvalidCutter):
        Ball([0.0], -1.0)
    with pytest.raises(InvalidCutter):
        Box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(InvalidCutter):
        L1Ball(0.0)
    with pytest.raises(InvalidCutter):
        QuadraticFunction([[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0], 0.0)  # not symmetric
    with pytest.raises(InvalidCutter):
        QuadraticFunction([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], 0.0)  # not PSD
    with pytest.raises(InvalidCutter):
        Resolvent(AbsSum(), 0.0)
    with pytest.raises(InvalidCutter):
        SetIndicator(Resolvent(AbsSum(), 1.0))  # not a projection kind


# constructor of each cutter or function with one scalar field, from its value
SCALAR_FIELDS = {
    "halfspace.b": lambda v: Halfspace([1.0, 0.0], v),
    "hyperplane.b": lambda v: Hyperplane([1.0, 0.0], v),
    "ball.radius": lambda v: Ball([0.0, 0.0], v),
    "l1_ball.radius": lambda v: L1Ball(v),
    "ball_quadratic.radius": lambda v: BallQuadratic([0.0, 0.0], v),
    "resolvent.gamma": lambda v: Resolvent(AbsSum(), v),
    "affine.b": lambda v: AffineFunction([1.0, 0.0], v),
    "quadratic.d": lambda v: QuadraticFunction([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], v),
}


@pytest.mark.parametrize("field", SCALAR_FIELDS)
def test_nan_scalar_refused(field):
    with pytest.raises(InvalidCutter, match="nan"):
        SCALAR_FIELDS[field](float("nan"))


@pytest.mark.parametrize("value", [float("inf"), -float("inf")], ids=["inf", "-inf"])
@pytest.mark.parametrize("field", SCALAR_FIELDS)
def test_infinite_scalar_refused(field, value):
    with pytest.raises(InvalidCutter, match="must be a finite number, got -?inf"):
        SCALAR_FIELDS[field](value)


def test_dimension_mismatch_on_apply():
    with pytest.raises(DimensionMismatch):
        Halfspace([1.0, 0.0], 1.0).apply([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        Ball([0.0, 0.0], 1.0).check_separator([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


def test_affine_function_distance():
    sub = SubgradientProjection(AffineFunction([0.0, 2.0], 4.0))
    # f(x) = 2 x_2 - 4 <= 0 is the halfspace x_2 <= 2; distance from (0, 5) is 3
    assert sub.fixed_point_distance([0.0, 5.0]) == pytest.approx(3.0)
    assert sub.fixed_point_distance([0.0, 1.0]) == 0.0


def test_ball_quadratic_distance():
    # ||x - c||^2 - 1 <= 0 is the unit ball at c = (1, 1); (4, 5) is 5 from c
    sub = SubgradientProjection(BallQuadratic([1.0, 1.0], 1.0))
    assert sub.fixed_point_distance([4.0, 5.0]) == 4.0
    assert sub.fixed_point_distance([1.5, 1.0]) == 0.0


def test_projection_distance_is_its_residual():
    box, l1 = Box([-1.0, 0.0], [1.0, 2.0]), L1Ball(1.5)
    for x in ([3.0, -4.0], [0.5, 1.0], [1e150, -1e-300]):
        assert box.fixed_point_distance(x) == box.residual(x)
        assert l1.fixed_point_distance(x) == l1.residual(x)

    # a user projection has distance support, as its flag asserts
    class Nonnegative(Cutter):
        is_projection = True

        def apply(self, x):
            return np.maximum(x, 0.0)

    assert Nonnegative().fixed_point_distance([-3.0, 4.0, -4.0]) == 5.0

    class Unflagged(Nonnegative):
        is_projection = False

    assert Unflagged().fixed_point_distance([-3.0, 4.0]) is None


def test_shapes_and_missing_methods_are_refused():
    with pytest.raises(DimensionMismatch, match="^x must be 1-D$"):
        Ball([0.0, 0.0], 1.0).apply([[1.0, 2.0]])
    with pytest.raises(InvalidCutter, match="^Cutter does not define apply$"):
        Cutter().apply([1.0])
    with pytest.raises(DimensionMismatch, match="^x and q must share a dimension$"):
        L1Ball(1).check_separator([1, 2], [0])
    with pytest.raises(DimensionMismatch, match="^lo and hi must share a dimension$"):
        Box([0], [1, 2])


def test_squared_norm_value():
    assert SquaredNorm().value([3, 4]) == 25.0
