import math

import numpy as np
import pytest

from blockproj import (
    INFINITE_SIGMA,
    DimensionMismatch,
    InvalidRelaxationBounds,
    LambdaOutOfRange,
    LambdaSchedule,
    NonpositiveSigma,
    SolverConfig,
    as_vector,
    inner,
    norm,
    normalize_sigma,
    sigma_is_finite,
    validate_config,
)


def test_inner_examples():
    assert inner([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert inner([1.0, 2.0], [3.0, 4.0]) == 11.0


def test_inner_matches_independent_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.uniform(-5, 5, int(rng.integers(1, 9)))
        reference = math.fsum(float(c) * float(c) for c in v)
        assert inner(v, v) == pytest.approx(reference, rel=1e-12)
        assert norm(v) == pytest.approx(math.sqrt(reference), rel=1e-12)


def test_norm_examples():
    assert norm([0.0, 0.0, 0.0]) == 0.0
    assert norm([3.0, 4.0]) == 5.0


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a, b, c = rng.uniform(-4, 4, (3, n))
        s, t = rng.uniform(-3, 3, 2)
        assert inner(a, b) == pytest.approx(inner(b, a), rel=1e-12, abs=1e-12)
        lhs = inner(s * a + t * b, c)
        rhs = s * inner(a, c) + t * inner(b, c)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_norm_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a, b = rng.uniform(-4, 4, (2, n))
        assert norm(a + b) <= norm(a) + norm(b) + 1e-12


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        inner([1.0, 2.0], [1.0, 2.0, 3.0])


def test_as_vector_rejects_nonfinite_and_is_readonly():
    with pytest.raises(ValueError):
        as_vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        as_vector([float("inf")])
    v = as_vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v[0] = 3.0
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0, 2.0]])
    with pytest.raises(DimensionMismatch):
        as_vector([1.0, 2.0], dim=3)


# ---------------------------------------------------------------------------
# sigma

def test_sigma_normalization():
    assert normalize_sigma(2.5) == 2.5
    assert normalize_sigma(INFINITE_SIGMA) is INFINITE_SIGMA
    assert normalize_sigma(float("inf")) is INFINITE_SIGMA
    assert not sigma_is_finite(INFINITE_SIGMA)
    assert sigma_is_finite(1.0)
    for bad in (0.0, -1.0, float("nan"), "three"):
        with pytest.raises(NonpositiveSigma):
            normalize_sigma(bad)


# ---------------------------------------------------------------------------
# lambda schedules

def test_lambda_schedule_forms():
    const = LambdaSchedule(1.5)
    assert const(0) == const(1234) == 1.5
    assert const.declared_range == (1.5, 1.5)

    table = LambdaSchedule([1.0, 1.5, 0.5])
    assert [table(k) for k in range(6)] == [1.0, 1.5, 0.5, 1.0, 1.5, 0.5]
    assert table.declared_range == (0.5, 1.5)

    fn = LambdaSchedule(lambda k: 1.0 + 0.1 * (k % 2), declared_range=(1.0, 1.1))
    assert fn(3) == 1.1
    assert fn.declared_range == (1.0, 1.1)
    assert LambdaSchedule(lambda k: 1.0).declared_range is None


# ---------------------------------------------------------------------------
# config validation

def test_validate_config_accepts_midpoint():
    validate_config(SolverConfig(tau1=0.5, tau2=0.5, lambda_schedule=LambdaSchedule(1.0)))


def test_validate_config_rejects_bad_relaxation_bounds():
    with pytest.raises(InvalidRelaxationBounds):
        validate_config(SolverConfig(tau1=1.5, tau2=1.0))
    with pytest.raises(InvalidRelaxationBounds):
        validate_config(SolverConfig(tau1=-0.1, tau2=0.5))
    with pytest.raises(InvalidRelaxationBounds):
        validate_config(SolverConfig(tau1=0.5, tau2=0.0))


def test_validate_config_rejects_lambda_out_of_range():
    with pytest.raises(LambdaOutOfRange):
        validate_config(SolverConfig(tau1=0.1, tau2=0.1, lambda_schedule=LambdaSchedule(1.95)))
    # lambda = 0 is only admissible if tau1 <= 0, which the bounds forbid
    with pytest.raises(LambdaOutOfRange):
        validate_config(SolverConfig(tau1=0.5, tau2=0.5, lambda_schedule=LambdaSchedule(0.0)))
    # tabulated schedule: the offending entry is found by sampling
    with pytest.raises(LambdaOutOfRange) as info:
        validate_config(
            SolverConfig(tau1=0.5, tau2=0.5, lambda_schedule=LambdaSchedule([1.0, 1.6]))
        )
    assert info.value.k is None  # caught via the table's declared range
    with pytest.raises(LambdaOutOfRange) as info:
        validate_config(
            SolverConfig(
                tau1=0.5,
                tau2=0.5,
                lambda_schedule=LambdaSchedule(lambda k: 1.0 if k < 3 else 2.7),
                max_iterations=10,
            )
        )
    assert info.value.k == 3


def test_validate_config_sigma():
    validate_config(SolverConfig(sigma=3.0))
    validate_config(SolverConfig(sigma=INFINITE_SIGMA))
    validate_config(SolverConfig(sigma=None))
    with pytest.raises(NonpositiveSigma):
        validate_config(SolverConfig(sigma=-2.0))


def test_validate_config_boundary_lambdas_allowed():
    # endpoints tau1 and 2 - tau2 are inside the admissible closed interval
    validate_config(SolverConfig(tau1=0.3, tau2=0.4, lambda_schedule=LambdaSchedule([0.3, 1.6])))


def test_validate_config_rejects_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="residual_tolerance"):
        validate_config(SolverConfig(residual_tolerance=nan))
    for schedule in (LambdaSchedule(nan), LambdaSchedule([1.0, nan]),
                     LambdaSchedule([nan, 1.0]),
                     LambdaSchedule(lambda k: 1.0, declared_range=(nan, 1.0))):
        with pytest.raises(LambdaOutOfRange):
            validate_config(SolverConfig(lambda_schedule=schedule))
    with pytest.raises(LambdaOutOfRange) as info:
        validate_config(SolverConfig(lambda_schedule=LambdaSchedule(lambda k: nan),
                                     max_iterations=5))
    assert info.value.k == 0
