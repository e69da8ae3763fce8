import math

import numpy as np
import pytest

from blockproj import (
    INFINITE_SIGMA,
    DimensionMismatch,
    Halfspace,
    InvalidConfig,
    LambdaOutOfRange,
    LambdaSchedule,
    NonpositiveSigma,
    Problem,
    SolverConfig,
    as_vector,
    normalize_sigma,
    run,
    validate_config,
)


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


@pytest.mark.parametrize("x", [[[1.0], [1.0, 2.0]], "ab", [1.0, "x"], {"a": 1.0}, [10 ** 400]])
def test_as_vector_refuses_what_numpy_cannot_convert(x):
    # numpy raises its own ValueError, TypeError or OverflowError for these
    with pytest.raises(DimensionMismatch, match="^x must be a 1-D point of numbers$"):
        as_vector(x, name="x")


# ---------------------------------------------------------------------------
# sigma

def test_sigma_normalization():
    assert normalize_sigma(2.5) == 2.5
    assert normalize_sigma(INFINITE_SIGMA) == INFINITE_SIGMA
    assert normalize_sigma(float("inf")) == INFINITE_SIGMA == math.inf
    assert not math.isfinite(INFINITE_SIGMA)
    assert math.isfinite(normalize_sigma(1.0))
    for bad in (0.0, -1.0, float("nan"), float("-inf"), "three", True, np.True_, 10 ** 400):
        with pytest.raises(NonpositiveSigma):
            normalize_sigma(bad)


def test_problem_refuses_a_boolean_sigma():
    with pytest.raises(NonpositiveSigma):
        Problem(1, [Halfspace([1.0], 1.0)], [0.0], sigma=True)


# ---------------------------------------------------------------------------
# lambda schedules

def test_lambda_schedule_forms():
    const = LambdaSchedule(1.5)
    assert const(0) == const(1234) == 1.5
    assert const.declared_range == (1.5, 1.5)

    table = LambdaSchedule([1.0, 1.5, 0.5])
    assert [table(k) for k in range(6)] == [1.0, 1.5, 0.5, 1.0, 1.5, 0.5]
    assert table.declared_range == (0.5, 1.5)

    fn = LambdaSchedule(lambda k: 1.0 + 0.1 * (k % 2))
    assert fn(3) == 1.1
    assert fn.declared_range is None

    assert repr(const) == "LambdaSchedule(1.5)"
    assert repr(table) == "LambdaSchedule([1.0, 1.5, 0.5])"
    assert repr(fn) == "LambdaSchedule(<callable>)"
    # a constant is a one-entry table
    assert repr(LambdaSchedule([1.5])) == "LambdaSchedule(1.5)"


# ---------------------------------------------------------------------------
# config validation

def _far_problem():
    """One halfspace and a start outside it, so every iteration updates."""
    return Problem(1, [Halfspace([1.0], -1e6)], [0.0], sigma=1e7)


def test_validate_config_accepts_midpoint():
    validate_config(SolverConfig(tau1=0.5, tau2=0.5, lambda_schedule=LambdaSchedule(1.0)))


def test_validate_config_rejects_bad_relaxation_bounds():
    with pytest.raises(InvalidConfig, match=r"tau1 \+ tau2 must be <= 2, got 2.5"):
        validate_config(SolverConfig(tau1=1.5, tau2=1.0))
    with pytest.raises(InvalidConfig, match="tau1 and tau2 must be positive, got -0.1, 0.5"):
        validate_config(SolverConfig(tau1=-0.1, tau2=0.5))
    with pytest.raises(InvalidConfig, match="tau1 and tau2 must be positive, got 0.5, 0.0"):
        validate_config(SolverConfig(tau1=0.5, tau2=0.0))


def test_validate_config_rejects_lambda_out_of_range():
    with pytest.raises(LambdaOutOfRange):
        validate_config(SolverConfig(tau1=0.1, tau2=0.1, lambda_schedule=LambdaSchedule(1.95)))
    # lambda = 0 is only admissible if tau1 <= 0, which the bounds forbid
    with pytest.raises(LambdaOutOfRange):
        validate_config(SolverConfig(tau1=0.5, tau2=0.5, lambda_schedule=LambdaSchedule(0.0)))
    # tabulated schedule: caught through its range, with no k
    with pytest.raises(LambdaOutOfRange) as info:
        validate_config(
            SolverConfig(tau1=0.5, tau2=0.5, lambda_schedule=LambdaSchedule([1.0, 1.6]))
        )
    assert info.value.k is None  # caught via the table's declared range
    # a callable is checked by run, before the update that uses lambda_3
    config = SolverConfig(tau1=0.5, tau2=0.5, max_iterations=10,
                          lambda_schedule=LambdaSchedule(lambda k: 1.0 if k < 3 else 2.7))
    validate_config(config)
    with pytest.raises(LambdaOutOfRange) as info:
        run(_far_problem(), config, stopping=[])
    assert info.value.k == 3


def test_validate_config_does_not_call_a_callable_schedule():
    def schedule(k):
        raise AssertionError(f"lambda_{k} sampled")

    validate_config(SolverConfig(lambda_schedule=LambdaSchedule(schedule),
                                 max_iterations=2_000_000))


def test_validate_config_sigma():
    validate_config(SolverConfig(sigma=3.0))
    validate_config(SolverConfig(sigma=INFINITE_SIGMA))
    validate_config(SolverConfig(sigma=None))
    with pytest.raises(NonpositiveSigma):
        validate_config(SolverConfig(sigma=-2.0))
    # an int past the float range, not a bare OverflowError
    with pytest.raises(NonpositiveSigma):
        validate_config(SolverConfig(sigma=10 ** 400))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70, 1.0, "7", True])
def test_validate_config_refuses_seeds_outside_64_bits(seed):
    # the perturbation streams are keyed on 64 bits: -1 would alias 2^64 - 1
    with pytest.raises(InvalidConfig, match=r"^seed must be in \[0, 2\^64\), got "):
        validate_config(SolverConfig(seed=seed))


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(3)])
def test_validate_config_accepts_64_bit_seeds(seed):
    validate_config(SolverConfig(seed=seed))


def test_validate_config_boundary_lambdas_allowed():
    # endpoints tau1 and 2 - tau2 are inside the admissible closed interval
    validate_config(SolverConfig(tau1=0.3, tau2=0.4, lambda_schedule=LambdaSchedule([0.3, 1.6])))


def test_validate_config_rejects_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="residual_tolerance"):
        validate_config(SolverConfig(residual_tolerance=nan))
    for schedule in (LambdaSchedule(nan), LambdaSchedule([1.0, nan]),
                     LambdaSchedule([nan, 1.0])):
        with pytest.raises(LambdaOutOfRange):
            validate_config(SolverConfig(lambda_schedule=schedule))
    with pytest.raises(LambdaOutOfRange) as info:
        run(_far_problem(), SolverConfig(lambda_schedule=LambdaSchedule(lambda k: nan),
                                         max_iterations=5))
    assert info.value.k == 0


def test_lambda_schedule_takes_a_0d_array_as_its_constant():
    for value in (np.array(1.5), np.float64(1.5)):
        schedule = LambdaSchedule(value)
        assert schedule(7) == 1.5 and schedule.declared_range == (1.5, 1.5)
        assert repr(schedule) == "LambdaSchedule(1.5)"
    with pytest.raises(InvalidConfig, match="^lambda must be a number, got np.True_$"):
        LambdaSchedule(np.array(True))
    with pytest.raises(InvalidConfig, match=r"^lambda must be a number, a table of numbers "
                                            r"or a callable, got None$"):
        LambdaSchedule(None)
