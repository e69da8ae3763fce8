import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockproj import (
    INFINITE_SIGMA,
    InvalidConfig,
    PerturbationPolicy,
    RandomDirectionPolicy,
    SquaredNorm,
    SuperiorizedPolicy,
    ZeroPolicy,
    budget,
    perturbation_rng,
    theta_budget,
)
from blockproj.perturbation import _zeta


def _zeta_of(lam, r, sigma):
    """(lam r + 2 sigma)^2 + lam (2 - lam) r^2, the zeta of the budget formula."""
    return _zeta(lam * r, lam, r, 2.0 * sigma)


def test_zeta_examples():
    assert _zeta_of(1.0, 1.0, 1.0) == pytest.approx(10.0)
    assert _zeta_of(0.0, 5.0, 1.0) == pytest.approx(4.0)
    assert _zeta_of(1.0, 0.0, 2.0) == pytest.approx(16.0)


def test_zeta_infinite_sigma_is_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _zeta_of(1.0, 1.0, INFINITE_SIGMA) == math.inf


def test_budget_example_value():
    value = budget(1.0, 1.0, 1.0)
    assert value == pytest.approx(0.5 / (math.sqrt(10.0) + 3.0), rel=1e-14)
    assert value == pytest.approx(0.081139, abs=1e-6)
    # the quadratic from the monotonicity proof certifies the bound
    alpha1, alpha2 = 1.0 + 2.0, 1.0
    assert value ** 2 + 2 * alpha1 * value - alpha2 <= 1e-10


def test_budget_exact_zeros():
    assert budget(2.0, 3.0, 1.0) == 0.0
    assert budget(0.0, 3.0, 1.0) == 0.0
    assert budget(1.0, 0.0, 1.0) == 0.0
    assert budget(1.0, 3.0, INFINITE_SIGMA) == 0.0


def test_budget_quadratic_property_sweep():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        lam = rng.uniform(0.0, 2.0)
        r = rng.uniform(0.0, 5.0)
        sigma = rng.uniform(0.1, 10.0)
        t = budget(lam, r, sigma)
        alpha1 = lam * r + 2.0 * sigma
        alpha2 = lam * (2.0 - lam) * r * r
        assert t * t + 2.0 * alpha1 * t - alpha2 <= 1e-10


def test_budget_monotone_vanishing():
    values_r = [budget(1.0, r, 2.0) for r in (1.0, 0.1, 0.01, 1e-4, 1e-8)]
    assert all(a > b for a, b in zip(values_r, values_r[1:]))
    assert values_r[-1] < 1e-16
    values_lam = [budget(lam, 1.0, 2.0) for lam in (1.0, 0.1, 1e-3, 1e-6)]
    assert all(a > b for a, b in zip(values_lam, values_lam[1:]))
    values_hi = [budget(lam, 1.0, 2.0) for lam in (1.0, 1.9, 1.999, 2.0 - 1e-9)]
    assert all(a > b for a, b in zip(values_hi, values_hi[1:]))


def test_budgets_at_large_finite_inputs():
    # at lam = 1 and r >> sigma every budget tends to (sqrt(2) - 1) r / 2
    slope = (math.sqrt(2.0) - 1.0) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e154, 1e300):
            assert budget(1.0, r, 10.0) == pytest.approx(slope * r, rel=1e-15)
            assert theta_budget(0.5, 1.0, r, 20.0) == pytest.approx(slope * r, rel=1e-15)
        # a large theta alone would overflow the numerator theta lam (2 - lam) r^2
        assert theta_budget(1e10, 1.0, 1e150, 0.0) == pytest.approx(
            1e10 * 2.0 * slope * 1e150, rel=1e-15)
        # a tiny lam with a huge residual: lam (2 - lam) r^2 overflows, lam r does not
        lam, r = 1e-200, 1e254
        assert budget(lam, r, 1.0) == pytest.approx(
            0.5 * math.sqrt(lam * (2.0 - lam)) * r, rel=1e-14)
        assert budget(1.0, 1e300, 1e300) > 0.0
        # past 8.99e307 the anchor 2 sigma overflows; the budget is still
        # homogeneous of degree 1 in (r, sigma)
        assert budget(1.0, 1e308, 1e308) == pytest.approx(
            10.0 * budget(1.0, 1e307, 1e307), rel=1e-12)
        assert budget(1.0, 1e308, 1e308) > 8e306
        assert _zeta_of(1.0, 1e153, 10.0) == pytest.approx(2e306, rel=1e-15)
        # past the float range zeta itself is inf
        assert _zeta_of(1.0, 1e300, 10.0) == math.inf


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(1e-3, 1.999), r=st.floats(1e-3, 1e3), anchor=st.floats(1e-3, 1e3),
       theta=st.one_of(st.just(0.0), st.floats(1e-3, 4.0)), k=st.integers(480, 1000))
def test_budgets_scale_with_their_inputs(lam, r, anchor, theta, k):
    # the radius is homogeneous of degree 1 in (r, anchor); scaling by 2^k
    # is exact below the square limit and crosses it from k = 480 on
    scale = 2.0 ** k
    expected = scale * theta_budget(theta, lam, r, anchor)
    assert theta_budget(theta, lam, r * scale, anchor * scale) == pytest.approx(
        expected, rel=1e-14, abs=0.0)
    assert budget(lam, r * scale, anchor * scale / 2.0) == pytest.approx(
        scale * budget(lam, r, anchor / 2.0), rel=1e-14, abs=0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(1e-3, 1.999), r=st.floats(0.0, 1e100), sigma=st.floats(1e-3, 1e100))
def test_budget_denominator_uses_zeta(lam, r, sigma):
    # below the square limit the budget's denominator is sqrt(zeta) + lam r + 2 sigma
    den = math.sqrt(_zeta_of(lam, r, sigma)) + lam * r + 2.0 * sigma
    expected = 0.5 * lam * (2.0 - lam) * r * r / den
    assert budget(lam, r, sigma) == expected


def test_theta_budget_example():
    # zeta = (1 + 2)^2 + 1 = 10; radius = 1 / (sqrt(10) + 3)
    value = theta_budget(1.0, 1.0, 1.0, 2.0)
    assert value == pytest.approx(1.0 / (math.sqrt(10.0) + 3.0), rel=1e-14)
    assert value == pytest.approx(0.162278, abs=1e-6)


def test_theta_budget_denominator_vanishes():
    assert theta_budget(1.0, 1.0, 0.0, 0.0) == 0.0
    assert theta_budget(1.0, 0.0, 3.0, 0.0) == 0.0


def test_theta_budget_consistency_identity():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        lam = rng.uniform(0.0, 2.0)
        r = rng.uniform(0.0, 5.0)
        sigma = rng.uniform(0.05, 10.0)
        assert abs(budget(lam, r, sigma) - theta_budget(0.5, lam, r, 2.0 * sigma)) <= 1e-12


def test_theta_budget_homogeneous_in_theta():
    rng = np.random.default_rng(7)
    for _ in range(300):
        theta = rng.uniform(0.0, 3.0)
        lam = rng.uniform(0.0, 2.0)
        r = rng.uniform(0.0, 5.0)
        anchor = rng.uniform(0.0, 10.0)
        assert theta_budget(2.0 * theta, lam, r, anchor) == pytest.approx(
            2.0 * theta_budget(theta, lam, r, anchor), rel=1e-14, abs=0.0
        )


def test_input_validation():
    with pytest.raises(ValueError):
        budget(2.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        budget(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        theta_budget(-0.1, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# policies

def test_zero_policy_spends_nothing():
    # run builds no stream for it and asks it for no direction
    assert ZeroPolicy().rho == 0.0
    with pytest.raises(InvalidConfig, match="^ZeroPolicy does not define direction$"):
        ZeroPolicy().direction(np.zeros(2), lambda: pytest.fail("drawn"))


def test_random_direction_is_the_streams_draw_and_its_norm():
    # d is the first n normals of iteration k's stream, and s its norm, bit
    # for bit np.linalg.norm(d), as the solver's scalar reference computes it
    rng = np.random.default_rng(31)
    policy = RandomDirectionPolicy(rho=0.9)
    for trial in range(400):
        n = trial % 100 + 1
        seed, k = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 10 ** 6))
        d, norm = policy.direction(np.zeros(n), lambda: perturbation_rng(seed, k))
        assert d.tobytes() == perturbation_rng(seed, k).standard_normal(n).tobytes()
        assert norm > 0.0
        assert norm == np.linalg.norm(d)
        assert np.linalg.norm(d / norm) == pytest.approx(1.0, abs=1e-15)


def test_superiorized_example():
    # cost ||x||^2 at (1, 0): the direction -grad/||grad|| is (-1, 0)
    policy = SuperiorizedPolicy(SquaredNorm(), rho=0.5)
    v, norm = policy.direction(np.array([1.0, 0.0]),
                               lambda: pytest.fail("the superiorized policy draws nothing"))
    assert np.array_equal(v / norm, [-1.0, 0.0])


def test_superiorized_zero_gradient_gives_no_direction():
    policy = SuperiorizedPolicy(SquaredNorm(), rho=0.5)
    assert policy.direction(np.zeros(3), lambda: pytest.fail("drawn")) is None


def test_rho_validation():
    with pytest.raises(InvalidConfig, match=r"rho must be in \[0, 1\), got 1.0"):
        RandomDirectionPolicy(rho=1.0)
    with pytest.raises(InvalidConfig, match=r"rho must be in \[0, 1\), got -0.1"):
        SuperiorizedPolicy(SquaredNorm(), rho=-0.1)


# ---------------------------------------------------------------------------
# rng streams

def test_perturbation_rng_reproducible_and_keyed():
    a = perturbation_rng(42, 3).standard_normal(5)
    b = perturbation_rng(42, 3).standard_normal(5)
    c = perturbation_rng(42, 4).standard_normal(5)
    d = perturbation_rng(43, 3).standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_reused_stream_draws_like_perturbation_rng():
    from blockproj.perturbation import PerturbationStream

    rng = np.random.default_rng(12)
    seeds = [0, 1, -1, 2 ** 64 + 5, *rng.integers(0, 2 ** 63, 6).tolist()]
    streams = {seed: PerturbationStream(seed) for seed in seeds}
    for trial in range(1200):
        seed = seeds[trial % len(seeds)]
        k = int(rng.integers(0, 10 ** 6)) if trial % 3 else trial
        rows = int(rng.integers(1, 80))
        size = (rows, (1, 2, 7, 50, 100)[trial % 5])
        expected = perturbation_rng(seed, k).standard_normal(size)
        got = streams[seed].at(k).standard_normal(size)
        assert got.tobytes() == expected.tobytes()
        # a reset after other draws, and a matrix then a redrawn row, match too
        reused, fresh = streams[seed].at(np.int64(k)), perturbation_rng(seed, k)
        for shape in (size, size[1]):
            assert reused.standard_normal(shape).tobytes() == fresh.standard_normal(shape).tobytes()
    # counters that a float64 would round: 2^63 + 1 and the largest
    for seed in seeds:
        for k in (2 ** 63 + 1, 2 ** 64 - 1):
            expected = perturbation_rng(seed, k).standard_normal((3, 7))
            assert streams[seed].at(k).standard_normal((3, 7)).tobytes() == expected.tobytes()


_RESIDUALS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-150),
                                st.floats(1e140, 1e300)),
                      min_size=1, max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lam=st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.0, 2.0)),
       residuals=_RESIDUALS,
       sigma=st.one_of(st.floats(1e-300, 1e100), st.floats(1e100, 1e300),
                       st.floats(9e307, 1.7e308)),
       headroom=st.one_of(st.just(0.0), st.floats(0.0, 1e300)))
def test_batched_budgets_equal_scalar_budget(lam, residuals, sigma, headroom):
    from blockproj.perturbation import _budgets

    # the solver passes the largest residual of all operators, which may
    # exceed every residual of the support
    batched = _budgets(lam, np.array(residuals), sigma, max(residuals) + headroom)
    scalar = np.array([budget(lam, r, sigma) for r in residuals])
    assert batched.tobytes() == scalar.tobytes()


class _ReplayRng:
    """A generator that returns the given draws in order, checking that each
    is asked for with its own shape."""

    def __init__(self, draws):
        self.draws = [np.asarray(d, dtype=float) for d in draws]

    def standard_normal(self, size):
        draw = self.draws.pop(0)
        assert draw.shape == np.empty(size).shape
        return draw


def test_random_direction_redraws_a_zero_draw():
    # the first draw and its first redraw are zero; the second redraw, normals
    # of a real stream, serves, and its norm is np.linalg.norm's too
    drawn = perturbation_rng(4, 9).standard_normal(7)
    rng = _ReplayRng([np.zeros(7), np.zeros(7), drawn])
    calls = []
    d, norm = RandomDirectionPolicy(rho=0.5).direction(np.zeros(7),
                                                       lambda: calls.append(1) or rng)
    assert calls == [1] and rng.draws == []
    assert d.tobytes() == drawn.tobytes()
    assert norm == np.linalg.norm(d)


def _reference_superiorized_direction(policy, x):
    """The superiorized direction as first written: grad(x) with the negated
    ``np.linalg.norm`` of it, or None where that norm is at most 1e-14."""
    g = np.asarray(policy.cost.grad(x), dtype=float)
    gn = float(np.linalg.norm(g))
    if gn <= 1e-14:
        return None
    return g, -gn


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 50),
       scale=st.sampled_from([1.0, 1e-16, 1e-300]),
       form=st.sampled_from(["abs_sum", "squared_norm"]))
def test_superiorized_direction_matches_reference_bytes(data, n, scale, form):
    # a tiny x gives a squared-norm gradient at or below the threshold
    from blockproj import AbsSum

    policy = SuperiorizedPolicy(AbsSum() if form == "abs_sum" else SquaredNorm(), 0.99)
    x = scale * np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    got = policy.direction(x, lambda: pytest.fail("the superiorized policy draws nothing"))
    expected = _reference_superiorized_direction(policy, x)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1] == expected[1]


def test_policies_without_their_methods_are_refused():
    with pytest.raises(InvalidConfig, match="^superiorized policy needs a cost with a grad method$"):
        SuperiorizedPolicy(object())

    class Bare(PerturbationPolicy):
        rho = 0.5

    # a run asks for the direction where it first has a budget to spend
    from blockproj import Halfspace, Problem, run

    problem = Problem(2, [Halfspace([1.0, 0.0], 0.0)], [1.0, 1.0], sigma=5.0)
    with pytest.raises(InvalidConfig, match="^Bare does not define direction$"):
        run(problem, policy=Bare())
