import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockproj import (
    INFINITE_SIGMA,
    InfiniteSigma,
    InvalidPolicy,
    RandomDirectionPolicy,
    SquaredNorm,
    SuperiorizedPolicy,
    ZeroPolicy,
    budget,
    perturbation_rng,
    theta_budget,
    zeta,
)


def test_zeta_examples():
    assert zeta(1.0, 1.0, 1.0) == pytest.approx(10.0)
    assert zeta(0.0, 5.0, 1.0) == pytest.approx(4.0)
    assert zeta(1.0, 0.0, 2.0) == pytest.approx(16.0)


def test_zeta_infinite_sigma_raises():
    with pytest.raises(InfiniteSigma):
        zeta(1.0, 1.0, INFINITE_SIGMA)


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
        assert zeta(1.0, 1e153, 10.0) == pytest.approx(2e306, rel=1e-15)
        # past the float range zeta itself is inf
        assert zeta(1.0, 1e300, 10.0) == math.inf


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
    den = math.sqrt(zeta(lam, r, sigma)) + lam * r + 2.0 * sigma
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
        zeta(2.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        budget(1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        theta_budget(-0.1, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# policies

def test_zero_policy():
    e = ZeroPolicy().combined(np.ones(3), [1.0], [10.0],
                              lambda: pytest.fail("the zero policy draws nothing"))
    assert np.array_equal(e, np.zeros(3))


def test_random_direction_norm():
    policy = RandomDirectionPolicy(rho=0.9)
    e = policy.combined(np.zeros(4), [1.0], [0.1], lambda: perturbation_rng(1, 2))
    assert np.linalg.norm(e) == pytest.approx(0.09, abs=1e-12)
    assert np.linalg.norm(e) < 0.1  # strictly inside the budget


def test_random_direction_zero_budget():
    policy = RandomDirectionPolicy(rho=0.9)
    e = policy.combined(np.zeros(4), [1.0], [0.0], lambda: perturbation_rng(1, 2))
    assert np.array_equal(e, np.zeros(4))


def test_superiorized_example():
    # cost ||x||^2 at (1, 0): -grad/||grad|| = (-1, 0), scaled by 0.5 * 0.2
    policy = SuperiorizedPolicy(SquaredNorm(), rho=0.5)
    e = policy.combined(np.array([1.0, 0.0]), [1.0], [0.2], lambda: perturbation_rng(0, 0))
    assert np.allclose(e, [-0.1, 0.0], atol=1e-15)


def test_superiorized_zero_gradient_gives_zero():
    policy = SuperiorizedPolicy(SquaredNorm(), rho=0.5)
    e = policy.combined(np.zeros(3), [1.0], [0.2], lambda: perturbation_rng(0, 0))
    assert np.array_equal(e, np.zeros(3))


def test_strict_budget_sweep():
    rng_master = np.random.default_rng(8)
    policy = RandomDirectionPolicy(rho=0.99)
    for trial in range(200):
        b = rng_master.uniform(1e-6, 2.0)
        e = policy.combined(np.zeros(3), [1.0], [b], lambda: perturbation_rng(9, trial))
        assert 0.0 < np.linalg.norm(e) < b


def test_rho_validation():
    with pytest.raises(InvalidPolicy):
        RandomDirectionPolicy(rho=1.0)
    with pytest.raises(InvalidPolicy):
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


_RESIDUALS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.floats(0.0, 1e-150),
                                st.floats(1e140, 1e300)),
                      min_size=1, max_size=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lam=st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.0, 2.0)),
       residuals=_RESIDUALS,
       sigma=st.one_of(st.floats(1e-300, 1e100), st.floats(1e100, 1e300)),
       headroom=st.one_of(st.just(0.0), st.floats(0.0, 1e300)))
def test_batched_budgets_equal_scalar_budget(lam, residuals, sigma, headroom):
    from blockproj.perturbation import _budgets

    # the solver passes the largest residual of all operators, which may
    # exceed every residual of the support
    batched = _budgets(lam, np.array(residuals), sigma, max(residuals) + headroom)
    scalar = np.array([budget(lam, r, sigma) for r in residuals])
    assert batched.tobytes() == scalar.tobytes()


def test_random_combined_is_weighted_sum_of_generate():
    from blockproj.perturbation import PerturbationStream

    policy = RandomDirectionPolicy(rho=0.9)
    x = np.zeros(6)
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    budgets = np.array([0.5, 0.0, 1e-3, 2.0])
    stream = PerturbationStream(3)
    e = policy.combined(x, weights, budgets, lambda: stream.at(7))
    # row r of the iteration's draw belongs to the r-th entry with a budget
    live = np.flatnonzero(budgets > 0.0)
    directions = perturbation_rng(3, 7).standard_normal((live.size, x.size))
    expected = sum(weights[j] * policy.combined(x, [1.0], [budgets[j]],
                                                lambda: _ReplayRng([d]))
                   for j, d in zip(live, directions[:, np.newaxis]))
    assert np.allclose(e, expected, rtol=0.0, atol=1e-15)
    # one entry draws the first row of its iteration's stream
    first = policy.combined(x, [1.0], [2.0], lambda: perturbation_rng(3, 7))
    assert np.allclose(first, 0.9 * 2.0 * directions[0] / np.linalg.norm(directions[0]),
                       rtol=0.0, atol=1e-15)


class _ReplayRng:
    """A generator that returns the given draws in order, checking that each
    is asked for with its own shape."""

    def __init__(self, draws):
        self.draws = [np.asarray(d, dtype=float) for d in draws]

    def standard_normal(self, size):
        draw = self.draws.pop(0)
        assert draw.shape == np.empty(size).shape
        return draw


def test_random_combined_redraws_a_zero_direction():
    policy = RandomDirectionPolicy(rho=0.5)
    # rows 1 and 2 of the matrix are zero; row 1's first redraw is zero too,
    # so the redraws after the matrix go to rows 1, 1, 2
    rng = _ReplayRng([[[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], [3.0, 4.0], [0.0, 5.0]])
    calls = []
    e = policy.combined(np.zeros(2), np.array([0.25, 0.25, 0.5]), np.array([1.0, 2.0, 4.0]),
                        lambda: calls.append(1) or rng)
    assert calls == [1] and rng.draws == []
    expected = (0.25 * 0.5 * np.array([1.0, 2.0]) / np.sqrt(5.0)
                + 0.25 * 1.0 * np.array([0.6, 0.8]) + 0.5 * 2.0 * np.array([0.0, 1.0]))
    assert np.allclose(e, expected, rtol=0.0, atol=1e-15)


def test_superiorized_combined_uses_one_gradient():
    calls = []

    class CountingNorm(SquaredNorm):
        def grad(self, x):
            calls.append(1)
            return super().grad(x)

    policy = SuperiorizedPolicy(CountingNorm(), rho=0.5)
    x = np.array([3.0, 4.0])
    e = policy.combined(x, np.array([0.25, 0.25, 0.5]), np.array([0.4, 0.0, 0.2]),
                        lambda: pytest.fail("the superiorized policy draws nothing"))
    assert calls == [1]
    assert np.allclose(e, -0.5 * (0.25 * 0.4 + 0.5 * 0.2) * x / 5.0, rtol=0.0, atol=1e-16)


def _reference_superiorized_combined(policy, x, weights, budgets):
    """``SuperiorizedPolicy.combined`` as first written, kept to pin its
    rewrite."""
    x = np.asarray(x, dtype=float)
    scale = policy.rho * np.asarray(budgets, dtype=float)
    if not np.any(scale > 0.0):
        return np.zeros_like(x)
    g = np.asarray(policy.cost.grad(x), dtype=float)
    gn = float(np.linalg.norm(g))
    if gn <= 1e-14:
        return np.zeros_like(x)
    live = scale > 0.0
    return (-float(np.dot(np.asarray(weights, dtype=float)[live], scale[live])) / gn) * g


# zero budgets, subnormal ones whose rho * budget may round to zero, and
# ordinary ones
_BUDGETS = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-320]), st.floats(1e-12, 1e3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), size=st.integers(1, 30), n=st.integers(1, 50),
       rho=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
       form=st.sampled_from(["abs_sum", "squared_norm"]))
def test_superiorized_combined_matches_reference_bytes(data, size, n, rho, form):
    from blockproj import AbsSum

    policy = SuperiorizedPolicy(AbsSum() if form == "abs_sum" else SquaredNorm(), rho)
    x = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    weights = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=size, max_size=size)))
    budgets = np.array(data.draw(st.lists(_BUDGETS, min_size=size, max_size=size)))
    got = policy.combined(x, weights, budgets,
                          lambda: pytest.fail("the superiorized policy draws nothing"))
    assert got.tobytes() == _reference_superiorized_combined(policy, x, weights, budgets).tobytes()
