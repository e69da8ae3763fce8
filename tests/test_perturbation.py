import math

import numpy as np
import pytest

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
    rng = perturbation_rng(0, 0, 0)
    e = ZeroPolicy().generate(10.0, np.ones(3), rng)
    assert np.array_equal(e, np.zeros(3))


def test_random_direction_norm():
    policy = RandomDirectionPolicy(rho=0.9)
    rng = perturbation_rng(1, 2, 3)
    e = policy.generate(0.1, np.zeros(4), rng)
    assert np.linalg.norm(e) == pytest.approx(0.09, abs=1e-12)
    assert np.linalg.norm(e) < 0.1  # strictly inside the budget


def test_random_direction_zero_budget():
    policy = RandomDirectionPolicy(rho=0.9)
    e = policy.generate(0.0, np.zeros(4), perturbation_rng(1, 2, 3))
    assert np.array_equal(e, np.zeros(4))


def test_superiorized_example():
    # cost ||x||^2 at (1, 0): -grad/||grad|| = (-1, 0), scaled by 0.5 * 0.2
    policy = SuperiorizedPolicy(SquaredNorm(), rho=0.5)
    e = policy.generate(0.2, np.array([1.0, 0.0]), perturbation_rng(0, 0, 0))
    assert np.allclose(e, [-0.1, 0.0], atol=1e-15)


def test_superiorized_zero_gradient_gives_zero():
    policy = SuperiorizedPolicy(SquaredNorm(), rho=0.5)
    e = policy.generate(0.2, np.zeros(3), perturbation_rng(0, 0, 0))
    assert np.array_equal(e, np.zeros(3))


def test_strict_budget_sweep():
    rng_master = np.random.default_rng(8)
    policy = RandomDirectionPolicy(rho=0.99)
    for trial in range(200):
        b = rng_master.uniform(1e-6, 2.0)
        e = policy.generate(b, np.zeros(3), perturbation_rng(9, trial, 0))
        assert 0.0 < np.linalg.norm(e) < b


def test_rho_validation():
    with pytest.raises(InvalidPolicy):
        RandomDirectionPolicy(rho=1.0)
    with pytest.raises(InvalidPolicy):
        SuperiorizedPolicy(SquaredNorm(), rho=-0.1)


# ---------------------------------------------------------------------------
# rng streams

def test_perturbation_rng_reproducible_and_keyed():
    a = perturbation_rng(42, 3, 1).standard_normal(5)
    b = perturbation_rng(42, 3, 1).standard_normal(5)
    c = perturbation_rng(42, 3, 2).standard_normal(5)
    d = perturbation_rng(43, 3, 1).standard_normal(5)
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
        i = int(rng.integers(0, 500))
        size = (1, 2, 7, 50, 100)[trial % 5]
        expected = perturbation_rng(seed, k, i).standard_normal(size)
        got = streams[seed].at(k, i).standard_normal(size)
        assert got.tobytes() == expected.tobytes()
        # a reset after other draws, and a longer draw, match too
        assert (streams[seed].at(k, np.int64(i)).standard_normal(2 * size).tobytes()
                == perturbation_rng(seed, k, i).standard_normal(2 * size).tobytes())


def test_batched_budgets_equal_scalar_budget():
    from blockproj.perturbation import _budgets

    rng = np.random.default_rng(13)
    for trial in range(300):
        lam = [0.0, 2.0, 1.0][trial] if trial < 3 else rng.uniform(0.0, 2.0)
        sigma = rng.uniform(1e-3, 1e3)
        residuals = rng.uniform(0.0, 10.0, 40) * 10.0 ** rng.integers(-12, 3, 40)
        residuals[rng.integers(0, 40, 5)] = 0.0
        batched = _budgets(lam, residuals, sigma)
        assert batched.tolist() == [budget(lam, r, sigma) for r in residuals]


def test_random_combined_is_weighted_sum_of_generate():
    from blockproj.perturbation import PerturbationStream

    policy = RandomDirectionPolicy(rho=0.9)
    x = np.zeros(6)
    indices = np.array([0, 3, 4, 9])
    weights = np.array([0.1, 0.2, 0.3, 0.4])
    budgets = np.array([0.5, 0.0, 1e-3, 2.0])
    stream = PerturbationStream(3)
    e = policy.combined(x, weights, budgets, lambda j: stream.at(7, indices[j]))
    expected = sum(w * policy.generate(b, x, perturbation_rng(3, 7, i))
                   for w, b, i in zip(weights, budgets, indices))
    assert np.allclose(e, expected, rtol=0.0, atol=1e-15)


class _ReplayRng:
    """A generator whose first draws are zero vectors."""

    def __init__(self, zeros):
        self.zeros = zeros

    def standard_normal(self, size):
        if self.zeros:
            self.zeros -= 1
            return np.zeros(size)
        return np.arange(1.0, size + 1.0)


def test_random_combined_redraws_a_zero_direction():
    policy = RandomDirectionPolicy(rho=0.5)
    # entry 1's stream starts with two zero draws: both are skipped
    e = policy.combined(np.zeros(2), np.array([0.5, 0.5]), np.array([1.0, 2.0]),
                        lambda j: _ReplayRng(2 if j == 1 else 0))
    unit = np.array([1.0, 2.0]) / np.sqrt(5.0)
    assert np.allclose(e, 0.5 * 0.5 * unit + 0.5 * 1.0 * unit, rtol=0.0, atol=1e-15)


def test_superiorized_combined_uses_one_gradient():
    calls = []

    class CountingNorm(SquaredNorm):
        def grad(self, x):
            calls.append(1)
            return super().grad(x)

    policy = SuperiorizedPolicy(CountingNorm(), rho=0.5)
    x = np.array([3.0, 4.0])
    e = policy.combined(x, np.array([0.25, 0.25, 0.5]), np.array([0.4, 0.0, 0.2]),
                        lambda j: pytest.fail("the superiorized policy draws nothing"))
    assert calls == [1]
    assert np.allclose(e, -0.5 * (0.25 * 0.4 + 0.5 * 0.2) * x / 5.0, rtol=0.0, atol=1e-16)
