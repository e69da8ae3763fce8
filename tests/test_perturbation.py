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
