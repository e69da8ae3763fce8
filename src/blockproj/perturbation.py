"""Adaptive perturbation budgets and the policies that fill them.

The per-operator budget shrinks quadratically with the fixed-point residual,
so perturbations vanish near the solution set and the iteration keeps its
convergence guarantee; policies may spend the budget on noise or on steering
against a cost function (superiorization).
"""

import math

import numpy as np

from .core import InfiniteSigma, InvalidPolicy, normalize_sigma, sigma_is_finite
from .cutters import _GRAD_ZERO_TOL


def _check_lambda(lam):
    lam = float(lam)
    if not 0.0 <= lam <= 2.0:
        raise ValueError(f"lambda must be in [0, 2], got {lam}")
    return lam


def _check_residual(residual):
    residual = float(residual)
    if residual < 0.0 or math.isnan(residual):
        raise ValueError(f"residual must be nonnegative, got {residual}")
    return residual


def _zeta(lam, r, anchor):
    return (lam * r + anchor) ** 2 + lam * (2.0 - lam) * r * r


def _radius(theta, lam, r, anchor):
    denominator = math.sqrt(_zeta(lam, r, anchor)) + lam * r + anchor
    if denominator == 0.0:
        return 0.0
    return theta * lam * (2.0 - lam) * r * r / denominator


def zeta(lam, residual, sigma):
    """(lam r + 2 sigma)^2 + lam (2 - lam) r^2 for finite sigma."""
    lam = _check_lambda(lam)
    r = _check_residual(residual)
    sigma = normalize_sigma(sigma)
    if not sigma_is_finite(sigma):
        raise InfiniteSigma("zeta is undefined for infinite sigma")
    return _zeta(lam, r, 2.0 * sigma)


def budget(lam, residual, sigma):
    """Largest admissible perturbation norm for one operator at one iteration.

    Returns (1/2) lam (2 - lam) r^2 / (sqrt(zeta) + lam r + 2 sigma); exactly
    zero when sigma is infinite, when the residual vanishes, or when lam is
    an endpoint of [0, 2].
    """
    lam = _check_lambda(lam)
    r = _check_residual(residual)
    sigma = normalize_sigma(sigma)
    if not sigma_is_finite(sigma):
        return 0.0
    if r == 0.0 or lam == 0.0 or lam == 2.0:
        return 0.0
    return _radius(0.5, lam, r, 2.0 * sigma)


def theta_budget(theta, lam, residual, anchor_distance):
    """Radius of the admissible perturbation set around a fixed anchor.

    anchor_distance plays the role of ||x - q||; by convention the radius is
    zero when the denominator (hence the numerator) vanishes.  The
    algorithmic budget is the theta = 1/2 case with anchor 2 sigma.
    """
    theta = float(theta)
    if theta < 0.0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    lam = _check_lambda(lam)
    r = _check_residual(residual)
    anchor = float(anchor_distance)
    if anchor < 0.0:
        raise ValueError(f"anchor distance must be nonnegative, got {anchor}")
    return _radius(theta, lam, r, anchor)


# ---------------------------------------------------------------------------
# policies

class PerturbationPolicy:
    """Base: produce a perturbation with norm at most rho * budget < budget."""

    kind = "abstract"
    rho = 0.0

    def generate(self, budget_value, x, rng):
        raise NotImplementedError


class ZeroPolicy(PerturbationPolicy):
    """No perturbations: the unperturbed iteration."""

    kind = "zero"

    def generate(self, budget_value, x, rng):
        return np.zeros_like(np.asarray(x, dtype=float))


def _check_rho(rho):
    rho = float(rho)
    # strict: generated vectors must sit strictly inside the budget
    if not 0.0 <= rho < 1.0:
        raise InvalidPolicy(f"rho must be in [0, 1), got {rho}")
    return rho


class RandomDirectionPolicy(PerturbationPolicy):
    """Uniformly random direction scaled to rho * budget."""

    kind = "random"

    def __init__(self, rho=0.99):
        self.rho = _check_rho(rho)

    def generate(self, budget_value, x, rng):
        x = np.asarray(x, dtype=float)
        scale = self.rho * float(budget_value)
        if scale <= 0.0:
            return np.zeros_like(x)
        direction = rng.standard_normal(x.size)
        nrm = float(np.linalg.norm(direction))
        while nrm == 0.0:
            direction = rng.standard_normal(x.size)
            nrm = float(np.linalg.norm(direction))
        return (scale / nrm) * direction


class SuperiorizedPolicy(PerturbationPolicy):
    """Spend the budget moving against the gradient of a cost function."""

    kind = "superiorized"

    def __init__(self, cost, rho=0.99):
        if not hasattr(cost, "grad"):
            raise InvalidPolicy("superiorized policy needs a cost with a grad method")
        self.cost = cost
        self.rho = _check_rho(rho)

    def generate(self, budget_value, x, rng):
        x = np.asarray(x, dtype=float)
        scale = self.rho * float(budget_value)
        if scale <= 0.0:
            return np.zeros_like(x)
        g = np.asarray(self.cost.grad(x), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn <= _GRAD_ZERO_TOL:
            return np.zeros_like(x)
        return (-scale / gn) * g


def perturbation_rng(seed, k, i):
    """Counter-based stream keyed by (seed, k, i): reproducible and order-free.

    Per-operator generation inside one iteration can run in any order (or
    concurrently) without changing the draws.
    """
    key = int(seed) & 0xFFFFFFFFFFFFFFFF  # keys are 64-bit unsigned
    bg = np.random.Philox(key=key, counter=[0, 0, int(k), int(i)])
    return np.random.Generator(bg)
