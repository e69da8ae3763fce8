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
    t = lam * r + anchor
    return t * t + lam * (2.0 - lam) * r * r


def _radius(theta, lam, r, anchor):
    """theta lam (2 - lam) r^2 / (sqrt(zeta) + lam r + anchor), zero where the
    denominator (hence the numerator) vanishes; ``r`` may be an array."""
    denominator = np.sqrt(_zeta(lam, r, anchor)) + lam * r + anchor
    return np.divide(theta * lam * (2.0 - lam) * r * r, denominator,
                     out=np.zeros_like(denominator), where=denominator != 0.0)


def _budgets(lam, residuals, sigma):
    """``budget`` of every entry of ``residuals`` for a lam in [0, 2] and a
    finite sigma, which the caller has checked."""
    return _radius(0.5, lam, residuals, 2.0 * sigma)


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
    return float(_budgets(lam, r, sigma))


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
    return float(_radius(theta, lam, r, anchor))


# ---------------------------------------------------------------------------
# policies

class PerturbationPolicy:
    """Base: produce perturbations with norm at most rho * budget < budget.

    ``combined`` is the policy: the weighted sum e^k of one iteration's
    per-operator perturbations.  ``generate`` is the one-operator case.
    """

    kind = "abstract"
    rho = 0.0

    def combined(self, x, weights, budgets, rng_for):
        """sum_j weights[j] p_j, where p_j has norm rho * budgets[j] and
        ``rng_for(j)`` returns the generator of entry j's stream."""
        raise NotImplementedError

    def generate(self, budget_value, x, rng):
        """The perturbation of one operator with the given budget."""
        return self.combined(x, np.ones(1), np.array([float(budget_value)]), lambda j: rng)


class ZeroPolicy(PerturbationPolicy):
    """No perturbations: the unperturbed iteration."""

    kind = "zero"

    def combined(self, x, weights, budgets, rng_for):
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

    def combined(self, x, weights, budgets, rng_for):
        x = np.asarray(x, dtype=float)
        scale = self.rho * np.asarray(budgets, dtype=float)
        live = np.flatnonzero(scale > 0.0)
        if live.size == 0:
            return np.zeros_like(x)
        directions = np.empty((live.size, x.size))
        for row, j in enumerate(live):
            directions[row] = rng_for(j).standard_normal(x.size)
        norms = np.linalg.norm(directions, axis=1)
        for row in np.flatnonzero(norms == 0.0):
            rng = rng_for(live[row])
            rng.standard_normal(x.size)  # the zero draw, again
            while norms[row] == 0.0:
                directions[row] = rng.standard_normal(x.size)
                norms[row] = np.linalg.norm(directions[row])
        return (np.asarray(weights, dtype=float)[live] * scale[live] / norms) @ directions


class SuperiorizedPolicy(PerturbationPolicy):
    """Spend the budget moving against the gradient of a cost function."""

    kind = "superiorized"

    def __init__(self, cost, rho=0.99):
        if not hasattr(cost, "grad"):
            raise InvalidPolicy("superiorized policy needs a cost with a grad method")
        self.cost = cost
        self.rho = _check_rho(rho)

    def combined(self, x, weights, budgets, rng_for):
        x = np.asarray(x, dtype=float)
        scale = self.rho * np.asarray(budgets, dtype=float)
        if not np.any(scale > 0.0):
            return np.zeros_like(x)
        g = np.asarray(self.cost.grad(x), dtype=float)
        gn = float(np.linalg.norm(g))
        if gn <= _GRAD_ZERO_TOL:
            return np.zeros_like(x)
        # every operator steps along -g: one gradient serves the whole sum
        live = scale > 0.0
        return (-float(np.dot(np.asarray(weights, dtype=float)[live], scale[live])) / gn) * g


def _key(seed):
    return int(seed) & 0xFFFFFFFFFFFFFFFF  # keys are 64-bit unsigned


def perturbation_rng(seed, k, i):
    """Counter-based stream keyed by (seed, k, i): reproducible and order-free.

    Per-operator generation inside one iteration can run in any order (or
    concurrently) without changing the draws.  The solver sweeps halfspaces
    and hyperplanes as one matrix and draws a whole iteration's directions
    at once; it reproduces these streams by resetting a single Philox
    generator to counter [0, 0, k, i] (``PerturbationStream``) instead of
    building one per operator.
    """
    bg = np.random.Philox(key=_key(seed), counter=[0, 0, int(k), int(i)])
    return np.random.Generator(bg)


class PerturbationStream:
    """The generators of ``perturbation_rng(seed, k, i)`` for one seed, as one
    reused Philox generator whose state ``at`` resets; each call invalidates
    the generator the previous one returned."""

    def __init__(self, seed):
        self._bits = np.random.Philox(key=_key(seed))
        # a fresh generator's state: empty buffer, counter [0, 0, 0, 0]
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]
        self._generator = np.random.Generator(self._bits)

    def at(self, k, i):
        self._counter[2] = k
        self._counter[3] = i
        self._bits.state = self._state
        return self._generator
