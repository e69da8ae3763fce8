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


# the unscaled budget formula squares lam r + anchor and r; up to this
# limit neither square overflows, while the square of 1.34e154 does
_SQUARE_LIMIT = 1e150


def _overflows(theta, lam, r, anchor):
    """True where lam r + anchor or max(theta, 1) r exceeds _SQUARE_LIMIT,
    beyond which ``_radius`` may overflow; ``r`` may be an array."""
    return (lam * r + anchor > _SQUARE_LIMIT) | (max(theta, 1.0) * r > _SQUARE_LIMIT)


def _zeta(lr, lam, r, anchor):
    """zeta = (lam r + anchor)^2 + lam (2 - lam) r^2 for a scalar or an array
    ``r``, given lr = lam r, from temporaries updated in place in the order
    of operations the formula reads."""
    zeta = lr + anchor
    zeta *= zeta
    q = lam * (2.0 - lam) * r
    q *= r
    zeta += q
    return zeta


def _radius(theta, lam, r, anchor):
    """theta lam (2 - lam) r^2 / (sqrt(zeta) + lam r + anchor) for a scalar or
    an array ``r`` where it does not overflow (``_overflows``).  A positive
    anchor, such as the solver's 2 sigma, keeps the denominator positive.
    Temporaries updated in place compute the quotient in the order of
    operations the formula reads."""
    lr = lam * r
    den = np.sqrt(_zeta(lr, lam, r, anchor))
    den += lr
    den += anchor
    num = theta * lam * (2.0 - lam) * r
    num *= r
    num /= den
    return num


def _large_radius(theta, lam, r, anchor):
    """``_radius`` for any finite input.  Where ``_radius`` may overflow,
    with b = sqrt(lam (2 - lam)) r and
    z = (lam r + anchor) / b = sqrt(lam / (2 - lam)) + anchor / b, the
    radius is theta b / (hypot(z, 1) + z), which squares nothing (and 0
    where b is 0); every other entry keeps the unscaled arithmetic."""
    # numpy scalars: lam / (2 - lam) at lam = 2 is inf, not ZeroDivisionError
    lam = np.float64(lam)
    r = np.asarray(r, dtype=float)
    # each form overflows or divides by zero in the entries it does not serve
    with np.errstate(all="ignore"):
        large = _overflows(theta, lam, r, anchor)
        b = np.sqrt(lam * (2.0 - lam)) * r
        z = np.sqrt(lam / (2.0 - lam)) + anchor / b
        scaled = np.where(b > 0.0, theta * (b / (np.hypot(z, 1.0) + z)), 0.0)
        unscaled = _radius(theta, lam, r, anchor)
    return np.where(large, scaled, unscaled)


def _budgets(lam, residuals, sigma, r_max):
    """``budget`` of every entry of ``residuals``, each at most ``r_max``, for
    a lam in [0, 2] and a finite sigma, which the caller has checked."""
    anchor = 2.0 * sigma
    if _overflows(0.5, lam, r_max, anchor):
        return _large_radius(0.5, lam, residuals, anchor)
    return _radius(0.5, lam, residuals, anchor)


def zeta(lam, residual, sigma):
    """(lam r + 2 sigma)^2 + lam (2 - lam) r^2 for finite sigma; inf where
    the value exceeds the float range."""
    lam = _check_lambda(lam)
    r = _check_residual(residual)
    sigma = normalize_sigma(sigma)
    if not sigma_is_finite(sigma):
        raise InfiniteSigma("zeta is undefined for infinite sigma")
    return _zeta(lam * r, lam, r, 2.0 * sigma)


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
    return float(_budgets(lam, r, sigma, r))


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
    # the denominator sqrt(zeta) + lam r + anchor, a sum of nonnegative
    # terms, vanishes exactly when anchor, lam r and lam (2 - lam) r^2 do
    if anchor == 0.0 and lam * r == 0.0 and lam * (2.0 - lam) * r * r == 0.0:
        return 0.0
    if _overflows(theta, lam, r, anchor):
        return float(_large_radius(theta, lam, r, anchor))
    return float(_radius(theta, lam, r, anchor))


# ---------------------------------------------------------------------------
# policies

class PerturbationPolicy:
    """Base: produce perturbations with norm at most rho * budget < budget.

    ``combined`` is the policy: the weighted sum e^k of one iteration's
    per-operator perturbations.
    """

    kind = "abstract"
    rho = 0.0

    def combined(self, x, weights, budgets, iteration_rng):
        """sum_j weights[j] p_j, where p_j has norm rho * budgets[j].

        ``budgets`` may hold zeros: the solver passes every index of the
        support, and an entry whose rho * budgets[j] is not positive adds
        nothing.  When no entry is positive the result is zeros like ``x``,
        and ``iteration_rng`` is not called.  ``iteration_rng()`` returns
        the generator of the iteration's stream; a policy that draws nothing
        never calls it."""
        raise NotImplementedError


class ZeroPolicy(PerturbationPolicy):
    """No perturbations: the unperturbed iteration."""

    kind = "zero"

    def combined(self, x, weights, budgets, iteration_rng):
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

    def combined(self, x, weights, budgets, iteration_rng):
        """Row r of one (live, n) standard normal draw is the direction of
        the r-th entry with a positive budget; a zero row is redrawn, in row
        order, from the same generator after the matrix."""
        x = np.asarray(x, dtype=float)
        scale = self.rho * np.asarray(budgets, dtype=float)
        live = np.flatnonzero(scale > 0.0)
        if live.size == 0:
            return np.zeros_like(x)
        rng = iteration_rng()
        directions = rng.standard_normal((live.size, x.size))
        norms = np.linalg.norm(directions, axis=1)
        for row in np.flatnonzero(norms == 0.0):
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

    def combined(self, x, weights, budgets, iteration_rng):
        x = np.asarray(x, dtype=float)
        weights = np.asarray(weights, dtype=float)
        scale = self.rho * np.asarray(budgets, dtype=float)
        live = scale > 0.0
        weights, scale = weights[live], scale[live]
        if not scale.size:
            return np.zeros_like(x)
        g = np.asarray(self.cost.grad(x), dtype=float)
        gn = math.sqrt(g.dot(g))
        if gn <= _GRAD_ZERO_TOL:
            return np.zeros_like(x)
        # every operator steps along -g: one gradient serves the whole sum
        return (-float(weights.dot(scale)) / gn) * g


def _key(seed):
    return int(seed) & 0xFFFFFFFFFFFFFFFF  # keys are 64-bit unsigned


def perturbation_rng(seed, k):
    """Counter-based stream keyed by (seed, k): one stream per iteration,
    reproducible and independent of every other iteration's.

    An iteration draws all of its random directions from this one stream,
    as a single matrix whose rows follow the live support indices in
    ascending order.  The solver reproduces these streams by resetting a
    single Philox generator to counter [0, 0, k, 0] (``PerturbationStream``)
    instead of building one per iteration.
    """
    bg = np.random.Philox(key=_key(seed), counter=[0, 0, int(k), 0])
    return np.random.Generator(bg)


class PerturbationStream:
    """The generators of ``perturbation_rng(seed, k)`` for one seed, as one
    reused Philox generator whose state ``at`` resets; each call invalidates
    the generator the previous one returned."""

    def __init__(self, seed):
        self._bits = np.random.Philox(key=_key(seed))
        # a fresh generator's state: empty buffer, counter [0, 0, 0, 0]
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]
        self._generator = np.random.Generator(self._bits)

    def at(self, k):
        self._counter[2] = k
        self._bits.state = self._state
        return self._generator
