"""Adaptive perturbation budgets and the policies that fill them.

The per-operator budget shrinks quadratically with the fixed-point residual,
so perturbations vanish near the solution set and the iteration keeps its
convergence guarantee; policies may spend the budget on noise or on steering
against a cost function (superiorization).
"""

import math

import numpy as np

from .core import (_NONNEGATIVE, InvalidConfig, _check_seed, _converted, _integer, _norm,
                   normalize_sigma)
from .cutters import _GRAD_ZERO_TOL

_LAMBDA = ("in [0, 2]", 0.0, 2.0)
# strict: generated vectors must sit strictly inside the budget
_RHO = ("in [0, 1)", 0.0, math.nextafter(1.0, 0.0))
# finite: at an infinite residual the budget formula gives inf or NaN
_RESIDUAL = ("in [0, inf)", 0.0, math.nextafter(math.inf, 0.0))


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
    """``budget`` of every entry of ``residuals``, each finite and at most
    ``r_max``, for a lam in [0, 2] and a sigma positive or inf, which the
    caller has checked.  Where the anchor 2 sigma overflows, the radius's
    homogeneity in (r, anchor) gives the budget as
    2 radius(1/2, lam, r / 2, sigma), which is 0 at an infinite sigma."""
    anchor = 2.0 * sigma
    if math.isinf(anchor):
        return 2.0 * _large_radius(0.5, lam, 0.5 * residuals, sigma)
    if _overflows(0.5, lam, r_max, anchor):
        return _large_radius(0.5, lam, residuals, anchor)
    return _radius(0.5, lam, residuals, anchor)


def budget(lam, residual, sigma):
    """Largest admissible perturbation norm for one operator at one iteration.

    Returns (1/2) lam (2 - lam) r^2 / (sqrt(zeta) + lam r + 2 sigma); exactly
    zero when sigma is infinite, when the residual vanishes, or when lam is
    an endpoint of [0, 2].
    """
    lam = _converted(lam, "lambda", InvalidConfig, _LAMBDA)
    r = _converted(residual, "residual", InvalidConfig, _RESIDUAL)
    return float(_budgets(lam, r, normalize_sigma(sigma), r))


def theta_budget(theta, lam, residual, anchor_distance):
    """Radius of the admissible perturbation set around a fixed anchor.

    anchor_distance plays the role of ||x - q||; by convention the radius is
    zero when the denominator (hence the numerator) vanishes.  The
    algorithmic budget is the theta = 1/2 case with anchor 2 sigma.
    """
    theta = _converted(theta, "theta", InvalidConfig, _NONNEGATIVE)
    lam = _converted(lam, "lambda", InvalidConfig, _LAMBDA)
    r = _converted(residual, "residual", InvalidConfig, _RESIDUAL)
    anchor = _converted(anchor_distance, "anchor distance", InvalidConfig, _NONNEGATIVE)
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
    """Base: a policy supplies only its ``direction``.  ``run`` spends the
    iteration's whole perturbation t_k = rho sum_{i in S} w_i b_i along it,
    so each operator's share rho b_i stays strictly inside its budget b_i
    (rho < 1); a rho of 0 spends nothing and asks for no direction."""

    rho = 0.0

    def direction(self, x, iteration_rng):
        """(v, s) whose quotient v / s is the unit direction u shared by
        every operator of the iteration at ``x``, or None for no
        perturbation.  ``iteration_rng()`` returns the generator of the
        iteration's stream; a policy that draws nothing never calls it."""
        raise InvalidConfig(f"{type(self).__name__} does not define direction")


class ZeroPolicy(PerturbationPolicy):
    """No perturbations: the unperturbed iteration, whose rho of 0 spends
    nothing."""


class RandomDirectionPolicy(PerturbationPolicy):
    """Uniformly random direction scaled to rho * budget.

    One direction per iteration serves every operator: each operator's
    perturbation is still uniformly random with norm rho * budget."""

    def __init__(self, rho=0.99):
        self.rho = _converted(rho, "rho", InvalidConfig, _RHO)

    def direction(self, x, iteration_rng):
        """(d, ||d||) for d the first ``x.size`` standard normals of the
        iteration's stream; a zero draw is redrawn from the same generator."""
        rng = iteration_rng()
        while True:
            d = rng.standard_normal(x.size)
            # np.linalg.norm(d) bit for bit, without its wrapper
            norm = _norm(d)
            if norm:
                return d, norm


class SuperiorizedPolicy(PerturbationPolicy):
    """Spend the budget moving against the gradient of a cost function."""

    def __init__(self, cost, rho=0.99):
        if not hasattr(cost, "grad"):
            raise InvalidConfig("superiorized policy needs a cost with a grad method")
        self.cost = cost
        self.rho = _converted(rho, "rho", InvalidConfig, _RHO)

    def direction(self, x, iteration_rng):
        """(grad(x), -||grad(x)||), or None where that norm is at most
        ``_GRAD_ZERO_TOL``: the direction is -grad(x) / ||grad(x)||."""
        g = np.asarray(self.cost.grad(x), dtype=float)
        gn = _norm(g)
        if gn <= _GRAD_ZERO_TOL:
            return None
        return g, -gn


def perturbation_rng(seed, k):
    """Counter-based stream keyed by (seed, k): one stream per iteration,
    reproducible and independent of every other iteration's.  ``k`` is an
    integer in [0, 2^64); the seed is taken modulo 2^64.

    An iteration draws its one random direction from this stream: the first
    n standard normals, then n more for as long as the draw is zero.  It is
    the stream that ``PerturbationStream(seed)`` resets its one Philox
    generator to, at counter [0, 0, k, 0].
    """
    return PerturbationStream(seed).at(_check_seed(k, "k"))


class PerturbationStream:
    """The generators of ``perturbation_rng(seed, k)`` for one seed, as one
    reused Philox generator whose state ``at`` resets; each call invalidates
    the generator the previous one returned."""

    def __init__(self, seed):
        # keys are 64-bit unsigned: an integer seed is taken modulo 2^64
        key = _integer(seed, "seed", InvalidConfig) & 0xFFFFFFFFFFFFFFFF
        self._bits = np.random.Philox(key=key)
        # a fresh generator's state: empty buffer, counter [0, 0, 0, 0]
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]
        self._generator = np.random.Generator(self._bits)

    def at(self, k):
        self._counter[2] = k
        self._bits.state = self._state
        return self._generator
