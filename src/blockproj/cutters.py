"""Continuous cutter operators: projections, subgradient projectors, resolvents.

Every operator T here satisfies <x - T(x), q - T(x)> <= 0 for all x and all q
in Fix(T), so each non-fixed point is separated from the fixed-point set by
the hyperplane through T(x) orthogonal to T(x) - x.
"""

import functools
import math
import sys

import numpy as np

from .core import (_FINITE, _NONNEGATIVE, _POSITIVE, DimensionMismatch, InvalidCutter,
                   _converted, _norm, _scaled_norm, as_vector)

# f values at or below this are treated as feasible, guarding the subgradient
# step against division by a vanishing gradient at the boundary
LEVEL_ZERO_TOL = 1e-14

_GRAD_ZERO_TOL = 1e-14


def _number(value, name, requirement=None):
    """float(value), refusing a boolean, NaN and infinities: an offset has no
    range check to fail, an infinite offset makes residuals inf or NaN, and an
    infinite radius makes a ball all of R^n.  A further ``requirement`` is
    checked after, so that an infinity is refused as not finite."""
    value = _converted(value, name, InvalidCutter, _FINITE, float, "a finite number")
    return value if requirement is None else _converted(value, name, InvalidCutter, requirement)


def _squared_norm(a, zero_message):
    """<a, a>, refusing 0 and inf, with which offset / <a, a> would vanish,
    and a nonzero a whose square underflows below the smallest normal float,
    with which the projection loses its precision; ``np.vdot`` sums as
    ``np.dot`` does, without its overflow warning."""
    aa = float(np.vdot(a, a))
    if not sys.float_info.min <= aa < math.inf:
        if aa == math.inf:
            raise InvalidCutter("the squared norm of a overflows")
        raise InvalidCutter("the squared norm of a underflows" if a.any() else zero_message)
    return aa


def _check_point(x, dim, name="x"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D")
    if dim is not None and arr.size != dim:
        raise DimensionMismatch(f"{name} has dimension {arr.size}, expected {dim}")
    return arr


# ---------------------------------------------------------------------------
# level-set / cost functions (value + gradient in closed form)

class AffineFunction:
    """f(x) = <a, x> - b; zero-sublevel set is the halfspace <a, x> <= b."""

    form = "affine"

    def __init__(self, a, b):
        self.a = as_vector(a, name="a")
        self.b = _number(b, "b")
        _squared_norm(self.a, "affine function needs a nonzero slope")

    @property
    def dim(self):
        return self.a.size

    def value(self, x):
        return float(np.dot(self.a, _check_point(x, self.dim))) - self.b

    def grad(self, x):
        _check_point(x, self.dim)
        return np.array(self.a)


class QuadraticFunction:
    """f(x) = x^T Q x + <c, x> + d with Q symmetric positive semidefinite."""

    form = "quadratic"

    def __init__(self, Q, c, d):
        try:
            Q = np.array(Q, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise InvalidCutter("Q must be a matrix of numbers") from None
        self.c = as_vector(c, name="c")
        self.d = _number(d, "d")
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] != self.c.size:
            raise InvalidCutter("Q must be square and match the dimension of c")
        # np.allclose(Q, Q.T, rtol=0, atol=1e-12) without its wrappers:
        # matching infinities, whose difference is NaN, pass through
        # Q == Q.T, and a difference near the float range overflows
        with np.errstate(over="ignore", invalid="ignore"):
            close = (np.abs(Q - Q.T) <= 1e-12) | (Q == Q.T)
        if np.count_nonzero(close) < Q.size:
            raise InvalidCutter("Q must be symmetric")
        # after the symmetry check, which NaN fails and matching infinities pass
        if np.count_nonzero(np.isfinite(Q)) < Q.size:
            raise InvalidCutter("Q must be finite")
        eigenvalues = np.linalg.eigvalsh(Q)
        # a finite Q near the float range can have an infinite eigenvalue, and
        # value overflows there; a NaN one would pass the comparison below
        if np.count_nonzero(np.isfinite(eigenvalues)) < eigenvalues.size:
            raise InvalidCutter("the eigenvalues of Q overflow")
        if eigenvalues.min() < -1e-10:
            raise InvalidCutter("Q must be positive semidefinite")
        Q.flags.writeable = False
        self.Q = Q

    @property
    def dim(self):
        return self.c.size

    def value(self, x):
        x = _check_point(x, self.dim)
        return float(x @ self.Q @ x + np.dot(self.c, x)) + self.d

    def grad(self, x):
        x = _check_point(x, self.dim)
        return 2.0 * (self.Q @ x) + self.c


class BallQuadratic:
    """f(x) = ||x - center||^2 - radius^2; zero-sublevel set is B[center, radius]."""

    form = "norm_squared_minus"

    def __init__(self, center, radius):
        self.center = as_vector(center, name="center")
        self.radius = _number(radius, "radius", _NONNEGATIVE)
        # value subtracts radius ** 2, which overflows from about 1.34e154
        if self.radius >= 1e154:
            raise InvalidCutter(f"radius must be below 1e154, got {self.radius}")

    @property
    def dim(self):
        return self.center.size

    def value(self, x):
        diff = _check_point(x, self.dim) - self.center
        return float(np.dot(diff, diff)) - self.radius ** 2

    def grad(self, x):
        return 2.0 * (_check_point(x, self.dim) - self.center)


# ---------------------------------------------------------------------------
# proxable functions (closed-form proximal maps, for resolvents)

class AbsSum:
    """l1 norm; prox is soft thresholding, minimizer set is {0}."""

    form = "abs_sum"
    dim = None

    def value(self, x):
        return float(np.sum(np.abs(np.asarray(x, dtype=float))))

    def grad(self, x):
        # sign subgradient, 0 on zero coordinates (minimal-norm element)
        return np.sign(np.asarray(x, dtype=float))

    def prox(self, x, gamma):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.maximum(np.abs(x) - gamma, 0.0)


class SquaredNorm:
    """g(x) = ||x||^2; prox_{gamma g}(x) = x / (1 + 2 gamma)."""

    form = "squared_norm"
    dim = None

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.dot(x, x))

    def grad(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def prox(self, x, gamma):
        return np.asarray(x, dtype=float) / (1.0 + 2.0 * gamma)


class SetIndicator:
    """Indicator of a projection-kind set; prox is the projection itself."""

    form = "indicator"

    def __init__(self, set_cutter):
        if not getattr(set_cutter, "is_projection", False):
            raise InvalidCutter("indicator needs a projection-kind set")
        self.set_cutter = set_cutter

    @property
    def dim(self):
        return self.set_cutter.dim

    def prox(self, x, gamma):
        return self.set_cutter.apply(x)


# ---------------------------------------------------------------------------
# cutter base

class Cutter:
    """Common surface: apply, residual, fixed-point distance, separator check."""

    kind = "abstract"
    is_projection = False
    # (a, b, one_sided, <a, a>) for halfspaces and hyperplanes, which the
    # solver sweeps as rows of one matrix; None for every other kind
    linear_row = None

    @property
    def dim(self):
        """Ambient dimension, or None when the operator works in any R^n."""
        return None

    def apply(self, x):
        raise InvalidCutter(f"{type(self).__name__} does not define apply")

    def residual(self, x):
        """||T(x) - x||; zero exactly on the fixed-point set."""
        x = _check_point(x, self.dim)
        return _norm(self.apply(x) - x)

    def fixed_point_distance(self, x):
        """d(x, Fix(T)) when a closed form exists, else None; a projection's is its residual."""
        return self.residual(x) if self.is_projection else None

    def check_separator(self, x, q):
        """<x - T(x), q - T(x)>; nonpositive whenever q is a fixed point."""
        x = _check_point(x, self.dim)
        q = _check_point(q, self.dim, name="q")
        if x.size != q.size:
            raise DimensionMismatch("x and q must share a dimension")
        tx = self.apply(x)
        return float(np.dot(x - tx, q - tx))


class _AffineCutter(Cutter):
    """Orthogonal projection onto {x : <a, x> <= b} (one-sided) or {x : <a, x> = b}."""

    is_projection = True
    one_sided = True

    def __init__(self, a, b):
        self.a = as_vector(a, name="a")
        self.b = _number(b, "b")
        self._aa = _squared_norm(self.a, f"{self.kind} normal must be nonzero")

    @property
    def dim(self):
        return self.a.size

    @property
    def linear_row(self):
        return self.a, self.b, self.one_sided, self._aa

    def apply(self, x):
        x = _check_point(x, self.dim)
        offset = float(np.dot(self.a, x)) - self.b
        if self.one_sided and offset <= 0.0:
            return x
        return x - (offset / self._aa) * self.a

    def fixed_point_distance(self, x):
        x = _check_point(x, self.dim)
        offset = float(np.dot(self.a, x)) - self.b
        return (max(0.0, offset) if self.one_sided else abs(offset)) / math.sqrt(self._aa)


class Halfspace(_AffineCutter):
    """Orthogonal projection onto {x : <a, x> <= b}."""

    kind = "halfspace"


class Hyperplane(_AffineCutter):
    """Orthogonal projection onto {x : <a, x> = b}."""

    kind = "hyperplane"
    one_sided = False


class Ball(Cutter):
    """Orthogonal projection onto B[center, radius]."""

    kind = "ball"
    is_projection = True

    def __init__(self, center, radius):
        self.center = as_vector(center, name="center")
        self.radius = _number(radius, "ball radius", _POSITIVE)

    @property
    def dim(self):
        return self.center.size

    def apply(self, x):
        x = _check_point(x, self.dim)
        diff = x - self.center
        dist = _norm(diff)
        if dist <= self.radius:
            return x
        return self.center + (self.radius / dist) * diff

    def fixed_point_distance(self, x):
        x = _check_point(x, self.dim)
        return max(0.0, _norm(x - self.center) - self.radius)


class Box(Cutter):
    """Orthogonal projection onto the axis-aligned box [lo, hi]."""

    kind = "box"
    is_projection = True

    def __init__(self, lo, hi):
        self.lo = as_vector(lo, name="lo")
        self.hi = as_vector(hi, name="hi")
        if self.lo.size != self.hi.size:
            raise DimensionMismatch("lo and hi must share a dimension")
        if np.any(self.lo > self.hi):
            raise InvalidCutter("box needs lo <= hi coordinatewise")

    @property
    def dim(self):
        return self.lo.size

    def apply(self, x):
        x = _check_point(x, self.dim)
        return np.clip(x, self.lo, self.hi)


def project_l1_ball(x, radius):
    """Project onto {u : ||u||_1 <= radius} by sort and threshold.

    Reduces to projecting |x| onto the simplex of size ``radius`` and
    restoring signs; O(n log n).
    """
    radius = _converted(radius, "l1 ball radius", InvalidCutter, _POSITIVE)
    return _project_l1_ball(np.asarray(x, dtype=float), radius)


def _project_l1_ball(x, radius):
    """``project_l1_ball`` of a float array ``x`` and a radius > 0."""
    mag = np.abs(x)
    if float(mag.sum()) <= radius:
        return x
    u = mag.copy()
    u.sort()
    u = u[::-1]
    cumulative = u.cumsum()
    # rho is the last j with u_j - (cumulative_j - radius) / (j + 1) > 0,
    # that is with gap_j < 0
    gap = cumulative - radius
    gap /= _counts(x.size)
    gap -= u
    below = gap < 0.0
    # exactly, gap_0 = -radius; when rounding loses that, j = 0 still counts
    below[0] = True
    rho = x.size - 1 - int(below[::-1].argmax())
    theta = (cumulative[rho] - radius) / (rho + 1.0)
    mag -= theta
    np.maximum(mag, 0.0, out=mag)
    mag *= np.sign(x)
    return mag


@functools.lru_cache(maxsize=8)
def _counts(n):
    """The read-only divisors 1.0, ..., n of ``project_l1_ball``."""
    counts = np.arange(1.0, n + 1.0)
    counts.flags.writeable = False
    return counts


class L1Ball(Cutter):
    """Orthogonal projection onto {x : ||x||_1 <= radius} (any dimension)."""

    kind = "l1_ball"
    is_projection = True

    def __init__(self, radius):
        self.radius = _number(radius, "l1 ball radius", _POSITIVE)

    def apply(self, x):
        return _project_l1_ball(_check_point(x, None), self.radius)


class SubgradientProjection(Cutter):
    """Subgradient projector of a differentiable convex f with nonempty {f <= 0}.

    T(x) = x - f(x)/||grad f(x)||^2 * grad f(x) when f(x) > 0, identity
    otherwise; the fixed-point set is exactly {x : f(x) <= 0}.
    """

    kind = "subgradient_projection"

    def __init__(self, f):
        if not (hasattr(f, "value") and hasattr(f, "grad")):
            raise InvalidCutter("subgradient projection needs a function with value and grad")
        self.f = f

    @property
    def dim(self):
        return self.f.dim

    def apply(self, x):
        x = _check_point(x, self.dim)
        fx = self.f.value(x)
        if fx <= LEVEL_ZERO_TOL:
            return x
        g = self.f.grad(x)
        # np.vdot sums as np.dot does, without its overflow warning
        gg = float(np.vdot(g, g))
        if math.sqrt(gg) <= _GRAD_ZERO_TOL:
            raise InvalidCutter(
                f"gradient vanished at f(x) = {fx}; the zero-sublevel set is empty there"
            )
        if gg == math.inf:
            # fx / gg would vanish: a step by the scaled norm squares nothing
            norm = _scaled_norm(g)
            return x - (fx / norm) * (g / norm)
        return x - (fx / gg) * g

    def level_value(self, x):
        """f(x); the fixed-point set is its zero-sublevel set."""
        return self.f.value(_check_point(x, self.dim))

    def fixed_point_distance(self, x):
        x = _check_point(x, self.dim)
        if isinstance(self.f, BallQuadratic):
            return max(0.0, _norm(x - self.f.center) - self.f.radius)
        if isinstance(self.f, AffineFunction):
            return max(0.0, self.f.value(x)) / _norm(self.f.a)
        return None


class Resolvent(Cutter):
    """(Id + gamma A)^{-1} for A the subdifferential of a proxable g.

    Evaluates as prox_{gamma g}; the fixed-point set is argmin g.
    """

    kind = "resolvent"

    def __init__(self, g, gamma):
        if not hasattr(g, "prox"):
            raise InvalidCutter("resolvent needs a function with a prox method")
        self.g = g
        self.gamma = _number(gamma, "gamma", _POSITIVE)

    @property
    def dim(self):
        return getattr(self.g, "dim", None)

    def apply(self, x):
        return self.g.prox(_check_point(x, self.dim), self.gamma)
