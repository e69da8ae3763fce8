"""Output checks computed apart from the solver.

Everything here uses numpy and the problem data the benchmark generated
(normals, offsets, witness, start, sigma); nothing calls blockproj.  Each
check returns None when the output passes and a one-line reason when it
does not.
"""

import numpy as np

FEJER_SLACK = 1e-10
# the solver stops on its own residual; an independent evaluation of the
# same residual may differ from it by rounding
RESIDUAL_SLACK = 1e-12
BUDGET_RTOL = 1e-9


def paper_budget(lam, residual, sigma):
    """(1/2) lam (2 - lam) r^2 / (sqrt(zeta) + lam r + 2 sigma), elementwise.

    zeta = (lam r + 2 sigma)^2 + lam (2 - lam) r^2.  The value grows with r,
    so a convex combination of per-operator budgets is bounded by the budget
    at the largest residual.
    """
    lam = np.asarray(lam, dtype=float)
    r = np.asarray(residual, dtype=float)
    zeta = (lam * r + 2.0 * sigma) ** 2 + lam * (2.0 - lam) * r * r
    return 0.5 * lam * (2.0 - lam) * r * r / (np.sqrt(zeta) + lam * r + 2.0 * sigma)


def halfspace_distances(normals, offsets, points):
    """d(x, {<a_i, x> <= b_i}) for each row of ``points`` and each i."""
    excess = np.atleast_2d(points) @ normals.T - offsets
    return np.maximum(excess, 0.0) / np.linalg.norm(normals, axis=1)


def hyperplane_distances(normals, offsets, points):
    """d(x, {<a_i, x> = b_i}) for each row of ``points`` and each i."""
    offset = np.atleast_2d(points) @ normals.T - offsets
    return np.abs(offset) / np.linalg.norm(normals, axis=1)


def l1_ball_distance(x, radius):
    """Euclidean distance from x to {y : ||y||_1 <= radius} (sort-based projection)."""
    x = np.asarray(x, dtype=float)
    if np.abs(x).sum() <= radius:
        return 0.0
    u = np.sort(np.abs(x))[::-1]
    cumulative = np.cumsum(u) - radius
    idx = np.arange(1, u.size + 1)
    rho = np.nonzero(u * idx > cumulative)[0][-1]
    shrink = cumulative[rho] / (rho + 1.0)
    projected = np.sign(x) * np.maximum(np.abs(x) - shrink, 0.0)
    return float(np.linalg.norm(x - projected))


def check_within_tolerance(distances, tol, what):
    """Every distance of the final point is at most tol."""
    worst = float(np.max(distances))
    if worst > tol + RESIDUAL_SLACK:
        i = int(np.argmax(distances))
        return f"final point is {worst:.3e} from {what} {i}, tolerance {tol:.3e}"
    return None


def check_l1_radius(x, radius, tol):
    """||x||_1 - eps <= sqrt(n) tol, which d(x, l1 ball) <= tol implies."""
    x = np.asarray(x, dtype=float)
    excess = float(np.abs(x).sum()) - radius
    bound = np.sqrt(x.size) * tol + RESIDUAL_SLACK
    if excess > bound:
        return f"||x||_1 exceeds the l1 radius by {excess:.3e} > sqrt(n) tol = {bound:.3e}"
    return None


def check_fejer(distances):
    """Distances to a common fixed point never increase (1e-10 slack)."""
    d = np.asarray(distances, dtype=float)
    if d.size < 2:
        return None
    rise = np.diff(d)
    worst = int(np.argmax(rise))
    if rise[worst] > FEJER_SLACK:
        return f"distance to the witness rises by {rise[worst]:.3e} at k={worst + 1}"
    return None


def check_drift(distances_from_start, sigma):
    """Every iterate stays within 2 sigma of x0."""
    d = np.asarray(distances_from_start, dtype=float)
    worst = int(np.argmax(d))
    if d[worst] > 2.0 * sigma:
        return f"iterate {worst} is {d[worst]:.6g} from x0, more than 2 sigma = {2.0 * sigma:.6g}"
    return None


def check_budget(perturbation_norms, lams, max_residuals, sigma):
    """Each update's perturbation norm is at most the paper's budget at that
    iteration's largest residual."""
    norms = np.asarray(perturbation_norms, dtype=float)
    bound = paper_budget(lams, max_residuals, sigma) * (1.0 + BUDGET_RTOL)
    over = norms > bound
    if np.any(over):
        k = int(np.argmax(over))
        return f"perturbation norm {norms[k]:.6e} exceeds the budget {bound[k]:.6e} at k={k}"
    return None


def check_recorded(recorded, computed, what):
    """Values the program recorded match the ones computed here."""
    recorded = np.asarray(recorded, dtype=float)
    computed = np.asarray(computed, dtype=float)
    gap = np.abs(recorded - computed) - 1e-9 * (1.0 + computed)
    if np.any(gap > 0):
        k = int(np.argmax(gap))
        return f"recorded {what} {recorded[k]:.6e} differs from {computed[k]:.6e} at {k}"
    return None


def first_failure(*results):
    """The first non-None check result, or None when all passed."""
    return next((r for r in results if r is not None), None)
