"""Randomized property suites for the solver's monotonicity and convergence
guarantees.

Each trial is reproducible from its seed state.  Trial ``[s, j]`` of the
fejer, cutter and budget suites draws from the counter-based Philox stream
``perturbation_rng(s, j)``; its suite resets one ``PerturbationStream(s)``
to j instead of building a generator per trial.  Trial t of a suite's i-th
trial function is numbered j = i * trials + t, so the strict half of
``run_fejer_suite(trials, s)`` starts at ``trials``.  A failing trial's
digest names its seed state, so the trial it names reruns on its own.

Suites fold each outcome into pass/fail counts, the worst violation seen,
the first failing digests, and coverage accounting over the operator kinds
the trials drew and the control regimes, as its trial runs: no suite keeps
its outcomes, so its memory does not grow with its trials.  A NaN checked
quantity fails its trial.
Monotonicity trials use projection-kind operators because those admit exact
fixed-point samples; the other kinds are exercised by the
separator/quasi-nonexpansivity sweep, which can construct certified fixed
points for every implemented kind.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import INFINITE_SIGMA, InvalidCutter, InvalidSchedule, RunStatus, SolverConfig, _norm
from .cutters import (
    AbsSum,
    AffineFunction,
    Ball,
    BallQuadratic,
    Box,
    Halfspace,
    Hyperplane,
    L1Ball,
    QuadraticFunction,
    Resolvent,
    SetIndicator,
    SquaredNorm,
    SubgradientProjection,
)
from .perturbation import (
    PerturbationStream,
    RandomDirectionPolicy,
    ZeroPolicy,
    budget,
    perturbation_rng,
    theta_budget,
)
from .problems import _generator, _tagged, _unit, gen_linear_feasibility
from .solver import (
    Problem,
    ResidualBelow,
    fejer_audit,
    run,
    sigma_from_ball,
)
from .weights import (
    BlockClassicalCyclic,
    BlockGeneralized,
    SequentialAlmostCyclic,
    SequentialCyclic,
    SequentialRepetitive,
    SimultaneousDrifting,
    SimultaneousUniform,
)

INEQUALITY_TOL = 1e-10  # absolute slack for desk-scale inequality checks


def _excess(over):
    """The violation of a check that ``over`` exceeds its bound by:
    ``max(0.0, over)``, but inf for a NaN, which ``max`` would drop.  Only a
    comparison that NaN fails lets a quantity pass."""
    if over <= 0.0:
        return 0.0
    return over if over > 0.0 else math.inf


@dataclass(frozen=True)
class TrialOutcome:
    inputs_digest: str
    lhs: float
    rhs: float
    violation: float
    passed: bool
    kind: Optional[str] = None  # the operator kind the trial drew, if any


# ---------------------------------------------------------------------------
# random instances and fixed-point samples

def _draw_quadratic(rng, ndim):
    m = rng.standard_normal((ndim, ndim))
    q_mat = m.T @ m + 0.2 * np.eye(ndim)
    anchor = rng.uniform(-2, 2, ndim)
    depth = rng.uniform(0.1, 2.0)
    # f(x) = (x - anchor)^T Q (x - anchor) - depth, in expanded form
    c = -2.0 * (q_mat @ anchor)
    d = float(anchor @ q_mat @ anchor) - depth
    return SubgradientProjection(QuadraticFunction(q_mat, c, d))


# one draw per kind label, each (rng, ndim) -> a random operator in R^ndim;
# the first five are metric projections
_DRAWS = {
    "halfspace": lambda rng, n: Halfspace(_unit(rng, n), rng.uniform(-3, 3)),
    "hyperplane": lambda rng, n: Hyperplane(_unit(rng, n), rng.uniform(-3, 3)),
    "ball": lambda rng, n: Ball(rng.uniform(-3, 3, n), rng.uniform(0.5, 3.0)),
    "box": lambda rng, n: Box(lo := rng.uniform(-3, 0, n), lo + rng.uniform(0.1, 3.0, n)),
    "l1_ball": lambda rng, n: L1Ball(rng.uniform(0.5, 3.0)),
    "subgradient_affine": lambda rng, n: SubgradientProjection(
        AffineFunction(_unit(rng, n), rng.uniform(-3, 3))),
    "subgradient_ball": lambda rng, n: SubgradientProjection(
        BallQuadratic(rng.uniform(-3, 3, n), rng.uniform(0.5, 3.0))),
    "subgradient_quadratic": _draw_quadratic,
    "resolvent_abs_sum": lambda rng, n: Resolvent(AbsSum(), rng.uniform(0.2, 2.0)),
    "resolvent_squared_norm": lambda rng, n: Resolvent(SquaredNorm(), rng.uniform(0.2, 2.0)),
    "resolvent_indicator": lambda rng, n: Resolvent(
        SetIndicator(Ball(rng.uniform(-3, 3, n), rng.uniform(0.5, 3.0))), rng.uniform(0.2, 2.0)),
}
ALL_KINDS = tuple(_DRAWS)
PROJECTION_KINDS = ALL_KINDS[:5]


def draw_cutter(rng, label, ndim):
    """One random operator of the named kind in R^ndim."""
    draw = _tagged(_DRAWS, label)
    if draw is None:
        raise InvalidCutter(f"unknown kind label {label!r}")
    return draw(rng, ndim)


def sample_fixed_point(cutter, rng, ndim=None):
    """A certified point of Fix(T) for any implemented kind."""
    if isinstance(cutter, Halfspace):
        z = cutter.apply(rng.uniform(-4, 4, cutter.dim))
        return z - rng.uniform(0, 2) * cutter.a / _norm(cutter.a)
    if isinstance(cutter, Hyperplane):
        return cutter.apply(rng.uniform(-4, 4, cutter.dim))
    if isinstance(cutter, Ball):
        return cutter.center + rng.uniform(0, cutter.radius) * _unit(rng, cutter.dim)
    if isinstance(cutter, Box):
        return rng.uniform(cutter.lo, cutter.hi)
    if isinstance(cutter, L1Ball):
        z = rng.standard_normal(ndim)
        return z * (cutter.radius * rng.uniform() / float(np.sum(np.abs(z))))
    if isinstance(cutter, SubgradientProjection):
        f = cutter.f
        if isinstance(f, BallQuadratic):
            return f.center + rng.uniform(0, f.radius) * _unit(rng, f.dim)
        if isinstance(f, AffineFunction):
            return sample_fixed_point(Halfspace(f.a, f.b), rng, ndim)
        if isinstance(f, QuadraticFunction):
            try:
                anchor = np.linalg.solve(2.0 * f.Q, -f.c)
            except np.linalg.LinAlgError:
                # the minimizer is not unique, or there is none
                raise InvalidCutter(
                    "no fixed-point sampler for a quadratic with singular Q") from None
            depth = -f.value(anchor)
            if depth < 0:
                raise InvalidCutter("quadratic sublevel set is empty at its minimizer")
            direction = _unit(rng, f.dim)
            curvature = float(direction @ f.Q @ direction)
            reach = np.sqrt(depth / curvature) if curvature > 0 else 2.0
            return anchor + rng.uniform(0.0, reach) * direction
    if isinstance(cutter, Resolvent):
        if isinstance(cutter.g, (AbsSum, SquaredNorm)):
            return np.zeros(ndim)
        if isinstance(cutter.g, SetIndicator):
            return sample_fixed_point(cutter.g.set_cutter, rng, ndim)
    raise InvalidCutter(f"no fixed-point sampler for {cutter!r}")


def _sample_exterior_point(cutter, rng, ndim):
    for _ in range(1000):
        x = rng.uniform(-6, 6, ndim)
        # the floor keeps the strict trial's guaranteed decrease above float
        # resolution; a NaN residual is exterior, and the trial fails on it
        if not cutter.residual(x) <= 1e-3:
            return x
    raise InvalidCutter(f"could not draw a point outside Fix for {cutter!r}")


# ---------------------------------------------------------------------------
# trials: ``rng``, when given, is the generator of perturbation_rng(*rng_state)

def _fejer_trial(rng_state, rng, strict):
    """||y - q|| <= ||x - q|| for y a relaxed step from x plus a perturbation
    of the budget's size; with ``strict``, ||y - q|| < ||x - q|| for x outside
    Fix, lam in [0.05, 1.95] and a perturbation of 0.99 of the budget."""
    rng = perturbation_rng(*rng_state) if rng is None else rng
    ndim = int(rng.integers(1, 7))
    label = PROJECTION_KINDS[int(rng.integers(len(PROJECTION_KINDS)))]
    cutter = draw_cutter(rng, label, ndim)
    if strict:
        x = _sample_exterior_point(cutter, rng, ndim)
    else:
        x = rng.uniform(-6, 6, ndim)
    q = sample_fixed_point(cutter, rng, ndim)
    lam = rng.uniform(0.05, 1.95) if strict else rng.uniform(0.0, 2.0)
    tx = cutter.apply(x)
    residual = _norm(tx - x)
    anchor = _norm(x - q)
    radius = 0.0
    # a NaN or infinite step fails the trial, not the suite
    if math.isfinite(residual) and math.isfinite(anchor):
        radius = (0.99 if strict else 1.0) * theta_budget(1.0, lam, residual, anchor)
    e = radius * _unit(rng, ndim) if radius > 0 else np.zeros(ndim)
    lhs = _norm(x + lam * (tx - x) + e - q)
    violation = _excess(lhs - anchor - (0.0 if strict else INEQUALITY_TOL))
    name = "strict_fejer" if strict else "perturbed_fejer"
    digest = f"{name}[{rng_state!r}] kind={label} n={ndim} lam={lam:.6f}"
    passed = lhs < anchor if strict else violation == 0.0
    return TrialOutcome(digest, lhs, anchor, violation, passed, label)


def perturbed_fejer_trial(rng_state, rng=None):
    """A boundary-sized perturbation never moves away from a fixed point."""
    return _fejer_trial(rng_state, rng, strict=False)


def strict_fejer_trial(rng_state, rng=None):
    """A perturbation strictly inside the budget strictly decreases the distance."""
    return _fejer_trial(rng_state, rng, strict=True)


def cutter_trial(rng_state, rng=None):
    """Separator inequality, quasi-nonexpansivity, and idempotence of the
    projection kinds, for one random operator/point/fixed-point triple."""
    rng = perturbation_rng(*rng_state) if rng is None else rng
    ndim = int(rng.integers(1, 7))
    label = ALL_KINDS[int(rng.integers(len(ALL_KINDS)))]
    cutter = draw_cutter(rng, label, ndim)
    x = rng.uniform(-6, 6, ndim)
    q = sample_fixed_point(cutter, rng, ndim)
    # Cutter.check_separator's <x - Tx, q - Tx>, from the one Tx
    tx = cutter.apply(x)
    separator = float(np.dot(x - tx, q - tx))
    quasi = _norm(tx - q) - _norm(x - q)
    violation = max(_excess(separator - INEQUALITY_TOL), _excess(quasi - INEQUALITY_TOL))
    if cutter.is_projection:
        idem = _norm(cutter.apply(tx) - tx)
        violation = max(violation, _excess(idem - INEQUALITY_TOL))
    digest = f"cutter[{rng_state!r}] kind={label} n={ndim}"
    return TrialOutcome(digest, separator, 0.0, violation, violation == 0.0, label)


def budget_trial(rng_state, rng=None):
    """Budget algebra: the quadratic bound, the anchor identity, exact
    vanishing at the degenerate parameters (including infinite sigma), and
    homogeneity in theta."""
    rng = perturbation_rng(*rng_state) if rng is None else rng
    pick = rng.uniform()
    if pick < 0.1:
        lam = float(rng.choice([0.0, 2.0]))
    else:
        lam = rng.uniform(0.0, 2.0)
    residual = 0.0 if rng.uniform() < 0.1 else rng.uniform(1e-6, 5.0)
    infinite = rng.uniform() < 0.1
    sigma = INFINITE_SIGMA if infinite else rng.uniform(0.1, 10.0)
    t = budget(lam, residual, sigma)
    violation = 0.0
    quad = 0.0
    if not infinite:
        alpha1 = lam * residual + 2.0 * sigma
        alpha2 = lam * (2.0 - lam) * residual ** 2
        quad = t * t + 2.0 * alpha1 * t - alpha2
        mirror = theta_budget(0.5, lam, residual, 2.0 * sigma)
        theta = rng.uniform(0.0, 2.0)
        h1 = theta_budget(2.0 * theta, lam, residual, 2.0 * sigma)
        h2 = 2.0 * theta_budget(theta, lam, residual, 2.0 * sigma)
        violation = max(_excess(quad - INEQUALITY_TOL), _excess(abs(t - mirror) - 1e-12),
                        _excess(abs(h1 - h2) - 1e-15 * max(1.0, abs(h2))))
    degenerate = lam == 0.0 or lam == 2.0 or residual == 0.0 or infinite
    if degenerate != (t == 0.0):
        violation = max(violation, _excess(abs(t)) if t != 0.0 else 1.0)
    digest = (
        f"budget[{rng_state!r}] lam={lam:.6f} r={residual:.6f}"
        f" sigma={'inf' if infinite else f'{sigma:.6f}'}"
    )
    return TrialOutcome(digest, quad, 0.0, violation, violation == 0.0)


# ---------------------------------------------------------------------------
# solver-level trials

# the extra control regimes of the convergence suite, each built from (m, seed)
_EXTRA_REGIMES = {
    "almost_cyclic": lambda m, seed: SequentialAlmostCyclic(m, m + 3, order_seed=seed),
    # fixed repetitive control: two sweeps interleaved
    "repetitive": lambda m, seed: SequentialRepetitive(
        m, list(range(m)) + list(range(m - 1, -1, -1))),
    "drifting": lambda m, seed: SimultaneousDrifting(m),
    "block_classical": lambda m, seed: BlockClassicalCyclic(
        m, [list(range(max(1, m // 2))), list(range(max(1, m // 2), m))]),
}


def convergence_trial(instance_seed, extra_regime=None):
    """Solve one random linear-feasibility instance under the four reference
    configurations (and optionally one extra control regime).

    Checks, per run: the residual target is reached before the iteration
    cap, every iterate stays within 2 sigma of the start, and distances to
    the witness never increase.  Returns one outcome per configuration.
    """
    problem = gen_linear_feasibility(instance_seed, 20, 10, 5)
    m = problem.m
    sigma = problem.sigma
    configs = [
        ("cyclic+zero", SequentialCyclic(m), ZeroPolicy(), 1e-6, 50_000),
        ("simultaneous+zero", SimultaneousUniform(m), ZeroPolicy(), 1e-6, 50_000),
        ("cyclic+random", SequentialCyclic(m), RandomDirectionPolicy(0.99), 1e-4, 200_000),
        ("simultaneous+random", SimultaneousUniform(m), RandomDirectionPolicy(0.99), 1e-4, 200_000),
    ]
    if extra_regime is not None:
        build = _tagged(_EXTRA_REGIMES, extra_regime)
        if build is None:
            raise InvalidSchedule(f"unknown extra regime {extra_regime!r}")
        configs.append(
            (f"{extra_regime}+zero", build(m, instance_seed), ZeroPolicy(), 1e-6, 50_000))
    outcomes = []
    for name, schedule, policy, tol, cap in configs:
        config = SolverConfig(max_iterations=cap, residual_tolerance=tol, seed=instance_seed)
        result = run(problem, config, schedule, policy)
        lhs = result.trace[-1].max_residual
        bound = 2.0 * sigma + 1e-8
        # np.max, unlike max, keeps a NaN distance
        drift = np.max([rec.distance_from_start for rec in result.trace])
        audit = fejer_audit(result.trace, problem.witness)
        violation = max(_excess(lhs - tol), _excess(drift - bound),
                        _excess(audit - INEQUALITY_TOL))
        converged = result.status is RunStatus.RESIDUAL_CONVERGED
        note = "" if converged else " INCONCLUSIVE(cap reached)"
        digest = (
            f"convergence[seed={instance_seed}] {name} iters={result.iterations_used}"
            f" audit={audit:.3e}{note}"
        )
        outcomes.append(TrialOutcome(digest, lhs, tol, violation,
                                     converged and violation == 0.0))
    return outcomes


def qhat_instance(instance_seed):
    """Three cutters in the plane whose first two fixed-point sets strictly
    contain the full intersection: a slab and a disc inside it."""
    rng = _generator(instance_seed)
    shift = rng.uniform(-0.2, 0.2)
    center = np.array([0.0, 3.0 + shift])
    disc = Ball(center, 1.5)
    cutters = (Halfspace([1.0, 0.0], 1.0), Halfspace([-1.0, 0.0], 1.0), disc)
    # start below the disc and outside the slab, so the slab genuinely acts
    # while the vanishing disc weights leave the limit well outside the disc
    x0 = np.array([3.0 + rng.uniform(0.0, 1.0), -4.0])
    sigma = sigma_from_ball(center, 1.5, x0, 1.0)
    return Problem(2, cutters, x0, sigma, witness=center)


def summable_last_index_schedule(m):
    """All indices every iteration, but the last one with weight 2^-(k+1)
    (a summable series); the rest share the remainder uniformly."""

    def weights_fn(k, block):
        tail = 2.0 ** (-(k + 1))
        w = np.full(len(block), (1.0 - tail) / (len(block) - 1))
        w[-1] = tail
        return w

    return BlockGeneralized(m, [range(m)], weights_fn)


def qhat_trial(instance_seed):
    """Summable weights exempt their index from the limit's feasibility;
    all-divergent weights on the same instance land in the full
    intersection.  Returns both outcomes; the first digest records the
    (unasserted) distance to the exempted set."""
    problem = qhat_instance(instance_seed)
    config = SolverConfig(max_iterations=4000, seed=instance_seed)
    outcomes = []
    for summable, schedule, stopping in (
        (True, summable_last_index_schedule(3), []),
        (False, SimultaneousUniform(3), [ResidualBelow(1e-8)]),
    ):
        limit = run(problem, config, schedule, ZeroPolicy(), stopping=stopping).final_point
        d = [c.fixed_point_distance(limit) for c in problem.cutters]
        checked = d[:2] if summable else d
        lhs = max(checked)
        if summable:
            detail = (f"summable d(limit,Q1)={d[0]:.3e} d(limit,Q2)={d[1]:.3e}"
                      f" d(limit,Q3)={d[2]:.3e} (Q3 not asserted)")
        else:
            detail = f"divergent max_d={lhs:.3e}"
        # each distance on its own: max(checked) drops a NaN one
        violation = max(_excess(di - 1e-5) for di in checked)
        outcomes.append(TrialOutcome(f"qhat[seed={instance_seed}] {detail}", lhs, 1e-5,
                                     violation, violation == 0.0))
    return outcomes


# ---------------------------------------------------------------------------
# suites

@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    passes: int
    failures: int
    worst_violation: float
    coverage: dict
    failed_digests: tuple

    @property
    def all_passed(self):
        return self.failures == 0


def _summarize(suite, outcomes, coverage):
    """The report of ``outcomes``, read once, in order, and none of them
    kept: the counts, the worst violation (the first of equal ones, 0.0 for
    no trials) and the first 20 failing digests.  ``coverage`` is copied
    after the last outcome, so a generator of outcomes may count into it."""
    trials = passes = 0
    worst = None
    failed = []
    for o in outcomes:
        trials += 1
        if o.passed:
            passes += 1
        elif len(failed) < 20:
            failed.append(o.inputs_digest)
        if worst is None or o.violation > worst:
            worst = o.violation
    return SuiteReport(
        suite=suite,
        trials=trials,
        passes=passes,
        failures=trials - passes,
        worst_violation=0.0 if worst is None else worst,
        coverage=dict(coverage),
        failed_digests=tuple(failed),
    )


def _count(coverage, key):
    coverage[key] = coverage.get(key, 0) + 1


def _stream_suite(suite, trial_fns, trials, seed):
    """Trial t of ``trial_fns[i]`` on stream state ``[seed, i * trials + t]``,
    all of them drawn from one reused PerturbationStream(seed).  Coverage
    counts the kinds drawn, or the suite's name for a trial without one."""
    stream = PerturbationStream(seed)
    coverage = {}

    def outcomes():
        for t in range(trials):
            for i, trial in enumerate(trial_fns):
                j = i * trials + t
                out = trial([seed, j], stream.at(j))
                _count(coverage, out.kind or suite)
                yield out

    return _summarize(suite, outcomes(), coverage)


def run_fejer_suite(trials, seed):
    """Boundary-budget monotonicity and strict-decrease sweeps."""
    return _stream_suite("fejer", (perturbed_fejer_trial, strict_fejer_trial), trials, seed)


def run_cutter_suite(trials, seed):
    return _stream_suite("cutter", (cutter_trial,), trials, seed)


def run_budget_suite(trials, seed):
    return _stream_suite("budget", (budget_trial,), trials, seed)


def run_convergence_suite(trials, seed):
    """One linear-feasibility instance per trial; rotates one extra control
    regime through the trials on top of the four reference configurations."""
    coverage = {}

    def outcomes():
        for t in range(trials):
            extra, build = list(_EXTRA_REGIMES.items())[t % len(_EXTRA_REGIMES)]
            _count(coverage, "regime:sequential_cyclic")
            _count(coverage, "regime:simultaneous_uniform")
            _count(coverage, f"regime:{build(2, 0).regime}")
            yield from convergence_trial(seed + t, extra_regime=extra)

    return _summarize("convergence", outcomes(), coverage)


def run_qhat_suite(trials, seed):
    coverage = {}

    def outcomes():
        for t in range(trials):
            _count(coverage, "regime:block_generalized")
            _count(coverage, "regime:simultaneous_uniform")
            yield from qhat_trial(seed + t)

    return _summarize("qhat", outcomes(), coverage)


SUITES = {
    "fejer": run_fejer_suite,
    "cutter": run_cutter_suite,
    "budget": run_budget_suite,
    "convergence": run_convergence_suite,
    "qhat": run_qhat_suite,
}
