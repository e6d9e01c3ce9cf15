"""Multistep Frank-Wolfe steppers and the run loop.

One iteration at index k advances through the tableau's stages: each stage
evaluates the gradient at a partially advanced point, queries the region's
linear oracle, and scales the pull toward that atom by the schedule
fraction delta*c / (c + delta*(k + offset)). The weighted stage sum is the
composite update. With the one-stage identity tableau at delta = 1 this
reduces to the classic step x + gamma (s - x), gamma = c/(c + k).

Variants:
  plain        the composite update as-is
  line_search  searches along the composite direction; never lets f increase
  momentum     gradient-averaged oracle scheme (one-stage tableau only)
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tableau import ButcherTableau, stage_gammas, validate_schedule

__all__ = [
    "SolverConfig", "Trajectory", "rk_fw_step", "fw_gap", "momentum_step", "run",
]

VARIANTS = ("plain", "line_search", "momentum")


@dataclass(frozen=True)
class SolverConfig:
    """One run's settings, checked when built."""

    tableau: ButcherTableau
    c: float = 2.0
    delta: float = 1.0
    max_iters: int = 100
    variant: str = "plain"
    record_iterates: bool = False

    def __post_init__(self):
        validate_schedule(self.c, self.delta)
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "momentum":
            if self.tableau.q != 1:
                raise ValueError("momentum is defined for the one-stage scheme only")
            if self.delta != 1.0:
                raise ValueError("momentum is defined at delta = 1 only")


@dataclass
class Trajectory:
    """The record of one run: one row per visited point, k = 0..max_iters.

    Row k sits at time ts[k] = k * delta. `iterates` is set only when the
    run recorded them; h = f - f* is fs - problem.f_star. A flow reference
    is also a Trajectory: the one flow.reference_trajectory returns.
    """

    ks: np.ndarray
    ts: np.ndarray
    fs: np.ndarray
    gaps: np.ndarray
    step_norms: np.ndarray
    violations: np.ndarray
    wall_ns: np.ndarray
    delta: float
    iterates: Optional[np.ndarray] = None  # row k is x_k, in x0's shape


def _all_finite(v) -> bool:
    """np.isfinite(v).all() for a float array, at the cost of one dot
    product: a finite self-dot proves every entry finite, and only an
    overflowing one is settled entry by entry."""
    v = v.ravel()
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def rk_fw_step(x, k: int, cfg: SolverConfig, problem):
    """One composite step from x at iteration index k.

    Returns (x_next, duality gap at x). Stage i sees the point advanced
    by the tableau row, x + sum_j a[i][j] xi_j, and pulls toward its own
    oracle answer with fraction delta*c/(c + delta*(k + offset_i)). A
    non-finite stage point or step raises ArithmeticError.
    """
    t = cfg.tableau
    gradient, lmo = problem.objective.gradient, problem.region.lmo
    x = np.asarray(x, dtype=float)
    gammas = stage_gammas(t, cfg.c, cfg.delta, k)
    xi, gap = [], 0.0
    for i, gamma in enumerate(gammas):
        # a stage with no terms sees x itself; a sum is always a new array,
        # so nothing here writes into x
        xb = x
        # 1.0 * v is v bit for bit, so a unit coefficient skips the product
        for j, aij in t.stage_terms[i]:
            xb = xb + xi[j] if aij == 1.0 else xb + aij * xi[j]
        if not _all_finite(xb):
            raise ArithmeticError(f"non-finite state at stage {i}, iteration {k}")
        g = gradient(xb)
        sd = lmo(g).dense()
        if i == 0:
            gap = float(np.vdot(g, xb - sd))
        xi.append(gamma * (sd - xb))
    x_next = x
    # a zero weight is applied too: x + 0.0 * step can turn -0.0 into +0.0
    for w, step in zip(t.weight_floats, xi):
        x_next = x_next + step if w == 1.0 else x_next + w * step
    if not _all_finite(x_next):
        raise ArithmeticError(f"non-finite step at iteration {k}")
    return x_next, gap


def fw_gap(x, problem) -> float:
    """Duality gap <grad f(x), x - s> at a feasible point."""
    # a NaN violation (a point with a NaN entry) fails the test too
    if not problem.region.membership_violation(x) <= 1e-6:
        raise ValueError("point is not feasible")
    return _row_gap(np.asarray(x, dtype=float), problem)


def _row_gap(x, problem):
    """fw_gap without the feasibility check: run records it at every
    visited point, and midpoint runs can leave the region."""
    g = problem.objective.gradient(x)
    s = problem.region.lmo(g).dense()
    return float(np.vdot(g, x - s))


_BISECT_WIDTH = 1e-10  # the line search's bisection stops at a bracket this wide


def _far_root(a, b, err, evaluated):
    """Largest gamma in [0, 1] that passes the sign test phi(gamma) <= 0:
    1 itself when it passes, else the lower end of the bracket that
    bisecting [0, 1] narrows to _BISECT_WIDTH. On a convex phi the passing
    gammas are an interval [0, r], so that end lies within _BISECT_WIDTH
    below r. gamma = 0 is tested only when no gamma > 0 passed; raises
    ValueError when it fails too (a NaN f or model there).

    The test reads the model m = gamma (a gamma + b) where |m| > err >= 0,
    and at gamma = 0 when err is finite; elsewhere, a NaN m or err included,
    it calls evaluated(gamma). The model is computed inline, with no call
    per test: a search makes at most 36 tests.
    """
    neg = -err
    m = a + b  # the model at gamma = 1
    if (m <= 0.0) if (m > err or m < neg) else evaluated(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_WIDTH:
        # mid > lo >= 0, so the gamma = 0 rule never applies here
        mid = 0.5 * (lo + hi)
        m = mid * (a * mid + b)
        if m < neg:
            lo = mid
        elif m > err:
            hi = mid
        elif evaluated(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:  # no gamma > 0 passed
        m = 0.0 * (a * 0.0 + b)  # 0, or NaN for a non-finite model
        if not ((m <= 0.0) if err < math.inf else evaluated(0.0)):
            raise ValueError("no step along the search direction passes the sign test")
    return lo


def _searched_step(objective, x, d, fx):
    """(x_next, f_next): the point the line search moves to from x along d,
    where f(x) = fx, and f(x_next) when the search already knows it, else None.

    One sign test, phi(gamma) = f(x + gamma d) - fx <= 0, decides every
    choice, so a NaN f never passes. The step is gbar, the largest gamma in
    [0, 1] that _far_root finds passing it. On a convex phi that is 0 for an
    ascent direction, 1 where phi(1) <= 0, and otherwise the far root of phi,
    where x + gbar d is x's mirror point across f's level set.

    The test reads the model from along(x, d) -> (a, b, err) where the
    objective has it: phi(gamma) = a gamma^2 + b gamma exactly, and err
    bounds the rounding of phi as value computes it, so wherever
    |model| > err, and at gamma = 0 under a finite err, where both are
    exactly 0, the model has the sign of the evaluated phi. Elsewhere
    evaluated(gamma) decides from f, calling value once per gamma: a few
    value calls per search instead of about 35. A model with err = inf (no
    along, an overflowing one, or a dropped one) decides no test. gbar is
    checked by evaluated (unless it is 0); if f rises there, the model is
    dropped and the search redone on values alone, so a wrong model can
    change the step but never lets f rise.
    At gbar = 0, x + 0 d can differ from x in the sign of a zero, so fx is
    reused only when the two are equal byte for byte.
    """
    along = getattr(objective, "along", None)
    a, b, err = (0.0, 0.0, math.inf) if along is None else along(x, d)
    points = {}  # gamma -> (x + gamma d, f there)

    def evaluated(gamma):
        if gamma not in points:
            y = x + gamma * d
            points[gamma] = y, objective.value(y)
        return points[gamma][1] - fx <= 0.0

    gbar = _far_root(a, b, err, evaluated)
    if not (gbar == 0.0 or evaluated(gbar)):  # the model was wrong: drop it
        gbar = _far_root(a, b, math.inf, evaluated)
    if gbar in points:
        return points[gbar]
    x_next = x + gbar * d
    return x_next, fx if x_next.tobytes() == x.tobytes() else None


def momentum_step(x, z, v, k: int, c: float, problem):
    """Gradient-averaged oracle step with fraction gamma = c/(c+k).

    The running average z of gradients feeds the oracle instead of the
    instantaneous gradient; x and the oracle answer v mix with the same
    fraction, so x stays a convex combination of feasible points. A
    non-finite x_next raises ArithmeticError, as rk_fw_step's does.
    """
    gamma = c / (c + k)
    x = np.asarray(x, dtype=float)
    y = (1.0 - gamma) * x + gamma * np.asarray(v, dtype=float)
    z_next = (1.0 - gamma) * np.asarray(z, dtype=float) + gamma * problem.objective.gradient(y)
    v_next = problem.region.lmo(z_next).dense()
    x_next = (1.0 - gamma) * x + gamma * v_next
    if not _all_finite(x_next):
        raise ArithmeticError(f"non-finite step at iteration {k}")
    return x_next, z_next, v_next


def run(problem, cfg: SolverConfig, consumers=()) -> Trajectory:
    """Drive cfg.max_iters steps from problem.x0.

    Records one row per visited point, k = 0..max_iters. Under line_search
    the step is the largest fraction along the composite direction that
    does not raise f, so the recorded f values never increase.

    Each consumer is called with each visited point x_k, k = 0..max_iters,
    once and in order, as the run's own array in x0's shape; the run keeps
    no buffer for them. A consumer must not write into the point.
    """
    x = problem.x0
    obj, region = problem.objective, problem.region
    n_rows = cfg.max_iters + 1
    ks = np.arange(n_rows)
    ts = ks * cfg.delta
    fs = np.empty(n_rows)
    gaps = np.empty(n_rows)
    step_norms = np.zeros(n_rows)
    violations = np.empty(n_rows)
    wall = np.zeros(n_rows, dtype=np.int64)
    iterates = np.empty((n_rows, *x.shape)) if cfg.record_iterates else None

    if cfg.variant == "momentum":
        z = np.asarray(obj.gradient(x), dtype=float)
        v = region.lmo(z).dense()

    f_next = None  # f at the next row's x, when the step already computed it
    t0 = time.perf_counter_ns()
    for k in range(cfg.max_iters + 1):
        fs[k] = obj.value(x) if f_next is None else f_next
        f_next = None
        violations[k] = region.membership_violation(x)
        if iterates is not None:
            iterates[k] = x
        for consume in consumers:
            consume(x)
        if k == cfg.max_iters:
            gaps[k] = _row_gap(x, problem)
            wall[k] = time.perf_counter_ns() - t0
            break

        if cfg.variant == "plain":
            x_next, gaps[k] = rk_fw_step(x, k, cfg, problem)
        elif cfg.variant == "line_search":
            x_plain, gaps[k] = rk_fw_step(x, k, cfg, problem)
            gamma_k = cfg.delta * cfg.c / (cfg.c + cfg.delta * k)
            d = (x_plain - x) / gamma_k
            x_next, f_next = _searched_step(obj, x, d, fs[k])
        else:  # momentum
            gaps[k] = _row_gap(x, problem)
            x_next, z, v = momentum_step(x, z, v, k, cfg.c, problem)

        dx = (x_next - x).ravel()
        # what np.linalg.norm computes for a 1-d float vector, without its overhead
        step_norms[k] = math.sqrt(dx.dot(dx))
        wall[k] = time.perf_counter_ns() - t0
        x = x_next

    return Trajectory(
        ks=ks, ts=ts, fs=fs, gaps=gaps, step_norms=step_norms,
        violations=violations, wall_ns=wall, delta=cfg.delta,
        iterates=iterates,
    )
