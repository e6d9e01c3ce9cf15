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
            if self.tableau.q != 1 or np.any(self.tableau.a != 0.0):
                raise ValueError("momentum is defined for the one-stage scheme only")
            if self.delta != 1.0:
                raise ValueError("momentum is defined at delta = 1 only")


@dataclass
class Trajectory:
    ks: np.ndarray
    ts: np.ndarray
    fs: np.ndarray
    gaps: np.ndarray
    step_norms: np.ndarray
    violations: np.ndarray
    wall_ns: np.ndarray
    delta: float
    f_star: Optional[float] = None
    iterates: Optional[np.ndarray] = None  # row k is x_k, in x0's shape

    def h(self) -> np.ndarray:
        """Objective above the known optimum."""
        if self.f_star is None:
            raise ValueError("trajectory has no recorded optimum")
        return self.fs - self.f_star

    def write_csv(self, fh):
        fh.write("k,t,f,gap,step_norm,violation,wall_ns\n")
        ints = [np.asarray(col).astype(np.int64).tolist() for col in (self.ks, self.wall_ns)]
        floats = [np.asarray(col, dtype=float).tolist()
                  for col in (self.ts, self.fs, self.gaps, self.step_norms, self.violations)]
        fh.writelines(f"{k},{t!r},{f!r},{gap!r},{sn!r},{v!r},{w}\n"
                      for k, w, t, f, gap, sn, v in zip(*ints, *floats))

    def write_iterates(self, fh):
        if self.iterates is None:
            raise ValueError("run did not record iterates")
        for row in self.iterates.reshape(len(self.iterates), -1).tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def _all_finite(v) -> bool:
    """np.isfinite(v).all() for a float array, at the cost of one dot
    product: a finite self-dot proves every entry finite, and only an
    overflowing one is settled entry by entry."""
    v = v.reshape(-1)
    return math.isfinite(v.dot(v)) or bool(np.isfinite(v).all())


def rk_fw_step(x, k: int, cfg: SolverConfig, problem):
    """One composite step from x at iteration index k.

    Returns (x_next, duality gap at x). Stage i sees the point advanced
    by the tableau row, x + sum_j a[i][j] xi_j, and pulls toward its own
    oracle answer with fraction delta*c/(c + delta*(k + offset_i)). A
    non-finite stage point or step raises ArithmeticError.
    """
    t = cfg.tableau
    obj, region = problem.objective, problem.region
    x = np.asarray(x, dtype=float)
    gammas = stage_gammas(t, cfg.c, cfg.delta, k).tolist()
    xi, gap = [], 0.0
    for i, gamma in enumerate(gammas):
        xb = x.copy()
        for j, aij in t.stage_terms[i]:
            xb += aij * xi[j]
        if not _all_finite(xb):
            raise ArithmeticError(f"non-finite state at stage {i}, iteration {k}")
        g = obj.gradient(xb)
        sd = region.lmo(g).dense()
        if i == 0:
            gap = float(np.vdot(g, xb - sd))
        xi.append(gamma * (sd - xb))
    x_next = x.copy()
    # a zero weight is applied too: x + 0.0 * step can turn -0.0 into +0.0
    for w, step in zip(t.weight_floats, xi):
        x_next += w * step
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


_GRID = tuple(i / 32 for i in range(33))  # np.linspace(0, 1, 33), bit for bit
_BISECT_WIDTH = 1e-10  # the line search's bisection stops at a bracket this wide


def _far_root(no_rise):
    """Largest gamma in [0, 1] that no_rise accepts: 1 when it does, else a
    scan down the 33-point grid from 31/32 finds the last accepted grid
    point, and bisection narrows the bracket above it to _BISECT_WIDTH. The
    grid guards against stopping at an early pocket of phi. Raises
    ValueError when not even gamma = 0 is accepted (a NaN f or model there).
    """
    if no_rise(1.0):
        return 1.0
    for idx in range(31, -1, -1):  # 32 is gamma = 1, refused above
        if no_rise(_GRID[idx]):
            break
    else:
        raise ValueError("no step along the search direction passes the sign test")
    lo, hi = _GRID[idx], _GRID[idx + 1]
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if no_rise(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _searched_step(objective, x, d, fx, k, c):
    """(x_next, f_next): the point the line search moves to from x along d,
    where f(x) = fx, and f(x_next) when the search already knows it, else None.

    One sign test, phi(gamma) = f(x + gamma d) - fx <= 0, decides every
    choice, so a NaN f never passes. gbar is the largest gamma that _far_root
    finds passing it (0 for an ascent direction of a convex f). The step is
    the larger of gbar and the open-loop fraction c/(c+k), clipped to [0, 1];
    if it fails the test, the step falls back to gbar.

    no_rise(gamma) reads the test from along(x, d) -> (a, b, err) where the
    objective has it: phi(gamma) = a gamma^2 + b gamma exactly, and err
    bounds the rounding of phi as value computes it, so wherever
    |model| > err, and at gamma = 0, where both are exactly 0, the model has
    the sign of the evaluated phi. Elsewhere evaluated(gamma) decides from
    f, calling value once per gamma: a few value calls per search instead of
    about 60. gbar is checked by evaluated (unless it is 0); if f rises
    there, the model is dropped and the search redone on values alone, so a
    wrong model can change the step but never lets f rise. The model may
    refuse the schedule step without a value call, but a step that is taken
    is always evaluated.
    At gbar = 0, x + 0 d can differ from x in the sign of a zero, so fx is
    reused only when the two are equal byte for byte.
    """
    along = getattr(objective, "along", None)
    trusted = along is not None
    a, b, err = along(x, d) if trusted else (0.0, 0.0, math.inf)
    points = {}  # gamma -> (x + gamma d, f there)

    def evaluated(gamma):
        if gamma not in points:
            y = x + gamma * d
            points[gamma] = y, objective.value(y)
        return points[gamma][1] - fx <= 0.0

    def no_rise(gamma):
        m = gamma * (a * gamma + b)
        if abs(m) > err or gamma == 0.0 and trusted:
            return m <= 0.0
        return evaluated(gamma)

    gbar = _far_root(no_rise)
    if not (gbar == 0.0 or evaluated(gbar)):
        err, trusted = math.inf, False  # the model was wrong: drop it
        gbar = _far_root(no_rise)
    step = min(1.0, max(c / (c + k), gbar))
    if step != gbar and no_rise(step) and evaluated(step):
        return points[step]
    if gbar in points:
        return points[gbar]
    x_next = x + gbar * d
    return x_next, fx if x_next.tobytes() == x.tobytes() else None


def momentum_step(x, z, v, k: int, c: float, problem):
    """Gradient-averaged oracle step with fraction gamma = c/(c+k).

    The running average z of gradients feeds the oracle instead of the
    instantaneous gradient; x and the oracle answer v mix with the same
    fraction, so x stays a convex combination of feasible points.
    """
    gamma = c / (c + k)
    x = np.asarray(x, dtype=float)
    y = (1.0 - gamma) * x + gamma * np.asarray(v, dtype=float)
    z_next = (1.0 - gamma) * np.asarray(z, dtype=float) + gamma * problem.objective.gradient(y)
    v_next = problem.region.lmo(z_next).dense()
    x_next = (1.0 - gamma) * x + gamma * v_next
    return x_next, z_next, v_next


def run(problem, cfg: SolverConfig) -> Trajectory:
    """Drive cfg.max_iters steps from problem.x0.

    Records one row per visited point, k = 0..max_iters. Under
    line_search the recorded f values never increase: the searched step is
    taken only when it does not raise f, otherwise the step falls back to
    the largest non-increasing fraction along the same direction.
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
            x_next, f_next = _searched_step(obj, x, d, fs[k], k, cfg.c)
        else:  # momentum
            gaps[k] = _row_gap(x, problem)
            x_next, z, v = momentum_step(x, z, v, k, cfg.c, problem)

        dx = (x_next - x).reshape(-1)
        # what np.linalg.norm computes for a 1-d float vector, without its overhead
        step_norms[k] = math.sqrt(dx.dot(dx))
        wall[k] = time.perf_counter_ns() - t0
        x = x_next

    return Trajectory(
        ks=ks, ts=ts, fs=fs, gaps=gaps, step_norms=step_norms,
        violations=violations, wall_ns=wall, delta=cfg.delta,
        f_star=problem.f_star, iterates=iterates,
    )
