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

from .tableau import (ButcherTableau, stage_gammas, validate_schedule,
                      validate_tableau)

__all__ = [
    "SolverConfig", "Trajectory", "StageState",
    "rk_fw_step", "fw_gap", "line_search_gamma", "momentum_step", "run",
]

VARIANTS = ("plain", "line_search", "momentum")


@dataclass
class SolverConfig:
    tableau: ButcherTableau
    c: float = 2.0
    delta: float = 1.0
    max_iters: int = 100
    variant: str = "plain"
    ls_tol: float = 1e-10
    record_iterates: bool = False

    def validate(self):
        bad = validate_tableau(self.tableau)
        if bad:
            raise ValueError(f"invalid tableau: {'; '.join(bad)}")
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
class StageState:
    """Per-stage intermediates of one step, kept for diagnostics."""
    xbar: list
    atoms: list
    xi: list
    gap_at_start: float


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

    Returns (x_next, StageState). Stage i sees the point advanced by the
    tableau row, x + sum_j a[i][j] xi_j, and pulls toward its own oracle
    answer with fraction delta*c/(c + delta*(k + offset_i)). A non-finite
    stage point or step raises ArithmeticError.
    """
    t = cfg.tableau
    obj, region = problem.objective, problem.region
    x = np.asarray(x, dtype=float)
    gammas = stage_gammas(t, cfg.c, cfg.delta, k).tolist()
    xi, xbars, atoms = [], [], []
    gap0 = 0.0
    for i, gamma in enumerate(gammas):
        xb = x.copy()
        for j, aij in t.stage_terms[i]:
            xb += aij * xi[j]
        if not _all_finite(xb):
            raise ArithmeticError(f"non-finite state at stage {i}, iteration {k}")
        g = obj.gradient(xb)
        atom = region.lmo(g)
        sd = atom.dense()
        if i == 0:
            gap0 = float(np.vdot(g, xb - sd))
        xi.append(gamma * (sd - xb))
        xbars.append(xb)
        atoms.append(atom)
    x_next = x.copy()
    # a zero weight is applied too: x + 0.0 * step can turn -0.0 into +0.0
    for w, step in zip(t.weight_floats, xi):
        x_next += w * step
    if not _all_finite(x_next):
        raise ArithmeticError(f"non-finite step at iteration {k}")
    return x_next, StageState(xbars, atoms, xi, gap0)


def fw_gap(x, problem) -> float:
    """Duality gap <grad f(x), x - s> at a feasible point."""
    if problem.region.membership_violation(x) > 1e-6:
        raise ValueError("point is not feasible")
    return _row_gap(np.asarray(x, dtype=float), problem)


def _row_gap(x, problem):
    """fw_gap without the feasibility check: run records it at every
    visited point, and midpoint runs can leave the region."""
    g = problem.objective.gradient(x)
    s = problem.region.lmo(g).dense()
    return float(np.vdot(g, x - s))


def _scan_and_bisect(nonincreasing, tol):
    """Largest gamma in [0, 1] that the sign test nonincreasing(gamma)
    accepts: a 33-point grid scan brackets the last accepted grid point,
    then bisection narrows the bracket to width tol."""
    if nonincreasing(1.0):
        return 1.0
    grid = np.linspace(0.0, 1.0, 33).tolist()
    ok = [nonincreasing(gm) for gm in grid]
    idx = max(i for i in range(33) if ok[i])  # i=0 always qualifies
    if idx == 32:
        return 1.0
    lo, hi = grid[idx], grid[idx + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if nonincreasing(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _largest_nonincreasing_step(objective, x, d, fx, tol, values=None):
    """Largest gamma in [0, 1] with f(x + gamma d) <= f(x) = fx.

    Grid scan (33 points) to bracket the last sign change of
    phi(gamma) = f(x + gamma d) - f(x), then bisection to width tol.
    phi can dip and recover, so the grid guards against stopping at an
    early pocket. Always >= 0; equals 0 for ascent directions.

    An objective with along(x, d) -> (a, b, err) is quadratic along d:
    phi(gamma) = a gamma^2 + b gamma exactly, and err bounds the rounding
    of phi as value computes it. A sign test then reads the model wherever
    |model| > err, where the evaluated phi has the same sign, and calls
    value only for the tests the model cannot settle, so the search makes
    the same decisions with a handful of value calls instead of about 63.
    The step found is checked with one value call (unless it is 0); if f
    rises there, the search is redone with every test evaluated, so a wrong
    model can change the step but never lets f rise.

    `values`, when given, is a dict that receives f(x + gamma d) under
    gamma for every value call the search makes.
    """
    if values is None:
        values = {}

    def evaluated(gm):
        f = values[gm] = objective.value(x + gm * d)
        return f - fx <= 0.0

    along = getattr(objective, "along", None)
    if along is None:
        return _scan_and_bisect(evaluated, tol)
    a, b, err = along(x, d)

    def modelled(gm):
        m = gm * (a * gm + b)
        # at gm = 0 both m and phi are exactly 0: f(x + 0 d) = f(x) = fx
        return m <= 0.0 if gm == 0.0 or abs(m) > err else evaluated(gm)

    gbar = _scan_and_bisect(modelled, tol)
    if gbar == 0.0 or evaluated(gbar):
        return gbar
    return _scan_and_bisect(evaluated, tol)


def _searched_step(objective, x, d, fx, k, c, tol):
    """(step, gbar, f_gbar): gbar is the largest non-increasing step along d
    from x, where f(x) = fx; step is the larger of gbar and the open-loop
    fraction c/(c+k), clipped to [0, 1]. f_gbar is f(x + gbar d) when the
    search computed it at that very array, else None. It is never fx: at
    gbar = 0, x + 0 d can differ from x in the sign of a zero."""
    values = {}
    gbar = _largest_nonincreasing_step(objective, x, d, fx, tol, values)
    return float(min(1.0, max(c / (c + k), gbar))), gbar, values.get(gbar)


def line_search_gamma(x, d, k: int, c: float, objective, tol: float = 1e-10) -> float:
    """Searched step: max of the open-loop fraction c/(c+k) and the largest
    non-increasing step along d. Clipped to [0, 1]."""
    x = np.asarray(x, dtype=float)
    return _searched_step(objective, x, np.asarray(d, dtype=float),
                          objective.value(x), k, c, tol)[0]


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


def run(problem, cfg: SolverConfig, x0=None) -> Trajectory:
    """Drive cfg.max_iters steps from x0 (problem.x0 when omitted).

    Records one row per visited point, k = 0..max_iters. Under
    line_search the recorded f values never increase: the searched step is
    taken only when it does not raise f, otherwise the step falls back to
    the largest non-increasing fraction along the same direction.
    """
    cfg.validate()
    x = np.array(problem.x0 if x0 is None else x0, dtype=float)
    if problem.region.membership_violation(x) > 1e-9:
        raise ValueError("x0 is not feasible")

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
            x_next, st = rk_fw_step(x, k, cfg, problem)
            gaps[k] = st.gap_at_start
        elif cfg.variant == "line_search":
            x_plain, st = rk_fw_step(x, k, cfg, problem)
            gaps[k] = st.gap_at_start
            gamma_k = cfg.delta * cfg.c / (cfg.c + cfg.delta * k)
            d = (x_plain - x) / gamma_k
            step, gbar, f_next = _searched_step(obj, x, d, fs[k], k, cfg.c, cfg.ls_tol)
            x_next = x + step * d
            if step != gbar:
                f_step = obj.value(x_next)
                if f_step > fs[k]:
                    # monotone fallback: the search checked f(x + gbar d) <= f(x)
                    x_next = x + gbar * d
                else:
                    f_next = f_step
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
