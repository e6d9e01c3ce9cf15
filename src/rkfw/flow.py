"""Continuous-time references and discretization error measurement.

The schedule-driven flow x'(t) = gamma(t) (s(t) - x(t)), gamma(t) = c/(c+t),
has no general closed form. The numeric reference, for any problem, is the
Trajectory of a fine-step four-stage run. The scalar smoothed-|x| problem
also has an exact solution, huber_flow_exact, evaluated at the times
directly (it cross-checks the numeric route).
"""

import sys

import numpy as np

from .solvers import SolverConfig, Trajectory, run
from .tableau import make_tableau

__all__ = [
    "huber_flow_exact", "absorption_time", "reference_trajectory",
    "total_accumulation_error",
]


def huber_flow_exact(u0: float, c: float, t) -> float:
    """Exact flow state for the scalar smoothed-|x| problem started at u0 >= 0.

    u(t) = (u0 + 1) (c/(c+t))^c - 1, clamped at 0: the flow reaches the
    minimizer in finite time and stays (the raw formula keeps decreasing).
    Valid while the state is outside the quadratic cap, which holds for any
    cap width below u(t).
    """
    u = (u0 + 1.0) * (c / (c + np.asarray(t, dtype=float))) ** c - 1.0
    return np.maximum(u, 0.0)


def absorption_time(u0: float, c: float) -> float:
    """Time at which huber_flow_exact first hits 0."""
    return c * ((u0 + 1.0) ** (1.0 / c) - 1.0)


def reference_steps(delta_ref: float, t_end: float) -> int:
    """Steps of a reference grid of spacing delta_ref over [0, t_end].

    Raises ValueError unless delta_ref > 0 and t_end > 0 (a NaN fails) and
    the grid has at least 10 steps.
    """
    if not delta_ref > 0:
        raise ValueError("delta_ref must be positive")
    if not t_end > 0:
        raise ValueError("reference needs a run of positive time span (iters * delta > 0)")
    n_steps = int(round(t_end / delta_ref))
    if n_steps < 10:
        raise ValueError("reference needs at least 10 samples; shrink delta_ref")
    return n_steps


def _check_steps(delta, n, delta_ref, n_ref):
    """Raise ValueError unless a reference of n_ref steps of delta_ref can
    measure a trajectory of n steps of delta: its grid reaches n * delta,
    and its step is at most delta/10 or delta is a whole multiple of it, so
    that every trajectory time k * delta is a grid time. Both hold to 8 eps
    relative, in r = delta / delta_ref."""
    r, tol = delta / delta_ref, 8 * sys.float_info.epsilon
    if n * r > n_ref * (1 + tol):
        raise ValueError("reference does not cover the trajectory time span")
    if r < 10 and abs(r - max(1, round(r))) > tol * r:
        raise ValueError("reference step must be <= trajectory step / 10")


def check_reference(delta_ref: float, delta: float, iters: int) -> int:
    """reference_steps for a run of iters steps of size delta, plus the
    rule total_accumulation_error applies to the pair, decided from the
    step counts both runs would record, before either is computed."""
    n_steps = reference_steps(delta_ref, iters * delta)
    _check_steps(delta, iters, delta_ref, n_steps)
    return n_steps


def reference_trajectory(problem, c: float, delta_ref: float, t_end: float) -> Trajectory:
    """Numeric flow reference: the Trajectory of a four-stage run at step
    delta_ref over [0, t_end], every iterate recorded."""
    cfg = SolverConfig(tableau=make_tableau("rk44"), c=c, delta=delta_ref,
                       max_iters=reference_steps(delta_ref, t_end),
                       record_iterates=True)
    return run(problem, cfg)


def total_accumulation_error(traj, ref):
    """Distance between a trajectory and a flow reference, one per trajectory row.

    Both are Trajectory records with iterates, row k at time k * delta.
    Entry k of the array returned is the error at traj.ts[k], the reference
    interpolated linearly per coordinate. The pair must pass _check_steps,
    as a run against itself does.
    """
    for name, arg in (("trajectory", traj), ("reference", ref)):
        if arg.iterates is None:
            raise ValueError(f"{name} has no recorded iterates")
    _check_steps(traj.delta, len(traj.ts) - 1, ref.delta, len(ref.ts) - 1)
    states = traj.iterates.reshape(len(traj.ts), -1)
    ref_states = ref.iterates.reshape(len(ref.ts), -1)
    ref_at = np.stack([np.interp(traj.ts, ref.ts, col) for col in ref_states.T], axis=1)
    return np.linalg.norm(states - ref_at, axis=1)
