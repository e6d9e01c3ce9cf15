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

    Raises ValueError unless delta_ref > 0 (a NaN fails) and the grid has
    at least 10 steps.
    """
    if not delta_ref > 0:
        raise ValueError("delta_ref must be positive")
    n_steps = int(round(t_end / delta_ref))
    if n_steps < 10:
        raise ValueError("reference needs at least 10 samples; shrink delta_ref")
    return n_steps


def _check_steps(delta, span, delta_ref, ref_span):
    """Raise ValueError unless a reference of step delta_ref over [0, ref_span]
    can measure a trajectory of step delta over [0, span]: its step is at
    most delta/10, or delta is a whole multiple of it to 8 eps relative, so
    that every trajectory time k * delta is a reference grid time."""
    if span > ref_span + 1e-12:
        raise ValueError("reference does not cover the trajectory time span")
    r = delta / delta_ref
    if delta_ref > delta / 10 + 1e-15 and \
            abs(r - max(1, round(r))) > 8 * sys.float_info.epsilon * r:
        raise ValueError("reference step must be <= trajectory step / 10")


def check_reference(delta_ref: float, delta: float, iters: int) -> int:
    """reference_steps for a run of iters steps of size delta, plus the
    rules total_accumulation_error applies to the pair, decided before
    either is computed: the spans are the last times run records for both."""
    n_steps = reference_steps(delta_ref, iters * delta)
    _check_steps(delta, iters * delta, delta_ref, n_steps * delta_ref)
    return n_steps


def reference_trajectory(problem, c: float, delta_ref: float, t_end: float) -> Trajectory:
    """Numeric flow reference: the Trajectory of a four-stage run at step
    delta_ref over [0, t_end], every iterate recorded."""
    cfg = SolverConfig(tableau=make_tableau("rk44"), c=c, delta=delta_ref,
                       max_iters=reference_steps(delta_ref, t_end),
                       record_iterates=True)
    return run(problem, cfg)


def total_accumulation_error(traj, ref):
    """Per-sample distance between a trajectory and a flow reference.

    Both are Trajectory records with iterates. Returns a list of (t, error)
    at every trajectory sample time, the reference interpolated linearly per
    coordinate. The reference step must be at most the trajectory step / 10,
    or the trajectory step a whole multiple of it to 8 eps relative, so that
    its grid holds every trajectory time (which covers comparing a run
    against itself).
    """
    for name, arg in (("trajectory", traj), ("reference", ref)):
        if arg.iterates is None:
            raise ValueError(f"{name} has no recorded iterates")
    times = traj.ts
    _check_steps(traj.delta, times[-1], ref.delta, ref.ts[-1])
    states = traj.iterates.reshape(len(times), -1)
    ref_states = ref.iterates.reshape(len(ref.ts), -1)
    ref_at = np.stack([np.interp(times, ref.ts, col) for col in ref_states.T], axis=1)
    errs = np.linalg.norm(states - ref_at, axis=1)
    return list(zip(times.tolist(), errs.tolist()))
