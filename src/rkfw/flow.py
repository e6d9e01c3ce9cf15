"""Continuous-time references and discretization error measurement.

The schedule-driven flow x'(t) = gamma(t) (s(t) - x(t)), gamma(t) = c/(c+t),
has no general closed form, so references are built two ways: a fine-step
four-stage run (numeric, any problem) and the exact solution available for
the scalar smoothed-|x| problem (cross-checks the numeric route).
"""

from dataclasses import dataclass

import numpy as np

from .solvers import SolverConfig, run
from .tableau import make_tableau

__all__ = [
    "flow_bound", "huber_flow_exact", "absorption_time", "FlowReference",
    "reference_steps", "check_reference", "reference_trajectory",
    "closed_form_reference", "total_accumulation_error",
]


def flow_bound(c: float, t: float) -> float:
    """Normalized objective-error bound (c/(c+t))^c for the flow."""
    return (c / (c + t)) ** c


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


@dataclass
class FlowReference:
    delta_ref: float
    times: np.ndarray
    states: np.ndarray  # one row per sample

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")

    def interpolate(self, t):
        """Linear interpolation per coordinate at times t (within range)."""
        t = np.asarray(t, dtype=float)
        if t.min() < self.times[0] - 1e-12 or t.max() > self.times[-1] + 1e-12:
            raise ValueError("query times outside the reference span")
        cols = [np.interp(t, self.times, self.states[:, d])
                for d in range(self.states.shape[1])]
        return np.stack(cols, axis=1)


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


def _check_grid(times, delta, ref_times, delta_ref):
    """Raise ValueError unless a reference sampled at ref_times, step
    delta_ref, can measure a trajectory sampled at times, step delta."""
    if times[-1] > ref_times[-1] + 1e-12:
        raise ValueError("reference does not cover the trajectory time span")
    if delta_ref > delta / 10 + 1e-15:
        # np.isclose(t, r) tests |t - r| <= atol + rtol r, which for r >= 0
        # only gets harder as r moves away from t: of the sorted ref_times,
        # the nearest one on each side of t is the best candidate there
        above = np.searchsorted(ref_times, times)
        below = ref_times[np.maximum(above - 1, 0)]
        above = ref_times[np.minimum(above, len(ref_times) - 1)]
        on_grid = np.all(np.isclose(times, below, atol=1e-12)
                         | np.isclose(times, above, atol=1e-12))
        if not on_grid:
            raise ValueError("reference step must be <= trajectory step / 10")


def check_reference(delta_ref: float, delta: float, iters: int) -> int:
    """reference_steps for a run of iters steps of size delta, plus the
    rules total_accumulation_error applies to the pair, decided before
    either is computed: the times are the ones run records for both."""
    n_steps = reference_steps(delta_ref, iters * delta)
    _check_grid(np.arange(iters + 1) * delta, delta,
                np.arange(n_steps + 1) * delta_ref, delta_ref)
    return n_steps


def reference_trajectory(problem, c: float, delta_ref: float, t_end: float) -> FlowReference:
    """Numeric flow reference: four-stage run at a fine step, every sample kept."""
    n_steps = reference_steps(delta_ref, t_end)
    cfg = SolverConfig(tableau=make_tableau("rk44"), c=c, delta=delta_ref,
                       max_iters=n_steps, record_iterates=True)
    traj = run(problem, cfg)
    return FlowReference(delta_ref, traj.ts, traj.iterates.reshape(n_steps + 1, -1))


def closed_form_reference(u0: float, c: float, delta_ref: float, t_end: float) -> FlowReference:
    """Exact scalar reference sampled on a uniform grid."""
    n_steps = reference_steps(delta_ref, t_end)
    times = np.arange(n_steps + 1) * delta_ref
    states = huber_flow_exact(u0, c, times).reshape(-1, 1)
    return FlowReference(delta_ref, times, states)


def total_accumulation_error(traj, ref: FlowReference):
    """Per-sample distance between a trajectory and the flow reference.

    Returns a list of (t, error) at every trajectory sample time. The
    reference must be at least 10x finer than the trajectory step, unless
    its sample grid already contains every trajectory time exactly (which
    covers comparing a run against itself).
    """
    if traj.iterates is None:
        raise ValueError("trajectory has no recorded iterates")
    times = traj.ts
    _check_grid(times, traj.delta, ref.times, ref.delta_ref)
    states = traj.iterates.reshape(len(times), -1)
    ref_states = ref.interpolate(times)
    errs = np.linalg.norm(states - ref_states, axis=1)
    return list(zip(times.tolist(), errs.tolist()))
