import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkfw.flow import (FlowReference, absorption_time, check_reference,
                       closed_form_reference, flow_bound, huber_flow_exact,
                       reference_trajectory, total_accumulation_error)
from rkfw.problems import make_scalar_huber, make_triangle
from rkfw.solvers import SolverConfig, run
from rkfw.tableau import make_tableau


def test_flow_bound_frozen():
    assert flow_bound(2.0, 0.0) == 1.0
    assert flow_bound(1.0, 1.0) == pytest.approx(0.5)
    assert flow_bound(2.0, 8.0) == pytest.approx(0.04)


@pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
def test_flow_bound_improves_with_c_for_large_t(c):
    for t in (10.0, 50.0, 200.0):
        assert flow_bound(c + 1.0, t) < flow_bound(c, t)


def test_huber_flow_exact_frozen():
    assert huber_flow_exact(1.0, 2.0, 0.0) == pytest.approx(1.0, abs=0)
    # u0=1, c=1: u(1) = 2*(1/2) - 1 = 0 exactly
    assert huber_flow_exact(1.0, 1.0, 1.0) == 0.0
    # clamp after absorption
    assert huber_flow_exact(1.0, 2.0, 100.0) == 0.0


def test_absorption_time():
    t_abs = absorption_time(1.0, 2.0)
    assert t_abs == pytest.approx(2.0 * (np.sqrt(2.0) - 1.0))
    assert huber_flow_exact(1.0, 2.0, t_abs) == pytest.approx(0.0, abs=1e-14)
    assert huber_flow_exact(1.0, 2.0, t_abs - 0.01) > 0.0


def test_exact_flow_satisfies_ode():
    # before absorption: u' = -gamma(t) (u + 1), gamma = c/(c+t)
    c, u0, h = 2.0, 1.0, 1e-5
    for t in np.linspace(0.01, 0.80, 100):
        du = (huber_flow_exact(u0, c, t + h) - huber_flow_exact(u0, c, t - h)) / (2 * h)
        rhs = -(c / (c + t)) * (huber_flow_exact(u0, c, t) + 1.0)
        assert abs(du - rhs) < 1e-6


def test_numeric_reference_matches_closed_form():
    p = make_scalar_huber(0.01)
    num = reference_trajectory(p, c=2.0, delta_ref=0.002, t_end=0.8)
    exact = huber_flow_exact(1.0, 2.0, num.times)
    assert np.max(np.abs(num.states[:, 0] - exact)) < 1e-3


def test_closed_form_reference_interpolation():
    ref = closed_form_reference(1.0, 2.0, 0.001, 0.8)
    ts = np.array([0.1234, 0.4567, 0.777])
    got = ref.interpolate(ts)[:, 0]
    assert got == pytest.approx(huber_flow_exact(1.0, 2.0, ts), abs=1e-5)


def test_reference_needs_enough_samples():
    with pytest.raises(ValueError, match="at least 10 samples"):
        reference_trajectory(make_scalar_huber(0.1), 2.0, 0.2, 1.0)
    with pytest.raises(ValueError, match="at least 10 samples"):
        closed_form_reference(1.0, 2.0, 0.5, 1.0)


@pytest.mark.parametrize("delta_ref", [-1.0, 0.0, float("nan")])
def test_reference_rejects_nonpositive_step(delta_ref):
    with pytest.raises(ValueError, match="delta_ref must be positive"):
        reference_trajectory(make_scalar_huber(0.1), 2.0, delta_ref, 1.0)
    with pytest.raises(ValueError, match="delta_ref must be positive"):
        closed_form_reference(1.0, 2.0, delta_ref, 1.0)


def test_reference_objective_decreases_on_triangle():
    p = make_triangle()
    ref = reference_trajectory(p, c=2.0, delta_ref=0.01, t_end=2.0)
    vals = np.array([p.objective.value(s) for s in ref.states])
    # monotone up to discretization error: near the optimum the vertex
    # oracle flips direction and the finite step wiggles at the 1e-6 scale
    assert np.all(np.diff(vals) <= 1e-5)
    assert vals[-1] < 0.01 * vals[0]


def test_flow_reference_validates_times():
    with pytest.raises(ValueError, match="strictly increasing"):
        FlowReference(0.1, np.array([0.0, 0.1, 0.1]), np.zeros((3, 1)))


def test_interpolate_rejects_out_of_span():
    ref = closed_form_reference(1.0, 2.0, 0.01, 0.5)
    with pytest.raises(ValueError, match="outside the reference span"):
        ref.interpolate(np.array([0.9]))


def test_tae_self_comparison_is_zero():
    p = make_triangle()
    cfg = SolverConfig(tableau=make_tableau("rk44"), c=2.0, delta=0.1,
                       max_iters=20, record_iterates=True)
    traj = run(p, cfg)
    ref = reference_trajectory(p, c=2.0, delta_ref=0.1, t_end=2.0)
    errs = np.array([e for _, e in total_accumulation_error(traj, ref)])
    assert np.max(errs) == 0.0


def test_tae_requires_fine_reference_or_shared_grid():
    p = make_triangle()
    cfg = SolverConfig(tableau=make_tableau("euler"), c=2.0, delta=0.1,
                       max_iters=10, record_iterates=True)
    traj = run(p, cfg)
    ref = reference_trajectory(p, c=2.0, delta_ref=0.03, t_end=1.2)
    with pytest.raises(ValueError, match="trajectory step / 10"):
        total_accumulation_error(traj, ref)


def test_tae_requires_span_coverage():
    p = make_triangle()
    cfg = SolverConfig(tableau=make_tableau("euler"), c=2.0, delta=0.1,
                       max_iters=20, record_iterates=True)
    traj = run(p, cfg)
    ref = reference_trajectory(p, c=2.0, delta_ref=0.001, t_end=1.0)
    with pytest.raises(ValueError, match="cover"):
        total_accumulation_error(traj, ref)


def test_tae_requires_iterates():
    p = make_triangle()
    traj = run(p, SolverConfig(tableau=make_tableau("euler"), delta=0.1,
                               max_iters=10))
    ref = reference_trajectory(p, c=2.0, delta_ref=0.001, t_end=1.0)
    with pytest.raises(ValueError, match="iterates"):
        total_accumulation_error(traj, ref)


def test_tae_decreases_with_delta_on_scalar():
    p = make_scalar_huber(0.01)
    ref = closed_form_reference(1.0, 2.0, 0.0005, 0.8)
    worst = {}
    for delta in (0.1, 0.05):
        cfg = SolverConfig(tableau=make_tableau("euler"), c=2.0, delta=delta,
                           max_iters=int(round(0.8 / delta)),
                           record_iterates=True)
        traj = run(p, cfg)
        errs = [e for _, e in total_accumulation_error(traj, ref)]
        worst[delta] = max(errs)
    assert worst[0.05] < worst[0.1]


def _raised(fn):
    """The message of the ValueError fn raises, or None."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def test_reference_times_are_the_closed_form_grid():
    numeric = reference_trajectory(make_scalar_huber(0.1), 2.0, 0.03, 1.2)
    exact = closed_form_reference(1.0, 2.0, 0.03, 1.2)
    assert numeric.times.tobytes() == exact.times.tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.0]),
       st.one_of(st.floats(0.0005, 3.0),
                 st.sampled_from([0.3, 0.1905, 0.1, 0.03, 0.01, 1 / 3, 0.5])))
def test_check_reference_decides_as_the_measurement_does(iters, delta, delta_ref):
    # the same verdict and message, reached before anything is run
    p = make_scalar_huber(0.1)
    cfg = SolverConfig(tableau=make_tableau("euler"), delta=delta,
                       max_iters=iters, record_iterates=True)

    def measure():
        ref = closed_form_reference(1.0, 2.0, delta_ref, iters * delta)
        total_accumulation_error(run(p, cfg), ref)

    assert _raised(lambda: check_reference(delta_ref, delta, iters)) == _raised(measure)


@pytest.mark.parametrize("delta,iters,delta_ref,message", [
    (1.0, 100, 0.3, "reference does not cover the trajectory time span"),
    (1.0, 20, 0.1905, "reference step must be <= trajectory step / 10"),
    (1.0, 20, 0.3, "reference step must be <= trajectory step / 10"),
    (1.0, 20, 0.2, None),       # every trajectory time on the grid
    (0.1, 20, 0.1, None),       # same grid: a run against itself
    (1.0, 20, 0.1, None),
])
def test_check_reference_cases(delta, iters, delta_ref, message):
    assert _raised(lambda: check_reference(delta_ref, delta, iters)) == message
