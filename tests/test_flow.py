import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkfw.flow import (_check_steps, absorption_time, check_reference, huber_flow_exact,
                       reference_steps, reference_trajectory, total_accumulation_error)
from rkfw.problems import make_scalar_huber, make_triangle
from rkfw.solvers import SolverConfig, Trajectory, run
from rkfw.tableau import make_tableau


def _record(delta, iterates):
    """A Trajectory of the given iterates, row k at t = k * delta as run records it."""
    ks = np.arange(len(iterates))
    zeros = np.zeros(len(ks))
    return Trajectory(ks=ks, ts=ks * delta, fs=zeros, gaps=zeros, step_norms=zeros,
                      violations=zeros, wall_ns=ks, delta=delta, iterates=iterates)


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
    exact = huber_flow_exact(1.0, 2.0, num.ts)
    assert np.max(np.abs(num.iterates[:, 0] - exact)) < 1e-3


def test_tae_interpolates_between_reference_samples():
    # a reference affine in t is reproduced exactly by linear interpolation,
    # at trajectory times that fall between its samples
    delta, iters, delta_ref = 0.1, 20, 0.0029
    ref_ts = np.arange(reference_steps(delta_ref, iters * delta) + 1) * delta_ref
    a, b = np.array([0.3, -0.2]), np.array([0.5, 1.5])
    ref = _record(delta_ref, a + ref_ts[:, None] * b)
    traj = _record(delta, np.random.default_rng(0).normal(size=(iters + 1, 2)))
    assert not np.isin(traj.ts[1:], ref.ts).any()
    got = total_accumulation_error(traj, ref)
    want = np.linalg.norm(traj.iterates - (a + traj.ts[:, None] * b), axis=1)
    assert isinstance(got, np.ndarray) and got.shape == traj.ts.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_reference_needs_enough_samples():
    with pytest.raises(ValueError, match="at least 10 samples"):
        reference_trajectory(make_scalar_huber(0.1), 2.0, 0.2, 1.0)


@pytest.mark.parametrize("delta_ref", [-1.0, 0.0, float("nan")])
def test_reference_rejects_nonpositive_step(delta_ref):
    with pytest.raises(ValueError, match="delta_ref must be positive"):
        reference_trajectory(make_scalar_huber(0.1), 2.0, delta_ref, 1.0)


def test_reference_objective_decreases_on_triangle():
    p = make_triangle()
    ref = reference_trajectory(p, c=2.0, delta_ref=0.01, t_end=2.0)
    vals = np.array([p.objective.value(s) for s in ref.iterates])
    # monotone up to discretization error: near the optimum the vertex
    # oracle flips direction and the finite step wiggles at the 1e-6 scale
    assert np.all(np.diff(vals) <= 1e-5)
    assert vals[-1] < 0.01 * vals[0]


def test_tae_self_comparison_is_zero():
    p = make_triangle()
    cfg = SolverConfig(tableau=make_tableau("rk44"), c=2.0, delta=0.1,
                       max_iters=20, record_iterates=True)
    traj = run(p, cfg)
    ref = reference_trajectory(p, c=2.0, delta_ref=0.1, t_end=2.0)
    assert np.max(total_accumulation_error(traj, ref)) == 0.0


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
    with pytest.raises(ValueError, match="^trajectory has no recorded iterates$"):
        total_accumulation_error(traj, ref)
    with pytest.raises(ValueError, match="^reference has no recorded iterates$"):
        total_accumulation_error(ref, traj)


def test_tae_decreases_with_delta_on_scalar():
    p = make_scalar_huber(0.01)
    ref = reference_trajectory(p, c=2.0, delta_ref=0.0005, t_end=0.8)
    worst = {}
    for delta in (0.1, 0.05):
        cfg = SolverConfig(tableau=make_tableau("euler"), c=2.0, delta=delta,
                           max_iters=int(round(0.8 / delta)),
                           record_iterates=True)
        traj = run(p, cfg)
        worst[delta] = total_accumulation_error(traj, ref).max()
    assert worst[0.05] < worst[0.1]


def _raised(fn):
    """The message of the ValueError fn raises, or None."""
    try:
        fn()
    except ValueError as exc:
        return str(exc)
    return None


def test_reference_times_are_the_checked_grid():
    # the grid check_reference decides on is the one the reference run records
    delta_ref, delta, iters = 0.03, 0.3, 4
    n = check_reference(delta_ref, delta, iters)
    ref = reference_trajectory(make_scalar_huber(0.1), 2.0, delta_ref, iters * delta)
    assert ref.ts.tobytes() == (np.arange(n + 1) * delta_ref).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.0]),
       st.one_of(st.floats(0.0005, 3.0),
                 st.sampled_from([0.3, 0.1905, 0.1, 0.03, 0.01, 1 / 3, 0.5,
                                  0.3333334, 0.5000001])))
def test_check_reference_decides_as_the_measurement_does(iters, delta, delta_ref):
    # the same verdict and message, reached before anything is run
    p = make_scalar_huber(0.1)
    cfg = SolverConfig(tableau=make_tableau("euler"), delta=delta,
                       max_iters=iters, record_iterates=True)

    def measure():
        # the exact flow on the grid reference_trajectory would record
        times = np.arange(reference_steps(delta_ref, iters * delta) + 1) * delta_ref
        ref = _record(delta_ref, huber_flow_exact(1.0, 2.0, times)[:, None])
        total_accumulation_error(run(p, cfg), ref)

    assert _raised(lambda: check_reference(delta_ref, delta, iters)) == _raised(measure)


@pytest.mark.parametrize("delta,iters,delta_ref,message", [
    (1.0, 100, 0.3, "reference does not cover the trajectory time span"),
    (1.0, 20, 0.1905, "reference step must be <= trajectory step / 10"),
    (1.0, 20, 0.3, "reference step must be <= trajectory step / 10"),
    # 3x and 2x finer grids whose times miss t = 1 by 2e-7
    (1.0, 20, 0.3333334, "reference step must be <= trajectory step / 10"),
    (1.0, 20, 0.5000001, "reference step must be <= trajectory step / 10"),
    (1.0, 20, 0.2, None),       # every trajectory time on the grid
    (0.3, 20, 0.1, None),       # 0.3 / 0.1 reads 2.9999999999999996
    (0.1, 20, 0.1, None),       # same grid: a run against itself
    (1.0, 20, 0.1, None),
    # 300000 steps of 0.09999999999999999 reach 29999.999999999996, one ulp
    # short of 100000 * 0.3: a whole ratio covers the run to 8 eps relative
    (0.3, 100000, 0.3 / 3, None),
    (0.3, 100000, 0.3 / 6, None),
    # 100x coarser, at a scale where an absolute slack of 1e-15 is all slack
    (1e-18, 100000, 1e-16, "reference step must be <= trajectory step / 10"),
])
def test_check_reference_cases(delta, iters, delta_ref, message):
    assert _raised(lambda: check_reference(delta_ref, delta, iters)) == message


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.0]),
       st.one_of(st.integers(1, 9).map(Fraction), st.fractions(1, 9, max_denominator=9)),
       st.sampled_from([0.0, 1e-7, -1e-7]))
def test_step_rule_matches_exact_ratios(delta, ratio, shift):
    # delta_ref is delta / ratio, moved by shift relative: below 10x finer, a
    # reference holds every trajectory time k * delta exactly when the ratio
    # is a whole number and nothing moved it
    delta_ref = delta / float(ratio) * (1 + shift)
    want = None if ratio.denominator == 1 and shift == 0 else \
        "reference step must be <= trajectory step / 10"
    # one trajectory step, and the fewest reference steps that reach it
    n_ref = math.ceil(delta / delta_ref)
    assert _raised(lambda: _check_steps(delta, 1, delta_ref, n_ref)) == want


@settings(max_examples=2000, deadline=None)
@given(st.integers(1, 9), st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.0]),
       st.integers(1, 100000))
@example(3, 0.3, 63249)  # an absolute coverage slack of 1e-12 refused it
def test_whole_ratio_reference_covers_a_long_run(m, delta, iters):
    # a grid of delta / m holds the run's own times at any length; it runs
    # nothing, so many cases are cheap
    assume(iters * m >= 10)
    assert check_reference(delta / m, delta, iters) == iters * m


def test_on_grid_check_of_a_long_run_stays_small():
    # the check reads two steps and two spans: nothing it allocates grows
    # with the run or with the reference
    tracemalloc.start()
    try:
        assert check_reference(0.1, 0.1, 4000) == 4000
        assert check_reference(0.1, 1.0, 100000) == 1000000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
