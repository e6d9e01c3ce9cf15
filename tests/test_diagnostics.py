import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rkfw.diagnostics import (decrease_bound_check, decrease_bound_d4,
                              fit_rate_slope, sup_envelope_all, zigzag_energy)
from rkfw.problems import make_triangle
from rkfw.solvers import SolverConfig, run
from rkfw.tableau import ButcherTableau, make_tableau, stage_gammas

STAIR = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]


def test_zigzag_hand_example():
    # W=3 block over the staircase: dbar=(3,1); the two interior steps
    # (1,-1) and (1,1) keep sqrt(8/10) and sqrt(8/10) after projection
    rep = zigzag_energy(STAIR, window=3)
    assert rep.mean_energy == pytest.approx(0.9486832980505138, abs=1e-12)
    assert len(rep.block_energies) == 1


def test_zigzag_collinear_is_zero():
    pts = [(float(k), 2.0 * k) for k in range(9)]
    rep = zigzag_energy(pts, window=4)
    assert rep.mean_energy == pytest.approx(0.0, abs=1e-12)


def test_zigzag_stationary_is_zero():
    rep = zigzag_energy([(1.0, 1.0)] * 7, window=3)
    assert rep.mean_energy == 0.0


def test_zigzag_degenerate_block_keeps_raw_steps():
    # closed loop: net displacement 0, steps kept unprojected
    loop = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    rep = zigzag_energy(loop, window=4)
    assert rep.mean_energy == pytest.approx(1.0)


def test_zigzag_blocks_are_disjoint_and_partial_dropped():
    pts = [(float(k), float(k % 2)) for k in range(12)]  # 11 steps
    rep = zigzag_energy(pts, window=5)
    assert len(rep.block_energies) == 2  # steps 0-5, 5-10; trailing 1 dropped


def test_zigzag_validation():
    with pytest.raises(ValueError, match="window"):
        zigzag_energy(STAIR, window=1)
    with pytest.raises(ValueError, match="need at least"):
        zigzag_energy(STAIR, window=4)


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=7, max_size=12),
       st.floats(-3, 3), st.floats(-3, 3))
def test_zigzag_translation_invariant(pts, dx, dy):
    base = zigzag_energy(pts, window=3).mean_energy
    moved = zigzag_energy([(x + dx, y + dy) for x, y in pts], window=3).mean_energy
    assert moved == pytest.approx(base, abs=1e-9)


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=7, max_size=12),
       st.floats(0.1, 4.0))
def test_zigzag_scales_linearly(pts, s):
    base = zigzag_energy(pts, window=3).mean_energy
    scaled = zigzag_energy([(s * x, s * y) for x, y in pts], window=3).mean_energy
    assert scaled == pytest.approx(s * base, rel=1e-9, abs=1e-9)


def test_zigzag_window_two_single_interior_step():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    rep = zigzag_energy(pts, window=2)
    # dbar=(2,0), step (1,-1) projects to (0,-1): energy 1
    assert rep.block_energies[0] == pytest.approx(1.0)


def test_zigzag_list_and_stacked_array_agree_bitwise():
    # a run's record (one array, a row per k) and the same rows as a list of
    # separate matrices must give the same energies to the last bit
    rng = np.random.default_rng(11)
    rows = np.cumsum(rng.standard_normal((61, 4, 3)), axis=0)
    for w in (2, 5, 20):
        a = zigzag_energy([r.copy() for r in rows], w)
        b = zigzag_energy(rows, w)
        assert np.array_equal(a.block_energies, b.block_energies)
        assert a.mean_energy == b.mean_energy


def test_zigzag_csv():
    buf = io.StringIO()
    zigzag_energy(STAIR, window=3).write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "block_start_k,energy"
    assert lines[1].startswith("0,0.9486832980505138")
    assert lines[-1].startswith("# mean,")


def test_sup_envelope_frozen():
    series = [1.0, 0.5, 0.7, 0.2]
    env = sup_envelope_all(series)
    assert env[1] == pytest.approx(0.7)
    assert env[0] == pytest.approx(1.0)
    assert env[3] == pytest.approx(0.2)
    with pytest.raises(IndexError):
        env[4]


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30))
def test_sup_envelope_all_matches_naive(series):
    env = sup_envelope_all(series)
    naive = [max(abs(v) for v in series[k:]) for k in range(len(series))]
    assert env == pytest.approx(naive, abs=1e-12)
    assert np.all(np.diff(env) <= 0.0 + 1e-15)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_fit_rate_slope_exact_power_laws(r):
    ks = np.arange(0, 200)
    vals = np.empty(200)
    vals[0] = np.nan  # k=0 never enters the fit window
    vals[1:] = 3.0 * ks[1:] ** (-r)
    assert fit_rate_slope(vals, 1, 199) == pytest.approx(-r, abs=1e-10)


def test_fit_rate_slope_errors():
    vals = [1.0, 0.5, 0.0, 0.25]
    with pytest.raises(ValueError, match="nonpositive value at k=2"):
        fit_rate_slope(vals, 1, 3)
    with pytest.raises(ValueError, match="k_min"):
        fit_rate_slope(vals, 0, 3)
    with pytest.raises(ValueError, match="k_min"):
        fit_rate_slope(vals, 2, 2)


def d4_formula(q, p_max, a_max, l, l2, d):
    """d4 from its documented composition, step by step."""
    c1, c2 = q * p_max, q * a_max
    d2, d3 = c1 * d, c2 * c1 * d
    return (l * d2 ** 2 + 2 * l * d2 * d3 + 2 * l2 * d3) / 2


def test_decrease_bound_d4_composition():
    # A = [[0, 0], [1, 0]] with both stages at gamma(1) = 2/3: the mixing
    # matrix is [[2/3, -4/9], [0, 2/3]], whose larger column norm is sqrt(52)/9
    t = ButcherTableau("two", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 0.0])
    d4 = decrease_bound_d4(t, c=2.0, l=1.0, l2=2.0, d=2.0)
    assert d4 == pytest.approx(d4_formula(2, np.sqrt(52) / 9, 1.0, 1.0, 2.0, 2.0),
                               rel=1e-15)


def test_decrease_bound_d4_euler_pmax_is_first_gamma():
    # one stage: P reduces to the scalar gamma(1) = 2/3, and a_max = 0
    d4 = decrease_bound_d4(make_tableau("euler"), c=2.0, l=1.0, l2=0.0, d=2.0)
    assert d4 == pytest.approx(d4_formula(1, 2.0 / 3.0, 0.0, 1.0, 0.0, 2.0))
    assert d4 == pytest.approx(8.0 / 9.0)


def test_decrease_bound_d4_matches_dense_solve():
    t = make_tableau("rk44")
    g = np.diag(stage_gammas(t, 2.0, 1.0, 1))
    dense = g @ np.linalg.inv(np.eye(4) + t.a.T @ g)
    p_max = np.linalg.norm(dense, axis=0).max()
    d4 = decrease_bound_d4(t, c=2.0, l=1.0, l2=2.0, d=2.0)
    assert d4 == pytest.approx(d4_formula(4, p_max, 1.0, 1.0, 2.0, 2.0), rel=1e-12)
    assert d4 == 170.66666666666666


def test_decrease_bound_clean_run_has_no_violations():
    p = make_triangle()
    traj = run(p, SolverConfig(tableau=make_tableau("rk44"), max_iters=300))
    d4 = decrease_bound_d4(make_tableau("rk44"), c=2.0, l=1.0, l2=2.0, d=2.0)
    assert decrease_bound_check(traj, d4, c=2.0) == []


def test_decrease_bound_flags_stalled_series():
    # a synthetic plateau violates the required geometric decrease
    p = make_triangle()
    traj = run(p, SolverConfig(tableau=make_tableau("rk44"), max_iters=6))
    traj.fs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    d4 = 0.5  # l = 1, d2 = 1, d3 = 0
    bad = decrease_bound_check(traj, d4, c=2.0)
    assert bad == [1, 2, 3, 4, 5]


def test_decrease_bound_needs_optimum():
    p = make_triangle()
    traj = run(p, SolverConfig(tableau=make_tableau("euler"), max_iters=4))
    traj.f_star = None
    d4 = 0.5  # l = 1, d2 = 1, d3 = 0
    with pytest.raises(ValueError, match="optimum"):
        decrease_bound_check(traj, d4, c=2.0)


def test_decrease_bound_length_two_trajectory():
    p = make_triangle()
    traj = run(p, SolverConfig(tableau=make_tableau("euler"), max_iters=1))
    d4 = 0.5  # l = 1, d2 = 1, d3 = 0
    assert decrease_bound_check(traj, d4, c=2.0) == []
