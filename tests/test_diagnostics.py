import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkfw import diagnostics
from rkfw.diagnostics import (ZigzagWindow, decrease_bound_check, decrease_bound_d4,
                              fit_rate_slope, sup_envelope_all, zigzag_energy)
from rkfw.harness import zigzag_csv
from rkfw.problems import make_matrix_completion, make_sensing, make_triangle
from rkfw.solvers import SolverConfig, run
from rkfw.tableau import ButcherTableau, make_tableau, stage_gammas

STAIR = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]


def test_zigzag_hand_example():
    # W=3 block over the staircase: dbar=(3,1); the two interior steps
    # (1,-1) and (1,1) keep sqrt(8/10) and sqrt(8/10) after projection
    energies = zigzag_energy(STAIR, window=3)
    assert energies.mean() == pytest.approx(0.9486832980505138, abs=1e-12)
    assert len(energies) == 1


def test_zigzag_collinear_is_zero():
    pts = [(float(k), 2.0 * k) for k in range(9)]
    assert zigzag_energy(pts, window=4).mean() == pytest.approx(0.0, abs=1e-12)


def test_zigzag_stationary_is_zero():
    assert zigzag_energy([(1.0, 1.0)] * 7, window=3).mean() == 0.0


def test_zigzag_degenerate_block_keeps_raw_steps():
    # closed loop: net displacement 0, steps kept unprojected
    loop = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    assert zigzag_energy(loop, window=4).mean() == pytest.approx(1.0)


def test_zigzag_blocks_are_disjoint_and_partial_dropped():
    pts = [(float(k), float(k % 2)) for k in range(12)]  # 11 steps
    assert len(zigzag_energy(pts, window=5)) == 2  # steps 0-5, 5-10; trailing 1 dropped


def test_zigzag_validation():
    with pytest.raises(ValueError, match="window"):
        zigzag_energy(STAIR, window=1)
    with pytest.raises(ValueError, match="window must be >= 2"):
        ZigzagWindow(1)
    with pytest.raises(ValueError, match="need at least"):
        zigzag_energy(STAIR, window=4)


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=7, max_size=12),
       st.floats(-3, 3), st.floats(-3, 3))
def test_zigzag_translation_invariant(pts, dx, dy):
    base = zigzag_energy(pts, window=3).mean()
    moved = zigzag_energy([(x + dx, y + dy) for x, y in pts], window=3).mean()
    assert moved == pytest.approx(base, abs=1e-9)


@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                min_size=7, max_size=12),
       st.floats(0.1, 4.0))
def test_zigzag_scales_linearly(pts, s):
    base = zigzag_energy(pts, window=3).mean()
    scaled = zigzag_energy([(s * x, s * y) for x, y in pts], window=3).mean()
    assert scaled == pytest.approx(s * base, rel=1e-9, abs=1e-9)


def test_zigzag_window_two_single_interior_step():
    pts = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    energies = zigzag_energy(pts, window=2)
    # dbar=(2,0), step (1,-1) projects to (0,-1): energy 1
    assert energies[0] == pytest.approx(1.0)


def test_zigzag_list_and_stacked_array_agree_bitwise():
    # a run's record (one array, a row per k) and the same rows as a list of
    # separate matrices must give the same energies to the last bit
    rng = np.random.default_rng(11)
    rows = np.cumsum(rng.standard_normal((61, 4, 3)), axis=0)
    for w in (2, 5, 20):
        a = zigzag_energy([r.copy() for r in rows], w)
        b = zigzag_energy(rows, w)
        assert np.array_equal(a, b)
        assert a.mean() == b.mean()


def stepwise_zigzag(iterates, window: int) -> np.ndarray:
    """zigzag_energy as a loop over blocks and steps, one product per pair;
    the batched version must reproduce it byte for byte."""
    if window < 2:
        raise ValueError("window must be >= 2")
    pts = np.asarray(iterates, dtype=float)
    if len(pts) < window + 1:
        raise ValueError(f"need at least {window + 1} iterates, got {len(pts)}")
    pts = pts.reshape(len(pts), -1)
    n_steps = len(pts) - 1
    energies = []
    for k0 in range(0, n_steps - window + 1, window):
        dbar = pts[k0 + window] - pts[k0]
        nrm2 = float(dbar @ dbar)
        degenerate = np.sqrt(nrm2) < 1e-14
        total = 0.0
        for i in range(k0 + 1, k0 + window):
            d = pts[i + 1] - pts[i]
            if degenerate:
                resid = d
            else:
                # Q d = d - dbar (dbar.d)/|dbar|^2, applied via inner products
                resid = d - dbar * (float(dbar @ d) / nrm2)
            total += math.sqrt(resid.dot(resid))  # np.linalg.norm, without its overhead
        energies.append(total / (window - 1))
    return np.asarray(energies)


def _nan_as_nan(energies):
    # The loop's own nan sign can differ between two calls on one input
    # (CPython's float addition keeps either operand's nan), so a nan
    # energy is compared as "nan", not by its bits.
    return np.where(np.isnan(energies), np.nan, energies).tobytes()


@st.composite
def zigzag_cases(draw):
    """Random-walk iterates (scalars, flat with n = 0..6, or matrices), a
    window, a pass budget from below one block to several blocks, and a
    length of several passes, a short last one and a dropped partial block;
    scaled 1e-10 to 1e10, with closed blocks, blocks moving by under 1e-14,
    and nan/inf entries."""
    w = draw(st.integers(2, 25))
    shape = draw(st.one_of(st.just(()), st.tuples(st.integers(0, 6)),
                           st.tuples(st.integers(1, 4), st.integers(1, 4))))
    budget = draw(st.one_of(st.integers(1, 300),
                            st.just(diagnostics._PASS_FLOATS)))
    n_blocks = draw(st.integers(1, 12))
    length = n_blocks * w + 1 + draw(st.integers(0, w - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.cumsum(rng.standard_normal((length, *shape)), axis=0)
    pts *= 10.0 ** draw(st.integers(-10, 10))
    flat = pts.reshape(length, -1)
    for blk, tiny in draw(st.lists(st.tuples(st.integers(0, n_blocks - 1),
                                             st.booleans()), max_size=3)):
        flat[(blk + 1) * w] = flat[blk * w]  # no net displacement
        if tiny and flat.shape[1]:
            flat[blk * w] = 0.0
            flat[(blk + 1) * w] = 0.0
            flat[(blk + 1) * w, 0] = 3e-15  # 0 < |dbar| < 1e-14
    if flat.shape[1]:
        for row, col, v in draw(st.lists(st.tuples(
                st.integers(0, length - 1), st.integers(0, flat.shape[1] - 1),
                st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3)):
            flat[row, col] = v
    return pts, w, budget


@settings(max_examples=300, deadline=None)
@given(zigzag_cases())
def test_zigzag_batched_matches_stepwise_bytes(case):
    pts, w, budget = case
    with np.errstate(all="ignore"):  # the loop warns on inf - inf
        want = stepwise_zigzag(pts, w)
    with warnings.catch_warnings(), \
            mock.patch.object(diagnostics, "_PASS_FLOATS", budget):
        warnings.simplefilter("error")
        got = zigzag_energy(pts, w)
    assert _nan_as_nan(got) == _nan_as_nan(want)


@pytest.mark.parametrize("w", [5, 20])
def test_zigzag_memory_does_not_grow_with_the_record(w):
    # the record is 20001 x 100 floats (16 MB); the passes hold a few
    # arrays of _PASS_FLOATS floats each, and the energies
    pts = np.cumsum(np.random.default_rng(5).standard_normal((20001, 100)),
                    axis=0)
    tracemalloc.start()
    try:
        energies = zigzag_energy(pts, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert energies.tobytes() == stepwise_zigzag(pts, w).tobytes()


def test_zigzag_block_larger_than_a_pass():
    pts = np.cumsum(np.random.default_rng(6).standard_normal((41, 30, 40)),
                    axis=0)
    assert 20 * 30 * 40 > diagnostics._PASS_FLOATS
    assert zigzag_energy(pts, 20).tobytes() == stepwise_zigzag(pts, 20).tobytes()


def _streamed(pts, w):
    """ZigzagWindow(w)'s energies for pts handed over one row at a time,
    each row overwritten after its call, with energies() also read halfway,
    which must not change what the window goes on to compute."""
    zz = ZigzagWindow(w)
    for k, row in enumerate(pts):
        x = np.array(row)
        zz(x)
        x.fill(np.nan)  # what the window keeps, it must have copied
        if k == len(pts) // 2:
            zz.energies()
    return zz.energies()


@settings(max_examples=200, deadline=None)
@given(zigzag_cases(), st.integers(0, 30))
def test_zigzag_window_streams_zigzag_energy_bytes(case, cut):
    # any pass budget, non-finite rows and runs cut shorter than a window included
    pts, w, budget = case
    pts = pts[:max(0, len(pts) - cut)]
    with warnings.catch_warnings(), \
            mock.patch.object(diagnostics, "_PASS_FLOATS", budget):
        warnings.simplefilter("error")
        want = zigzag_energy(pts, w) if len(pts) > w else np.empty(0)
        got = _streamed(pts, w)
    assert _nan_as_nan(got) == _nan_as_nan(want)


def _stream_problem(shape):
    if len(shape) == 2:
        rng = np.random.default_rng(4)
        cells = rng.choice(shape[0] * shape[1], 7, replace=False)
        ratings = [(int(c) // shape[1], int(c) % shape[1], float(rng.integers(1, 6)))
                   for c in cells]
        return make_matrix_completion(ratings, shape, alpha=5.0, rho=1.0)
    return make_sensing(m=30, n=shape[0], alpha=20.0, seed=1)


@pytest.mark.parametrize("shape, pass_floats", [
    ((1,), 3), ((2,), 8), ((7,), 35), ((7,), 8192), ((100,), 8192), ((4, 3), 84),
])
def test_run_streams_windows_as_zigzag_energy_reads_the_record(shape, pass_floats,
                                                               monkeypatch):
    # run lengths around one pass of each window: shorter than the window,
    # exactly one pass, and one row past a pass
    monkeypatch.setattr(diagnostics, "_PASS_FLOATS", pass_floats)
    problem = _stream_problem(shape)
    n = int(np.prod(shape))
    windows = (2, 3, 5, 20, 200)
    lengths = {2, 4, 403}
    for w in windows:
        rows = max(1, pass_floats // (w * (n + n % 2))) * w + 1
        lengths |= {w, rows, rows + 1}
    euler = make_tableau("euler")
    for n_rows in sorted(lengths):
        streamed = [ZigzagWindow(w) for w in windows]
        traj = run(problem, SolverConfig(tableau=euler, max_iters=n_rows - 1), streamed)
        assert traj.iterates is None
        fed = [ZigzagWindow(w) for w in windows]
        seen = []  # a copy of every point run hands over, in order
        rec = run(problem, SolverConfig(tableau=euler, max_iters=n_rows - 1,
                                        record_iterates=True),
                  [*fed, lambda x: seen.append(x.copy())]).iterates
        assert rec.shape == (n_rows, *shape)
        assert len(seen) == n_rows
        assert all(p.tobytes() == r.tobytes() for p, r in zip(seen, rec))
        for w, a, b in zip(windows, streamed, fed):
            want = zigzag_energy(rec, w) if n_rows > w else np.empty(0)
            got = a.energies()
            assert got.tobytes() == want.tobytes(), (n_rows, w)
            assert a.energies().tobytes() == got.tobytes(), (n_rows, w)
            assert b.energies().tobytes() == want.tobytes(), (n_rows, w)


@pytest.mark.parametrize("iters", [400, 407, 430])
def test_windows_compute_through_zigzag_energy(iters, monkeypatch):
    # every pass a window makes goes through the module's zigzag_energy, so
    # patching it there sees them all: at n = 100 a pass of either window is
    # 81 rows (16 blocks of 5, 4 of 20), so 401 points fill exactly five
    calls = []

    def spy(iterates, window):
        calls.append((window, len(iterates)))
        return zigzag_energy(iterates, window)

    monkeypatch.setattr(diagnostics, "zigzag_energy", spy)
    windows = [ZigzagWindow(5), ZigzagWindow(20)]
    cfg = SolverConfig(tableau=make_tableau("euler"), max_iters=iters,
                       record_iterates=True)
    rec = run(make_sensing(m=30, n=100, alpha=20.0, seed=1), cfg, windows).iterates
    assert calls == [(w, 81) for _ in range(5) for w in (5, 20)]
    held = iters - 400 + 1  # rows of the unfinished pass
    for zz in windows:
        calls.clear()
        got = zz.energies()
        assert zz.energies().tobytes() == got.tobytes()
        assert calls == ([(zz.window, held)] * 2 if held > zz.window else [])
        assert got.tobytes() == zigzag_energy(rec, zz.window).tobytes()


def test_windows_only_run_keeps_no_iterates():
    # a record would add 100 floats a row; the run's own columns (k, t, f,
    # gap, step norm, violation, wall) and the energies add under 16
    problem = make_sensing(m=50, n=100, seed=2)
    peaks = {}
    for iters in (200, 2000):
        cfg = SolverConfig(tableau=make_tableau("euler"), max_iters=iters)
        windows = [ZigzagWindow(5), ZigzagWindow(20)]
        tracemalloc.start()
        try:
            traj = run(problem, cfg, windows)
            peaks[iters] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.iterates is None
        assert len(windows[1].energies()) == iters // 20
    assert peaks[2000] - peaks[200] < 16 * 8 * 1800


def test_zigzag_csv():
    lines = "".join(zigzag_csv(zigzag_energy(STAIR, window=3), 3)).splitlines()
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rate_slope_rejects_non_finite(bad):
    # polyfit used to return nan with no error
    vals = np.array([np.nan, 1.0, 0.5, 0.25, 0.125])
    vals[3] = bad
    with pytest.raises(ValueError, match="non-finite value at k=3"):
        fit_rate_slope(vals, 1, 4)
    assert fit_rate_slope(vals, 1, 2) == pytest.approx(-1.0)  # k=3 outside the range


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
    assert decrease_bound_check(traj.fs - p.f_star, d4, c=2.0) == []


def test_decrease_bound_flags_stalled_series():
    # a synthetic plateau violates the required geometric decrease
    h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    d4 = 0.5  # l = 1, d2 = 1, d3 = 0
    bad = decrease_bound_check(h, d4, c=2.0)
    assert bad == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("h4, h5, want", [
    (np.nan, 0.03, [3, 4]),
    (np.inf, np.inf, [3, 4, 5]),
    (np.inf, 0.03, [3, 4]),
], ids=["nan", "inf", "inf-then-finite"])
def test_decrease_bound_flags_non_finite_rows(h4, h5, want):
    # every step from or to a non-finite h fails, without a numpy warning:
    # out of an infinite h both sides of the inequality read -inf
    h = np.array([1.0, 0.5, 0.25, 0.125, h4, h5, 0.01])
    d4 = 0.5  # l = 1, d2 = 1, d3 = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert decrease_bound_check(h, d4, c=2.0) == want


def test_decrease_bound_length_two_trajectory():
    p = make_triangle()
    traj = run(p, SolverConfig(tableau=make_tableau("euler"), max_iters=1))
    d4 = 0.5  # l = 1, d2 = 1, d3 = 0
    assert decrease_bound_check(traj.fs - p.f_star, d4, c=2.0) == []
