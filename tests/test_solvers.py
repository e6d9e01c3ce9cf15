import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rkfw.geometry import Box, DenseAtom, VertexHull
from rkfw.harness import ExperimentConfig, build_problem, iterates_txt, traj_csv
from rkfw.objectives import DistanceSq, LeastSquares
from rkfw.problems import (TRIANGLE_VERTICES, ProblemInstance, make_scalar_huber,
                           make_sensing, make_sensing_logistic, make_triangle)
from rkfw.solvers import (_BISECT_WIDTH, SolverConfig, _far_root, _searched_step, fw_gap,
                          momentum_step, rk_fw_step, run)
from rkfw.tableau import (TABLEAU_NAMES, ButcherTableau, feasibility_certificate,
                          make_tableau, stage_gammas)


def scalar_box_problem(target=0.0):
    """f(x) = (x - target)^2 / 2 on [-1, 1]."""
    return ProblemInstance(
        objective=DistanceSq(np.array([target])),
        region=Box(1.0),
        x0=np.array([1.0]),
        f_star=0.0,
        label="scalar_box",
    )


def cfg_for(name, **kw):
    return SolverConfig(tableau=make_tableau(name), **kw)


def logged_calls(p, method="value"):
    """Replace p.objective's `method` with one that logs the bytes of every
    point it is called at; return the log."""
    points = []
    fn = getattr(p.objective, method)

    def logged(x):
        points.append(np.asarray(x).tobytes())
        return fn(x)

    setattr(p.objective, method, logged)
    return points


def as_bytes(*values):
    return np.array(values, dtype=float).tobytes()


def test_euler_scalar_hand_step():
    p = scalar_box_problem()
    stage_points = logged_calls(p, "gradient")
    # k=2, c=2: gamma=1/2, gradient at 0.5 is positive so the atom is -1
    x_next, _ = rk_fw_step(np.array([0.5]), 2, cfg_for("euler"), p)
    assert x_next == pytest.approx([-0.25], abs=0)
    assert stage_points == [as_bytes(0.5)]


def test_midpoint_scalar_hand_step_lands_on_zero():
    p = scalar_box_problem()
    stage_points = logged_calls(p, "gradient")
    # stage 0: xi0 = 0.5(-1-0.5) = -0.75; stage 1 sees 0.5 + 0.5 xi0 = 0.125,
    # pulls with gamma = 4/9 toward -1: xi1 = (4/9)(-9/8) = -1/2; weights (0,1)
    x_next, _ = rk_fw_step(np.array([0.5]), 2, cfg_for("midpoint"), p)
    assert x_next[0] == 0.0
    assert stage_points == [as_bytes(0.5), as_bytes(0.125)]


def test_triangle_first_step_hits_vertex():
    p = make_triangle()
    x_next, gap = rk_fw_step(p.x0, 0, cfg_for("euler"), p)
    # gamma(0) = 1: the step lands exactly on the chosen vertex
    assert np.array_equal(x_next, [1.0, 0.0])
    assert gap == pytest.approx(0.9)


@given(st.floats(-0.99, 0.99), st.integers(0, 50),
       st.sampled_from([1.0, 2.0, 4.0]))
def test_euler_step_equals_classic_update(x, k, c):
    p = scalar_box_problem()
    xv = np.array([x])
    x_next, _ = rk_fw_step(xv, k, cfg_for("euler", c=c), p)
    gamma = c / (c + k)
    g = p.objective.gradient(xv)
    s = p.region.lmo(g).dense()
    assert x_next == pytest.approx(xv + gamma * (s - xv), abs=1e-15)


def reference_step(x, k, cfg, problem):
    """rk_fw_step's stage loop written out plainly: a fresh float copy of x
    per stage, numpy-scalar tableau entries and the gammas as an array.
    Returns (x_next, gap, stage points)."""
    t = cfg.tableau
    gammas = stage_gammas(t, cfg.c, cfg.delta, k)
    xi, xbars = [], []
    for i in range(t.q):
        xb = np.array(x, dtype=float, copy=True)
        for j in range(i):
            if t.a[i, j] != 0.0:
                xb += t.a[i, j] * xi[j]
        g = problem.objective.gradient(xb)
        sd = problem.region.lmo(g).dense()
        if i == 0:
            gap = float(np.vdot(g, xb - sd))
        xi.append(gammas[i] * (sd - xb))
        xbars.append(xb)
    x_next = np.array(x, dtype=float, copy=True)
    for i in range(t.q):
        x_next += t.weights[i] * xi[i]
    return x_next, gap, xbars


def signed_zero_problem():
    """A triangle with a -0.0 vertex coordinate, started on its bottom edge
    at a point whose second coordinate is -0.0. Under midpoint at k = 0
    (delta 0.5 or 1), stage 0 pulls toward (1, 0.0) and stage 1 toward
    (-1, -0.0), so x_next's second coordinate is +0.0 when stage 0's zero
    weight is applied and -0.0 when it is skipped."""
    hull = VertexHull([[1.0, 0.0], [-1.0, -0.0], [0.0, 1.0]])
    return ProblemInstance(DistanceSq(np.array([0.3, 0.05])), hull,
                           np.array([0.2, -0.0]), None, "signed_zero")


@st.composite
def certified_tableaus(draw):
    """A seeded random tableau: strictly lower triangular A with some
    entries snapped to exactly -1.0, 0.0 or 1.0, offsets the row sums
    clipped to [0, 1], weights normalized to sum 1 with one of them
    sometimes 0. Kept when it builds and its certificate at c = 2,
    delta = 0.5 holds for k = 1..200."""
    q = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.tril(rng.uniform(-1.0, 1.0, (q, q)), -1)
    snap = np.tril(rng.random((q, q)) < 0.3, -1)
    a[snap] = rng.choice([-1.0, 0.0, 1.0], size=int(snap.sum()))
    w = rng.uniform(0.0, 1.0, q)
    if q > 1 and rng.random() < 0.3:
        w[rng.integers(q)] = 0.0
    try:
        t = ButcherTableau("random", a, w / w.sum(), np.clip(a.sum(axis=1), 0.0, 1.0))
    except ValueError:
        assume(False)
    assume(feasibility_certificate(t, 2.0, 0.5, 200).all_in_unit_interval)
    return t


def assert_step_matches_reference(p, cfg):
    # compared as bytes: np.array_equal takes -0.0 for +0.0. The stage
    # points are the points the step hands to the gradient
    stage_points = logged_calls(p, "gradient")
    x = p.x0
    for k in [*range(12), 100, 1001, 99999]:
        stage_points.clear()
        x_next, gap = rk_fw_step(x, k, cfg, p)
        got = list(stage_points)
        want, want_gap, xbars = reference_step(x, k, cfg, p)
        assert x_next.tobytes() == want.tobytes(), k
        assert gap == want_gap, k
        assert got == [v.tobytes() for v in xbars], k
        x = x_next


STEP_PROBLEMS = {
    "triangle": make_triangle,
    "interval": lambda: make_scalar_huber(epsilon=1e-6),
    "sensing": lambda: make_sensing(m=30, n=8, seed=2, alpha=50.0),
    "signed_zero": signed_zero_problem,
}


@pytest.mark.parametrize("problem", STEP_PROBLEMS)
@pytest.mark.parametrize("name", TABLEAU_NAMES)
def test_step_is_bit_identical_to_reference(problem, name):
    assert_step_matches_reference(STEP_PROBLEMS[problem](), cfg_for(name, delta=0.5))


@pytest.mark.parametrize("problem", ["triangle", "interval", "sensing"])
@given(certified_tableaus())
def test_random_tableau_step_is_bit_identical_to_reference(problem, t):
    # the reference multiplies by every entry and weight, so this also
    # checks that the step's unit coefficients skip only an exact product
    assert_step_matches_reference(STEP_PROBLEMS[problem](),
                                  SolverConfig(tableau=t, delta=0.5))


@pytest.mark.parametrize("make", [
    make_triangle,
    lambda: make_sensing(m=30, n=8, seed=2, alpha=50.0),
], ids=["triangle", "sensing"])
@pytest.mark.parametrize("name", TABLEAU_NAMES)
def test_step_writes_into_nothing_it_was_handed(make, name):
    # stage 0 hands x itself to the gradient: neither x nor any stage point
    # may be written into, during the step or after it handed the point on
    p = make()
    handed, gradient = [], p.objective.gradient

    def logged(x):
        handed.append((x, x.tobytes()))
        return gradient(x)

    p.objective.gradient = logged
    x = np.array(p.x0 + 0.01, dtype=float)
    x.flags.writeable = False  # a write into x raises
    before = x.tobytes()
    x_next, _ = rk_fw_step(x, 3, cfg_for(name), p)
    assert handed[0][0] is x
    assert x.tobytes() == before
    assert all(point.tobytes() == seen for point, seen in handed)
    assert not np.shares_memory(x_next, x)


def test_midpoint_applies_its_zero_weight():
    p = signed_zero_problem()
    x_next, _ = rk_fw_step(p.x0, 0, cfg_for("midpoint"), p)
    assert np.signbit(p.x0[1])
    assert x_next[1] == 0.0 and not np.signbit(x_next[1])


@pytest.mark.parametrize("name", ["midpoint", "rk44", "rk38", "rk5"])
def test_stage_reconstruction_identity(name):
    # x_next = x + sum_i w_i gamma_i (s_i - xbar_i), rebuilt from the stage
    # points the gradient sees and the atoms the oracle answers
    p = make_triangle()
    t = make_tableau(name)
    stage_points, atoms, lmo = logged_calls(p, "gradient"), [], p.region.lmo

    def logged_lmo(g):
        atom = lmo(g)
        atoms.append(atom.dense())
        return atom

    p.region.lmo = logged_lmo
    x = np.array([0.1, 0.4])
    x_next, _ = rk_fw_step(x, 3, cfg_for(name), p)
    xbars = [np.frombuffer(b) for b in stage_points]
    assert len(xbars) == len(atoms) == t.q
    recon = x + sum(w * gm * (s - xb) for w, gm, s, xb
                    in zip(t.weights, stage_gammas(t, 2.0, 1.0, 3), atoms, xbars))
    assert x_next == pytest.approx(recon, abs=1e-12)


def test_fw_gap_frozen_values():
    p = make_triangle()
    assert fw_gap(p.x0, p) == pytest.approx(0.9)
    assert fw_gap(np.array([0.2, 0.3]), p) == pytest.approx(0.0, abs=1e-12)


def test_fw_gap_rejects_infeasible():
    with pytest.raises(ValueError, match="not feasible"):
        fw_gap(np.array([2.0, 2.0]), make_triangle())
    with pytest.raises(ValueError, match="not feasible"):
        fw_gap(np.array([np.nan, 0.0]), make_triangle())


@given(st.floats(-0.9, 0.9), st.floats(-0.45, 0.45))
def test_fw_gap_dominates_suboptimality(a, b):
    p = make_triangle()
    x = np.array([a * 0.5, 0.25 + b * 0.5])
    if p.region.membership_violation(x) > 0:
        return
    h = p.objective.value(x) - 0.0
    assert fw_gap(x, p) >= h - 1e-12


def test_line_search_far_root():
    # phi(gamma) = ((0.5 - 1.5 g)^2 - 0.25)/2 has roots 0 and 2/3; the
    # searched step is the far root, x = -0.5, not the minimizer x = 0
    for obj in (DistanceSq(np.array([0.0])), ValueOnly(DistanceSq(np.array([0.0])))):
        x_next, f_next = _searched_step(obj, np.array([0.5]), np.array([-1.5]), 0.125)
        assert x_next == pytest.approx([-0.5], abs=1.5e-9)
        assert f_next == obj.value(x_next) <= 0.125


def test_line_search_full_step_shortcut():
    # phi(1) < 0: gamma = 1 is taken with one value call, at the step itself
    for model in (True, False):
        obj, points = value_logged(DistanceSq(np.array([0.0])), model)
        x_next, f_next = _searched_step(obj, np.array([0.5]), np.array([-0.5]), 0.125)
        assert x_next.tobytes() == as_bytes(0.0) and f_next == 0.0
        assert points == [as_bytes(0.0)]


def test_line_search_takes_the_far_root_with_no_schedule_step():
    # phi(gamma) = ((0.5 - 2.5 g)^2 - 0.25)/2 has roots 0 and 0.4: the step
    # is the far root, x = -0.5. With no model, the test at gamma = 1 and
    # each of the bisection's 34 midpoints is one value call; none falls at
    # 2/3, the schedule fraction c/(c+k) at k = 1, c = 2, which overshoots
    # the root
    obj, points = value_logged(DistanceSq(np.array([0.0])), model=False)
    x, d = np.array([0.5]), np.array([-2.5])
    x_next, f_next = _searched_step(obj, x, d, 0.125)
    assert x_next == pytest.approx([-0.5], abs=3e-9)
    assert f_next <= 0.125
    assert len(points) == 35
    assert (x + (2.0 / 3.0) * d).tobytes() not in points


def test_line_search_stays_at_x_along_an_ascent_direction():
    # an ascent direction has gbar = 0: the step stays at x, whose f is
    # known, and without a model the search evaluated it at gamma = 0
    for obj in (DistanceSq(np.array([0.0])), ValueOnly(DistanceSq(np.array([0.0])))):
        x_next, f_next = _searched_step(obj, np.array([0.5]), np.array([1.0]), 0.125)
        assert x_next.tobytes() == as_bytes(0.5) and f_next == 0.125


class NanBeyondHalf:
    """f(x) = -|x| up to |x| = 0.5, NaN beyond. No along()."""

    def value(self, x):
        u = abs(float(x[0]))
        return -u if u <= 0.5 else math.nan


def test_line_search_never_takes_a_nan_step():
    # f is NaN past 0.5, which fails the sign test, so the search stops there
    x_next, f_next = _searched_step(NanBeyondHalf(), np.array([0.0]), np.array([1.0]), 0.0)
    assert x_next.tobytes() == as_bytes(0.5) and f_next == -0.5


def test_run_row_count_and_columns():
    p = make_triangle()
    traj = run(p, cfg_for("euler", max_iters=7))
    assert len(traj.ks) == 8
    assert traj.ks[-1] == 7
    assert traj.step_norms[-1] == 0.0
    assert traj.fs[0] == pytest.approx(0.265)
    assert traj.gaps[0] == pytest.approx(0.9)
    assert np.all(traj.violations <= 1e-9)
    assert np.all(np.diff(traj.wall_ns) >= 0)


def test_run_zero_iters():
    p = make_triangle()
    traj = run(p, cfg_for("euler", max_iters=0))
    assert len(traj.fs) == 1
    assert traj.gaps[0] == pytest.approx(0.9)


def test_run_rejects_infeasible_start():
    # run has no start of its own: an infeasible one cannot become a problem
    p = make_triangle()
    with pytest.raises(ValueError, match="^triangle: x0 is not feasible$"):
        ProblemInstance(p.objective, p.region, np.array([2.0, 2.0]), p.f_star, p.label)


def test_line_search_run_is_monotone_triangle():
    p = make_triangle()
    traj = run(p, cfg_for("euler", variant="line_search", max_iters=200))
    assert np.all(np.diff(traj.fs) <= 1e-12)


def test_line_search_run_is_monotone_sensing():
    p = make_sensing(m=30, n=8, seed=2, alpha=50.0)
    for name in ("euler", "rk44"):
        traj = run(p, cfg_for(name, variant="line_search", max_iters=60))
        assert np.all(np.diff(traj.fs) <= 1e-12), name


def test_line_search_fallback_keeps_monotone():
    # from 0.9 at k=0 the plain step, gamma = 1, would overshoot to
    # f(-1) > f(0.9); the search takes the non-increasing far root instead
    p = dataclasses.replace(scalar_box_problem(), x0=np.array([0.9]))
    traj = run(p, cfg_for("euler", variant="line_search", max_iters=3))
    assert traj.fs[1] <= traj.fs[0] + 1e-12
    assert np.all(np.diff(traj.fs) <= 1e-12)


@pytest.mark.parametrize("make", [
    make_triangle, lambda: make_sensing(m=30, n=8, seed=2, alpha=50.0),
    lambda: make_sensing(seed=7000),
], ids=["triangle", "sensing", "sensing7000"])
@pytest.mark.parametrize("name", ["euler", "rk44"])
def test_line_search_records_f_of_each_iterate(make, name):
    # a row's f may come from the previous step's search; it must be the
    # value of the row's own x
    p = make()
    traj = run(p, cfg_for(name, variant="line_search", max_iters=60,
                          record_iterates=True))
    fresh = np.array([p.objective.value(x) for x in traj.iterates])
    assert traj.fs.tobytes() == fresh.tobytes()


class Pocketed:
    """f(x) = h(|x|): h(u) = -u up to 0.3, u - 0.6 up to 0.6, u beyond,
    except -1 on the pocket (0.852, 0.858), where phi falls to <= 0 again
    past its root: unlike every shipped objective, f is not convex. No
    along(), so every search test is evaluated."""

    def value(self, x):
        u = abs(float(x[0]))
        if u <= 0.3:
            return -u
        if u <= 0.6:
            return u - 0.6
        return -1.0 if 0.852 < u < 0.858 else u


@pytest.mark.parametrize("name", ["euler", "rk44"])
def test_line_search_evaluates_no_point_twice(name):
    # the next row's f is the one the search already computed there. On the
    # triangle no step is 0; on sensing instance 7000 every rk44 step is 0,
    # and x + 0 d equals x byte for byte, so its row reuses f(x)
    for make, least in ((make_triangle, 61), (lambda: make_sensing(seed=7000), 1)):
        p = make()
        points = logged_calls(p)
        run(p, cfg_for(name, variant="line_search", max_iters=60))
        assert len(points) == len(set(points)) >= least


def test_line_search_calls_no_value_at_a_refused_step():
    # on sensing instance 7000 every plain euler step x + gamma_k d
    # overshoots the far root of phi, so the run refuses it. The search
    # tests only 1, dyadic midpoints of [0, 1] and 0; where gamma_k is one
    # of them (k = 0, 2, 6, 14, 30), the model settles that f rises there,
    # so no value call falls at the refused step
    p = make_sensing(seed=7000)
    log = logged_calls(p)
    cfg = cfg_for("euler", variant="line_search", max_iters=60, record_iterates=True)
    traj = run(p, cfg)
    points = set(log)
    assert len(points) > cfg.max_iters
    for k in range(cfg.max_iters):
        x = traj.iterates[k]
        x_plain, _ = rk_fw_step(x, k, cfg, p)
        gamma_k = cfg.delta * cfg.c / (cfg.c + cfg.delta * k)
        d = (x_plain - x) / gamma_k
        at_step = (x + gamma_k * d).tobytes()
        assert at_step != traj.iterates[k + 1].tobytes(), k
        assert at_step not in points, k


def test_stuck_step_evaluates_a_moved_zero():
    # x0 is the target, so every step raises f and gbar = 0: the run moves
    # to x0 + 0 d, which turns x0's -0.0 into +0.0. f(x1) must be evaluated
    # at those bytes, not copied from row 0
    x0 = np.array([0.2, -0.0])
    p = ProblemInstance(DistanceSq(x0.copy()), signed_zero_problem().region, x0,
                        None, "stuck")
    points = logged_calls(p)
    cfg = cfg_for("euler", variant="line_search", max_iters=1, record_iterates=True)
    traj = run(p, cfg)
    x_plain, _ = rk_fw_step(x0, 0, cfg, p)  # gamma_0 = 1, so d = x_plain - x0
    moved = x0 + 0.0 * (x_plain - x0)
    assert np.signbit(x0[1]) and not np.signbit(moved[1])
    assert traj.iterates[1].tobytes() == moved.tobytes()
    assert points[-1] == moved.tobytes()


class ValueOnly:
    """An objective with its along() hidden: every line-search test is
    evaluated."""

    def __init__(self, objective):
        self.value = objective.value
        self.gradient = objective.gradient


def hidden_model(p):
    """p with its objective's along() hidden."""
    return ProblemInstance(ValueOnly(p.objective), p.region, p.x0, None, "hidden")


@given(st.integers(0, 2**32 - 1), st.sampled_from(["least_squares", "distance_sq"]),
       st.sampled_from([1.0, 1e3, 1e6]), st.sampled_from([0.0, 1e-8, 1.0]),
       st.sampled_from(["descent", "ascent", "short", "random"]))
def test_model_search_matches_evaluated_search(seed, kind, x_scale, misfit, direction):
    # x_scale puts x far from the origin; misfit 0 or 1e-8 gives near-fit
    # instances, whose f is far below the rounding of the terms value sums
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 12))
    x = x_scale * rng.standard_normal(n)
    if kind == "least_squares":
        m = int(rng.integers(1, 40))
        g = rng.standard_normal((m, n))
        obj = LeastSquares(g, g @ x + misfit * rng.standard_normal(m))
    else:
        obj = DistanceSq(x + misfit * rng.standard_normal(n))
    grad = obj.gradient(x)
    step_len = 10.0 ** rng.uniform(-6, 1)
    if direction == "random":
        d = step_len * rng.standard_normal(n)
    else:
        sign = 1.0 if direction == "ascent" else -1.0
        d = sign * step_len * grad / max(np.linalg.norm(grad), 1e-300)
        if direction == "short":
            # far inside the first descent pocket, so phi(1) <= 0
            a, b, _ = obj.along(x, grad)
            d = -grad * (abs(b) / (2.0 * a) if a > 0 else 1.0) * 0.5
    fx = obj.value(x)
    steps = []
    for model in (True, False):
        objective, points = value_logged(obj, model)
        logged_d = d.view(GammaLogged)
        logged_d.gammas = []
        x_next, f_next = _searched_step(objective, x, logged_d, fx)
        # no gamma's point is formed twice, so none is evaluated twice (at
        # x_scale 1e6 distinct gammas can give the same point bytes)
        assert len(logged_d.gammas) == len(set(logged_d.gammas)) >= len(points)
        # what run records for the next row
        f_row = obj.value(x_next) if f_next is None else f_next
        assert f_row == obj.value(x_next) <= fx
        steps.append(as_bytes(*x_next, f_row))
    assert steps[0] == steps[1]


class GammaLogged(np.ndarray):
    """A search direction d that logs every gamma the search scales it by."""

    def __rmul__(self, gamma):
        self.gammas.append(gamma)
        return gamma * self.view(np.ndarray)


def value_logged(obj, model):
    """obj's value and gradient, and its along() when `model`, with the bytes
    of every point value is called at logged; returns (objective, log)."""
    logged, points = ValueOnly(obj), []
    logged.value = lambda y: points.append(np.asarray(y).tobytes()) or obj.value(y)
    if model:
        logged.along = obj.along
    return logged, points


class WrongModel(LeastSquares):
    """along() claims phi falls everywhere along d, whatever it does."""

    def along(self, x, d):
        return 0.0, -1.0, 0.0


def test_line_search_wrong_model_stays_monotone():
    # the search checks the step it found with a real value call and, when f
    # rose there, searches again with every test evaluated
    p = make_sensing(m=30, n=8, seed=2, alpha=50.0)
    wrong = ProblemInstance(WrongModel(p.objective.g, p.objective.h), p.region,
                            p.x0, None, "wrong")
    plain = hidden_model(p)
    for name in ("euler", "rk44"):
        cfg = cfg_for(name, variant="line_search", max_iters=60)
        traj = run(wrong, cfg)
        assert np.all(np.diff(traj.fs) <= 1e-12), name
        assert np.array_equal(traj.fs, run(plain, cfg).fs), name


@pytest.mark.parametrize("name", ["euler", "rk44"])
def test_line_search_model_and_evaluated_runs_agree(name):
    # instances 7000 and 7001 are the sensing-ls benchmark's: rk44's steps
    # there are mostly 0, and the model decides the fallback
    for seed, size in ((5, dict(m=60, n=20)), (7000, {}), (7001, {})):
        p = make_sensing(seed=seed, **size)
        cfg = cfg_for(name, variant="line_search", max_iters=80, record_iterates=True)
        a, b = run(p, cfg), run(hidden_model(p), cfg)
        assert a.fs.tobytes() == b.fs.tobytes(), seed
        assert a.step_norms.tobytes() == b.step_norms.tobytes(), seed
        assert a.iterates.tobytes() == b.iterates.tobytes(), seed


GRID = tuple(i / 32 for i in range(33))  # np.linspace(0, 1, 33), bit for bit


def closure_far_root(no_rise):
    """The far-root rule that _far_root's bisection of [0, 1] replaced: a
    scan down GRID from gamma = 1 to the last passing grid point, then
    bisection of the bracket above it. The reference for
    test_inline_far_root_matches_closure_far_root."""
    if no_rise(1.0):
        return 1.0
    for idx in range(31, -1, -1):  # 32 is gamma = 1, refused above
        if no_rise(GRID[idx]):
            break
    else:
        raise ValueError("no step along the search direction passes the sign test")
    lo, hi = GRID[idx], GRID[idx + 1]
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if no_rise(mid):
            lo = mid
        else:
            hi = mid
    return lo


def closure_no_rise(a, b, err, evaluated):
    """The sign test as the closure-based search built it, trusting the
    model at gamma = 0 exactly when err is finite."""

    def no_rise(gamma):
        m = gamma * (a * gamma + b)
        if abs(m) > err or gamma == 0.0 and err < math.inf:
            return m <= 0.0
        return evaluated(gamma)

    return no_rise


def closure_searched_step(objective, x, d, fx):
    """_searched_step on closure_far_root: the reference for
    test_inline_search_matches_closure_search and
    test_search_matches_grid_scan_search_on_shipped_objectives."""
    along = getattr(objective, "along", None)
    a, b, err = (0.0, 0.0, math.inf) if along is None else along(x, d)
    points = {}  # gamma -> (x + gamma d, f there)

    def evaluated(gamma):
        if gamma not in points:
            y = x + gamma * d
            points[gamma] = y, objective.value(y)
        return points[gamma][1] - fx <= 0.0

    gbar = closure_far_root(closure_no_rise(a, b, err, evaluated))
    if not (gbar == 0.0 or evaluated(gbar)):  # the model was wrong: drop it
        gbar = closure_far_root(closure_no_rise(a, b, math.inf, evaluated))
    if gbar in points:
        return points[gbar]
    x_next = x + gbar * d
    return x_next, fx if x_next.tobytes() == x.tobytes() else None


class Rising:
    """f(x) = x[0]: monotone along every d. No along()."""

    def value(self, x):
        return float(x[0])


class Modelled:
    """`objective`'s value, and an along() that answers `model` whatever x
    and d are."""

    def __init__(self, objective, model):
        self.value = objective.value
        if model is not None:
            self.along = lambda x, d: model


SEARCH_ORACLES = {"monotone": Rising, "pocketed": Pocketed,
                  "nan_beyond_half": NanBeyondHalf}
# model coefficients of either sign, zeros, infinities and NaN; err from 0
# through the smallest subnormal to inf, the bound of an overflowing, absent
# or dropped model, and the NaN bound of a non-finite x or d
model_coefficients = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats(-4.0, 4.0))
model_errs = st.sampled_from([0.0, 5e-324, 1e-12, 0.05, 1.0, math.inf, math.nan])


def outcome(search):
    """search()'s result, or the message of the ValueError it raises."""
    try:
        return search()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400)
@given(model_coefficients, model_coefficients, model_errs,
       st.sampled_from(sorted(SEARCH_ORACLES)), st.floats(-2.0, 2.0))
@example(math.inf, 0.0, 0.0, "monotone", 1.0)  # NaN model at 0 with err 0.0: raises
@example(0.0, 0.0, math.inf, "pocketed", 1.0)  # no model
@example(0.0, 0.0, math.inf, "pocketed", 1.01)  # the scan stops in the pocket
def test_inline_far_root_matches_closure_far_root(a, b, err, oracle, d):
    # the same gamma or the same error. On the non-convex Pocketed the scan
    # and the bisection can stop on either side of the pocket; the gamma
    # returned must pass the sign test
    x, objective = np.array([0.0]), SEARCH_ORACLES[oracle]()
    fx = objective.value(x)

    def evaluated(gamma):
        return objective.value(x + gamma * np.array([d])) - fx <= 0.0

    no_rise = closure_no_rise(a, b, err, evaluated)
    gbar = outcome(lambda: _far_root(a, b, err, evaluated))
    if oracle == "pocketed" and not isinstance(gbar, str):
        assert no_rise(gbar)
    else:
        assert gbar == outcome(lambda: closure_far_root(no_rise))


@settings(max_examples=400)
@given(model_coefficients, model_coefficients, model_errs, st.booleans(),
       st.sampled_from(sorted(SEARCH_ORACLES)), st.floats(-2.0, 2.0))
def test_inline_search_matches_closure_search(a, b, err, model, oracle, d):
    # the whole search, with its check of gbar and the redo: the same point
    # and f, or the same error. On Pocketed the point must not raise f
    objective = Modelled(SEARCH_ORACLES[oracle](), (a, b, err) if model else None)
    x, direction = np.array([0.0]), np.array([d])
    fx = objective.value(x)
    got, want = (outcome(lambda: search(objective, x, direction, fx))
                 for search in (_searched_step, closure_searched_step))
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
    elif oracle == "pocketed":
        f = objective.value(got[0])
        assert f <= fx and got[1] in (None, f)
    else:
        assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1])
def seeded_triangle(seed):
    """The triangle at a seeded target inside it."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(3))
    return make_triangle(x_star=weights @ np.array(TRIANGLE_VERTICES))


SHIPPED = {
    "triangle": seeded_triangle,
    "sensing": lambda seed: make_sensing(m=120, n=40, seed=seed),
    "sensing_value_only": lambda seed: hidden_model(make_sensing(m=120, n=40, seed=seed)),
    "sensing_logistic": lambda seed: make_sensing_logistic(m=80, n=20, seed=seed),
    "scalar_huber": lambda seed: make_scalar_huber((0.1, 0.01, 0.3)[seed]),
}


@pytest.mark.parametrize("problem", SHIPPED)
@pytest.mark.parametrize("name, c", [("euler", 2.0), ("rk44", 1.0), ("rk38", 3.0)])
def test_search_matches_grid_scan_search_on_shipped_objectives(problem, name, c):
    # every shipped objective is convex: there the bisection of [0, 1]
    # reaches the bracket above the grid scan's last passing grid point,
    # so at every row of a seeded run both searches return the same point
    # bytes and f
    for seed in range(3):
        p = SHIPPED[problem](seed)
        cfg = cfg_for(name, c=c, variant="line_search", max_iters=40, record_iterates=True)
        traj = run(p, cfg)
        for k in range(cfg.max_iters):
            x = traj.iterates[k]
            x_plain, _ = rk_fw_step(x, k, cfg, p)
            d = (x_plain - x) / (cfg.delta * cfg.c / (cfg.c + cfg.delta * k))
            got, want = (search(p.objective, x, d, traj.fs[k])
                         for search in (_searched_step, closure_searched_step))
            assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1]), (seed, k)


class NanAtStart:
    """f(x) = -|x|, except NaN at x = 0. No along()."""

    def value(self, x):
        u = abs(float(x[0]))
        return -u if u else math.nan


class NanModel(DistanceSq):
    """DistanceSq whose along() answers a = inf, b = -inf: a + b is NaN."""

    def along(self, x, d):
        return math.inf, -math.inf, 0.0


def test_line_search_raises_when_no_step_passes():
    msg = "^no step along the search direction passes the sign test$"
    # a NaN f(x) fails every sign test, gamma = 0 included
    obj, x = NanAtStart(), np.array([0.0])
    with pytest.raises(ValueError, match=msg):
        _searched_step(obj, x, np.array([1.0]), obj.value(x))
    # along an ascent direction f rises at every gamma > 0, and the model,
    # whose err is finite, is NaN at gamma = 0, so it refuses even the step
    # that stays at x
    obj, x = NanModel(np.array([0.0])), np.array([0.5])
    with pytest.raises(ValueError, match=msg):
        _searched_step(obj, x, np.array([1.0]), obj.value(x))
    # with the true model, the same search stays at x
    x_next, f_next = _searched_step(DistanceSq(np.array([0.0])), x, np.array([1.0]), 0.125)
    assert x_next.tobytes() == as_bytes(0.5) and f_next == 0.125


def test_line_search_overflowing_model_decides_no_test():
    # d.d overflows, so along gives a = err = inf and its model is NaN at
    # gamma = 0. With err = inf the model decides no test: the search
    # evaluates all 36, as it does without along, and stays at x
    p = ProblemInstance(DistanceSq(np.zeros(2)), Box(1.0), np.zeros(2), 0.0, "origin")
    calls = logged_calls(p)
    x, d = p.x0, np.array([1e155, 1e155])
    with np.errstate(over="ignore"):
        assert p.objective.along(x, d) == (math.inf, 0.0, math.inf)
        x_next, f_next = _searched_step(p.objective, x, d, 0.0)
    assert x_next.tobytes() == x.tobytes() and f_next == 0.0
    assert len(calls) == 36 and calls[-1] == x.tobytes()


class ResidualGradient(LeastSquares):
    """LeastSquares with its gradient taken as G^T (G x - h), the residual
    form the Gram gradient replaced."""

    def gradient(self, x):
        return self.g.T @ (self.g @ np.asarray(x, dtype=float) - self.h)


@pytest.mark.parametrize("name,variant", [
    *[(name, "plain") for name in TABLEAU_NAMES],
    ("euler", "line_search"), ("rk44", "line_search"), ("euler", "momentum"),
])
def test_gram_gradient_moves_only_the_gaps(name, variant):
    # the l1 oracle reads only the place and sign of the largest |gradient|
    # entry and the line search only value and along, so the Gram gradient's
    # last-digit changes reach the recorded gaps alone
    p = make_sensing(seed=3)
    ref = ProblemInstance(ResidualGradient(p.objective.g, p.objective.h), p.region,
                          p.x0, None, "residual")
    cfg = cfg_for(name, variant=variant, max_iters=300, record_iterates=True)
    a, b = run(p, cfg), run(ref, cfg)
    assert np.array_equal(a.fs, b.fs)
    assert np.array_equal(a.step_norms, b.step_norms)
    assert np.array_equal(a.violations, b.violations)
    assert np.array_equal(np.array(a.iterates), np.array(b.iterates))
    np.testing.assert_allclose(a.gaps, b.gaps, rtol=1e-12, atol=0.0)


def test_momentum_hand_step():
    p = scalar_box_problem()
    x_next, z_next, v_next = momentum_step(
        np.array([0.0]), np.array([-1.0]), np.array([1.0]), k=2, c=2.0,
        problem=p)
    # gamma=1/2: y=1/2, grad=1/2, z'=-1/4, oracle(-1/4)=+1, x'=1/2
    assert z_next == pytest.approx([-0.25], abs=0)
    assert v_next == pytest.approx([1.0], abs=0)
    assert x_next == pytest.approx([0.5], abs=0)


def test_momentum_run_feasible_and_converges():
    p = scalar_box_problem()
    traj = run(p, cfg_for("euler", variant="momentum", max_iters=60))
    assert np.all(traj.violations <= 1e-12)
    assert traj.fs[-1] < 1e-2


def test_momentum_rejects_multistage_and_delta():
    with pytest.raises(ValueError, match="one-stage"):
        cfg_for("rk44", variant="momentum")
    with pytest.raises(ValueError, match="delta = 1"):
        cfg_for("euler", variant="momentum", delta=0.5)


def test_config_validation():
    with pytest.raises(ValueError, match="c must be"):
        cfg_for("euler", c=0.5)
    with pytest.raises(ValueError, match="delta"):
        cfg_for("euler", delta=0.0)
    with pytest.raises(ValueError, match="variant"):
        cfg_for("euler", variant="fancy")
    with pytest.raises(ValueError, match="max_iters"):
        cfg_for("euler", max_iters=-1)
    # an infinite c or delta makes every step fraction NaN
    with pytest.raises(ValueError, match="^schedule constant c must be finite$"):
        cfg_for("euler", c=float("inf"))
    with pytest.raises(ValueError, match="^delta must be finite$"):
        cfg_for("euler", delta=float("inf"))


def test_config_is_frozen():
    cfg = cfg_for("euler")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.max_iters = -1
    # a changed copy is checked like a new one
    with pytest.raises(ValueError, match="max_iters"):
        dataclasses.replace(cfg, max_iters=-1)


class InfOracle:
    def lmo(self, g):
        return DenseAtom(np.array([np.inf]))

    def membership_violation(self, x):
        return 0.0


def test_non_finite_state_raises():
    p = ProblemInstance(DistanceSq(np.array([0.0])), InfOracle(),
                        np.array([0.5]), None, "inf")
    with pytest.raises(ArithmeticError, match="non-finite state at stage 1"):
        rk_fw_step(np.array([0.5]), 0, cfg_for("midpoint"), p)


class FaultyBox:
    """The [-1, 1]^2 box oracle, except that answer number `at` (counted
    from 0) has `bad` in its second entry."""

    def __init__(self, at, bad):
        self.box, self.at, self.bad, self.calls = Box(1.0), at, bad, 0

    def lmo(self, g):
        atom = self.box.lmo(g).dense()
        if self.calls == self.at:
            atom[1] = self.bad
        self.calls += 1
        return DenseAtom(atom)

    def membership_violation(self, x):
        return 0.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stage", range(4))
def test_non_finite_stage_point_names_stage_and_iteration(stage, bad):
    # the 1e200 entry makes the stage point's self-dot overflow as well;
    # stage 0 sees x itself, stage i > 0 the bad answer of stage i - 1
    x = np.array([1e200, 0.5])
    if stage == 0:
        x[1] = bad
    p = ProblemInstance(DistanceSq(np.zeros(2)), FaultyBox(stage - 1, bad),
                        np.array([0.5, 0.5]), None, "faulty")
    with pytest.raises(ArithmeticError,
                       match=f"^non-finite state at stage {stage}, iteration 7$"):
        rk_fw_step(x, 7, cfg_for("rk44"), p)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("name", TABLEAU_NAMES)
def test_finite_states_whose_self_dot_overflows_pass(name):
    big = 1e200
    p = ProblemInstance(DistanceSq(np.zeros(2)), Box(big), np.array([big, -big]),
                        None, "big")
    assert not np.isfinite(p.x0 @ p.x0)
    x = p.x0
    for k in range(4):
        x, _ = rk_fw_step(x, k, cfg_for(name), p)
        assert np.isfinite(x).all()


@pytest.mark.parametrize("variant", ["plain", "line_search", "momentum"])
def test_non_finite_step_raises_in_run(variant):
    # the one-stage step is infinite at once; no search may see it
    p = ProblemInstance(DistanceSq(np.array([0.0])), InfOracle(),
                        np.array([0.5]), None, "inf")
    with pytest.raises(ArithmeticError, match="non-finite step at iteration 0"):
        run(p, cfg_for("euler", variant=variant, max_iters=5))


def test_csv_round_trip():
    p = make_triangle()
    traj = run(p, cfg_for("rk44", max_iters=5))
    lines = "".join(traj_csv(traj)).splitlines()
    assert lines[0] == "k,t,f,gap,step_norm,violation,wall_ns"
    assert len(lines) == 7
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        # repr formatting survives the float round trip exactly
        assert float(cells[2]) == traj.fs[i]
        assert float(cells[3]) == traj.gaps[i]


def test_csv_rows_are_each_entrys_repr():
    # delta = 1 makes t an integer column; it is still written as floats
    traj = run(signed_zero_problem(), cfg_for("midpoint", delta=1, max_iters=5))
    assert traj.ts.dtype.kind == "i"
    want = "k,t,f,gap,step_norm,violation,wall_ns\n" + "".join(
        f"{int(traj.ks[i])},{float(traj.ts[i])!r},{float(traj.fs[i])!r},"
        f"{float(traj.gaps[i])!r},{float(traj.step_norms[i])!r},"
        f"{float(traj.violations[i])!r},{int(traj.wall_ns[i])}\n"
        for i in range(len(traj.ks)))
    assert "".join(traj_csv(traj)) == want


def test_iterates_dump_round_trip(tmp_path):
    p = make_triangle()
    traj = run(p, cfg_for("euler", max_iters=4, record_iterates=True))
    path = tmp_path / "it.txt"
    path.write_text("".join(iterates_txt(traj)))
    back = np.loadtxt(path, ndmin=2)
    assert back == pytest.approx(np.stack(traj.iterates), abs=0)


@pytest.mark.parametrize("problem", [
    make_sensing(seed=5),
    build_problem(ExperimentConfig(problem="completion", data=os.path.join(
        os.path.dirname(__file__), "fixtures", "ratings20.tsv"))),
], ids=["sensing", "completion"])
def test_record_is_one_array_of_replayable_rows(problem):
    cfg = cfg_for("rk44", max_iters=12, record_iterates=True)
    traj = run(problem, cfg)
    assert type(traj.iterates) is np.ndarray
    assert traj.iterates.shape == (cfg.max_iters + 1, *np.shape(problem.x0))
    assert np.array_equal(traj.iterates[0], problem.x0)
    for k in range(cfg.max_iters):
        x_next, _ = rk_fw_step(traj.iterates[k], k, cfg, problem)
        assert np.array_equal(x_next, traj.iterates[k + 1]), f"replay differs at k={k}"


def test_schedule_shrinks_steps():
    p = make_triangle()
    traj = run(p, cfg_for("euler", max_iters=300, record_iterates=True))
    hops = [np.linalg.norm(traj.iterates[k + 1] - traj.iterates[k])
            for k in range(250, 299)]
    assert max(hops) < 0.05
