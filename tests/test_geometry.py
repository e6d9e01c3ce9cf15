import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkfw import geometry
from rkfw.geometry import (Box, DenseAtom, L1Ball, NuclearBall,
                           PowerIterationError, VertexHull, _top_singular_pair)
from rkfw.harness import ExperimentConfig, run_experiment
from rkfw.problems import TRIANGLE_VERTICES, make_triangle

TRIANGLE = [(-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)]

vectors = arrays(np.float64, st.integers(1, 6),
                 elements=st.floats(-10, 10, allow_nan=False))


def l1_lmo_oracle(g, alpha):
    """Enumerate all 2n signed scaled basis vectors, pick the best score."""
    n = len(g)
    best, best_score = None, np.inf
    for j in range(n):
        for s in (alpha, -alpha):
            v = np.zeros(n)
            v[j] = s
            score = float(v @ g)
            if score < best_score - 1e-15:
                best, best_score = v, score
    return best, best_score


def test_box_lmo_sign_rule():
    box = Box(2.0)
    atom = box.lmo([1.0, -3.0, 0.0]).dense()
    # sign(0) treated as +, so the last coordinate goes to -alpha
    assert np.array_equal(atom, [-2.0, 2.0, -2.0])


@given(vectors)
def test_box_lmo_minimizes_over_corners(g):
    box = Box(1.5)
    score = float(box.lmo(g).dense() @ g)
    # any corner of the box scores at least as high
    assert score <= -1.5 * np.sum(np.abs(g)) + 1e-9


def test_l1_lmo_frozen():
    ball = L1Ball(2.0)
    atom = ball.lmo([0.5, -3.0, 1.0, 0.0])
    assert isinstance(atom, DenseAtom)
    assert np.array_equal(atom.dense(), [0.0, 2.0, 0.0, 0.0])


def test_l1_lmo_tie_breaks_low_index():
    atom = L1Ball(1.0).lmo([1.0, 1.0, -1.0])
    assert np.array_equal(atom.dense(), [-1.0, 0.0, 0.0])


@given(vectors)
def test_l1_lmo_matches_enumeration(g):
    ball = L1Ball(2.0)
    _, best_score = l1_lmo_oracle(g, 2.0)
    assert float(ball.lmo(g).dense() @ g) == pytest.approx(best_score, abs=1e-12)


@given(vectors)
def test_l1_atoms_are_one_hot(g):
    atom = L1Ball(3.0).lmo(g)
    d = atom.dense()
    assert np.count_nonzero(d) <= 1
    assert np.sum(np.abs(d)) == pytest.approx(3.0)


def test_hull_lmo_brute_force():
    hull = VertexHull(TRIANGLE)
    atom = hull.lmo([-0.2, 0.7]).dense()
    assert np.array_equal(atom, [1.0, 0.0])


@given(arrays(np.float64, 2, elements=st.floats(-5, 5, allow_nan=False)))
def test_hull_lmo_minimizes_over_vertices(g):
    hull = VertexHull(TRIANGLE)
    score = float(hull.lmo(g).dense() @ g)
    assert score <= min(float(np.asarray(v) @ g) for v in TRIANGLE) + 1e-12


def test_hull_membership():
    hull = VertexHull(TRIANGLE)
    assert hull.membership_violation([0.0, 0.5]) == 0.0
    assert hull.membership_violation([0.2, 0.3]) == 0.0
    assert hull.membership_violation([3.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    assert hull.membership_violation([0.0, -0.1]) > 0.0


def test_hull_rejects_non_simplex_at_construction():
    with pytest.raises(ValueError, match="non-simplex hull: 4 vertices in 2 dimensions, need 3"):
        VertexHull([(0, 0), (1, 0), (0, 1), (1, 1)])


@pytest.mark.parametrize("vertices", [[(0.0, 0.0), (1.0, np.nan), (0.0, 1.0)], [0.0, 1.0]],
                         ids=["nan-vertex", "1-d-list"])
def test_hull_rejects_non_finite_or_flat_vertices(vertices):
    with pytest.raises(ValueError, match="^need a 2-d array of finite vertices$"):
        VertexHull(vertices)


def test_hull_rejects_degenerate_at_construction():
    with pytest.raises(ValueError, match="degenerate hull"):
        VertexHull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])


def _no_svd(*args, **kwargs):
    raise AssertionError("an SVD was called")


def test_triangle_sweep_calls_no_svd(tmp_path, monkeypatch):
    # the hull checks itself from the LU solve that builds its inverse, so
    # a triangle sweep never loads LAPACK's SVD code
    monkeypatch.setattr(np.linalg, "matrix_rank", _no_svd)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    make_triangle()
    VertexHull(TRIANGLE_VERTICES)
    cfg = ExperimentConfig(problem="triangle", tableau=("euler", "rk44"), iters=20,
                           delta=0.1, ref_delta=0.01, out_dir=str(tmp_path))
    assert run_experiment(cfg) == 0
    assert (tmp_path / "rk44_plain" / "tae.csv").exists()


def _degenerate_simplices(n, rng):
    """n + 1 affinely dependent vertices in n dimensions: two coincident,
    all on a line, one on the span of the others, and (n = 3) all on a plane."""
    base = rng.standard_normal((n + 1, n))
    coincident = base.copy()
    coincident[1] = coincident[0]
    line = base[0] + rng.standard_normal(n + 1)[:, None] * base[1]
    spanned = base.copy()
    spanned[n] = rng.dirichlet(np.ones(n)) @ base[:n]
    cases = [coincident, line, spanned]
    if n == 3:
        plane = rng.standard_normal((n + 1, 2))
        cases.append(base[0] + plane @ base[1:3])
    return cases


@pytest.mark.parametrize("n", [2, 3])
def test_hull_rejects_every_simplex_matrix_rank_rejects(n):
    # ||m||_F ||m^-1||_F bounds the condition number from above, and the
    # factor over matrix_rank's N eps covers where the LU and the SVD round
    # apart: exactly dependent vertices, and vertices perturbed off them by
    # 1e-15 to 1e-12, are rejected wherever the SVD's rank test rejects them
    rng = np.random.default_rng(29 + n)
    ranks = []
    for _ in range(300):
        for vs in _degenerate_simplices(n, rng):
            for size in (0.0, 1e-15, 1e-14, 1e-13, 1e-12):
                v = vs + size * rng.standard_normal(vs.shape)
                ranks.append(np.linalg.matrix_rank(np.vstack([v.T, np.ones(n + 1)])))
                if ranks[-1] == n + 1:
                    continue
                with pytest.raises(ValueError, match="^degenerate hull: the "
                                   "vertices are affinely dependent$"):
                    VertexHull(v)
    # the draws straddle the rank test's boundary
    assert min(ranks.count(n + 1), len(ranks) - ranks.count(n + 1)) > 1000


def test_triangle_inverse_keeps_its_bytes():
    expected = np.array([[-0.5, -0.5, 0.5], [0.5, -0.5, 0.5], [0.0, 1.0, 0.0]])
    assert VertexHull(TRIANGLE_VERTICES).barycentric_inverse.tobytes() == expected.tobytes()


_U = 2.0 ** -53  # unit roundoff of float64


def exact_coordinates(vertices, x):
    """x's barycentric coordinates in the simplex vertices, in exact
    rationals: the solution p of [vertices^T; 1^T] p = [x; 1], by
    Gauss-Jordan elimination over Fractions."""
    k = len(vertices)
    rows = [[Fraction(float(v[i])) for v in vertices] + [Fraction(float(x[i]))]
            for i in range(k - 1)]
    rows.append([Fraction(1)] * (k + 1))
    for col in range(k):
        piv = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def exact_membership(vertices, x):
    """The violation from x's exact coordinates: -min p, snapped to 0.0
    below 1e-12."""
    worst = -min(exact_coordinates(vertices, x))
    return 0.0 if worst < 1e-12 else float(worst)


def rounding_bound(hull):
    """eps such that every computed coordinate c = fl(inv[:, :-1] x +
    inv[:, -1]) lies within eps ||p||_1 of x's exact coordinate p.

    With k = n + 1 and gamma = k u / (1 - k u): c is a rounding of
    q = inv [x; 1], within gamma (|inv| |[x; 1]|)_i of it in any summation
    order, fused or not. As [x; 1] = m p, |[x; 1]| <= |m| |p|, and
    q - p = (inv m - I) p. So |c - p| <= eps ||p||_1 with
        eps = 2 gamma g + f,
    where g and f are the largest entries of |inv| |m| and of the computed
    |inv m - I|: one gamma g bounds the rounding of each product, the other
    that of the computed inv m."""
    inv = hull.barycentric_inverse
    k = len(inv)
    m = np.vstack([hull.vertices.T, np.ones(k)])
    gamma = k * _U / (1 - k * _U)
    g = (np.abs(inv) @ np.abs(m)).max()
    return 2 * gamma * g + np.abs(inv @ m - np.eye(k)).max()


def assert_matches_exact(hull, x):
    """hull.membership_violation(x) against x's exact coordinates: +0.0
    where they are all >= 0 and, for a point outside, within the rounding
    bound of -min p; either answer near the 1e-12 snap. A NaN entry gives
    NaN, and an infinite one never 0.0. Returns the answer."""
    got = hull.membership_violation(x)
    assert type(got) is float
    if np.isnan(x).any():
        assert math.isnan(got)
        return got
    if np.isinf(x).any():
        assert math.isnan(got) or got == math.inf
        return got
    p = exact_coordinates(hull.vertices, x)
    worst = max(Fraction(0), -min(p))
    tol = Fraction(rounding_bound(hull)) * sum(abs(pi) for pi in p)
    near = abs(Fraction(got) - worst) <= tol
    plus_zero = got == 0.0 and not np.signbit(got)
    if min(p) >= 0:
        assert tol < 1e-12  # the bound admits the snap: the answer is exact
    if worst + tol < 1e-12:
        assert plus_zero
    elif worst - tol >= 1e-12:
        assert near
    else:
        assert near or plus_zero
    return got


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_hull_membership_matches_lstsq(seed, n):
    rng = np.random.default_rng(seed)
    vs = rng.uniform(-10.0, 10.0, size=(n + 1, n))
    assume(np.linalg.cond(np.vstack([vs.T, np.ones(n + 1)])) < 1e4)
    hull = VertexHull(vs)
    # strictly interior: every barycentric coordinate >= 0.1 / 1.5
    inside = (0.1 + rng.dirichlet(np.ones(n + 1))) / (1.0 + 0.1 * (n + 1))
    assert hull.membership_violation(inside @ vs) == 0.0 == exact_membership(vs, inside @ vs)
    assert not np.signbit(hull.membership_violation(inside @ vs))
    j = int(rng.integers(n + 1))
    # on the facet opposite vertex j: the computed coordinates snap to 0
    facet = inside.copy()
    facet[(j + 1) % (n + 1)] += facet[j]
    facet[j] = 0.0
    assert hull.membership_violation(facet @ vs) == 0.0
    assert_matches_exact(hull, facet @ vs)
    # outside: coordinate j at most -0.4, the coordinates still sum to 1
    shift = rng.uniform(1.5, 3.0)
    outside = inside.copy()
    outside[j] -= shift
    outside[(j + 1) % (n + 1)] += shift
    x = outside @ vs
    assert exact_membership(vs, x) >= 0.4
    assert assert_matches_exact(hull, x) >= 0.4


# the origin lies on TRIANGLE's bottom edge, and deep inside this one
AROUND_ORIGIN = [(-1.0, -1.0), (1.0, -0.7), (0.1, 1.0)]


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e3, 1e5, 1e8])
@pytest.mark.parametrize("base", [TRIANGLE, AROUND_ORIGIN],
                         ids=["triangle", "around-origin"])
def test_hull_membership_is_scale_free(base, scale):
    # coordinates carry no unit: neither the interior test nor an outside
    # point's answer may drift as the hull grows
    vs = np.array(base) * scale
    hull = VertexHull(vs)
    rng = np.random.default_rng(0)
    # interior, every coordinate >= 0.02 / 1.06
    inside = (0.02 + rng.dirichlet(np.ones(3), size=300)) / 1.06
    points = list(inside @ vs)
    if base is AROUND_ORIGIN:  # near the origin, where ||[x; 1]|| is about 1
        points += list(inside @ vs * 1e-9)
    # on each facet, and at each vertex
    for j in range(3):
        facet = inside[:50].copy()
        facet[:, (j + 1) % 3] += facet[:, j]
        facet[:, j] = 0.0
        points += [*(facet @ vs), vs[j]]
    for x in points:
        assert hull.membership_violation(x) == 0.0
    # outside by 1e-6 in barycentric terms, across each facet: rounding x
    # moves its coordinates by about u, at every scale
    for j in range(3):
        c = np.full(3, 0.5)
        c[j] = -1e-6
        c[(j + 1) % 3] += 1e-6
        got = assert_matches_exact(hull, c @ vs)
        assert got == pytest.approx(1e-6, rel=0, abs=5e-16)


def hull_point(kind, vs, rng):
    """A point of the given kind for the simplex vs."""
    k = len(vs)
    j = int(rng.integers(k))
    c = rng.dirichlet(np.ones(k))
    if kind == "vertex":
        return vs[j].copy()
    if kind == "facet":  # coordinate j within +-1e-10 of 0
        t = rng.uniform(-1e-10, 1e-10)
        c[j] = 0.0
        c = c / c.sum() * (1.0 - t)
        c[j] = t
    elif kind == "outside":
        t = 10.0 ** rng.uniform(-8, 1)
        c[j] -= t
        c[(j + 1) % k] += t
    x = c @ vs
    if kind in ("nan", "inf", "-inf"):
        x[int(rng.integers(len(x)))] = float(kind)
    return x


def perturbed_simplex(n, log_scale, rng):
    """A perturbed n-simplex, shifted off the origin, at scale 10**log_scale."""
    simplex = np.vstack([np.zeros(n), np.eye(n)]) - 1.0 / (n + 1)
    return (simplex + 0.3 * rng.uniform(-1, 1, (n + 1, n))
            + rng.uniform(-0.5, 0.5, n)) * 10.0 ** log_scale


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=400)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-3.0, 8.0),
       st.sampled_from(["interior", "facet", "vertex", "outside", "nan", "inf", "-inf"]))
def test_hull_shortcut_agrees_with_the_full_check(seed, n, log_scale, kind):
    rng = np.random.default_rng(seed)
    vs = perturbed_simplex(n, log_scale, rng)
    hull = VertexHull(vs)
    assert_matches_exact(hull, hull_point(kind, vs, rng))


def test_triangle_points_skip_the_solve(monkeypatch):
    # once built, the hull answers from its stored inverse: its interior
    # points, edge points and vertices need no solve
    hull = VertexHull(TRIANGLE)
    monkeypatch.setattr(np.linalg, "solve", None)
    monkeypatch.setattr(np.linalg, "lstsq", None)
    for x in ([0.2, 0.3], [0.0, 0.0], [0.5, 0.5], *TRIANGLE):
        assert hull.membership_violation(x) == 0.0


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_hull_shortcut_reads_every_coordinate():
    # at (-inf, -inf) this hull's coordinates are (inf, nan, nan): a NaN
    # after a non-negative coordinate, which Python's min would let through
    hull = VertexHull([(0.0, 0.0), (2.0, 1.0), (1.0, 2.0)])
    x = np.array([-np.inf, -np.inf])
    inv = hull.barycentric_inverse
    coords = inv[:, :-1].dot(x) + inv[:, -1]
    assert coords[0] == np.inf and np.isnan(coords[1:]).all()
    assert math.isnan(hull.membership_violation(x))


def copied_row_lmo(hull, g):
    """VertexHull.lmo's point as it was computed before the method answered
    with a stored row: a matmul, then a copy of the chosen row."""
    vs = hull.vertices
    return vs[(vs @ np.asarray(g, dtype=float)).argmin()].copy()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-3.0, 8.0),
       st.sampled_from(["random", "zero", "tied", "nan", "inf"]))
def test_hull_lmo_answers_a_read_only_row_as_before(seed, n, log_scale, kind):
    rng = np.random.default_rng(seed)
    vs = perturbed_simplex(n, log_scale, rng)
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "zero":  # every vertex ties
        g[:] = 0.0
    elif kind == "tied":  # two vertices share the least coordinate i
        assume(n > 1)
        i = int(rng.integers(n))
        vs[rng.choice(n + 1, 2, replace=False), i] = vs[:, i].min()
        g[:] = 0.0
        g[i] = 10.0 ** rng.uniform(-3.0, 3.0)
    elif kind in ("nan", "inf"):
        g[int(rng.integers(n))] = float(kind) * rng.choice([-1.0, 1.0])
    hull = VertexHull(vs)
    want = copied_row_lmo(hull, g)
    got = hull.lmo(g).dense()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the answer is a stored row: it cannot be written into, and the hull's
    # vertices are a copy, so the caller's array stays its own
    assert not got.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got[0] = 1.0
    assert hull.vertices.tobytes() == vs.tobytes()
    assert vs.flags.writeable


def test_box_and_l1_membership():
    assert Box(1.0).membership_violation([1.0, -1.0]) == 0.0
    assert Box(1.0).membership_violation([1.5, 0.0]) == pytest.approx(0.5)
    assert L1Ball(1.0).membership_violation([0.6, -0.4]) == 0.0
    assert L1Ball(1.0).membership_violation([0.8, -0.4]) == pytest.approx(0.2)


@pytest.mark.parametrize("region, x", [
    (Box(1.0), [np.nan, 0.0]),
    (L1Ball(1.0), [0.0, np.nan]),
    (VertexHull(TRIANGLE), [np.nan, 0.0]),
    (VertexHull(TRIANGLE), [0.0, np.nan]),
], ids=["box", "l1", "hull-x", "hull-y"])
def test_nan_point_is_not_feasible(region, x):
    # max(0.0, nan) is 0.0: a bare max would report the point as feasible
    assert np.isnan(region.membership_violation(x))


def test_nuclear_nan_point_is_not_feasible():
    with pytest.raises(np.linalg.LinAlgError):
        NuclearBall(1.0, (2, 2)).membership_violation(np.array([[np.nan, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("make", [Box, L1Ball,
                                  lambda a: NuclearBall(a, (2, 2))],
                         ids=["box", "l1", "nuclear"])
@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan])
def test_regions_reject_bad_alpha(make, alpha):
    with pytest.raises(ValueError, match="^alpha must be positive$"):
        make(alpha)


@pytest.mark.parametrize("make", [Box, L1Ball,
                                  lambda a: NuclearBall(a, (2, 2))],
                         ids=["box", "l1", "nuclear"])
def test_regions_reject_infinite_alpha(make):
    # an infinite radius puts every atom at infinity: the first step is NaN
    with pytest.raises(ValueError, match="^alpha must be finite$"):
        make(np.inf)


@given(vectors, st.floats(0.5, 20.0))
def test_finite_membership_keeps_its_digits(x, alpha):
    # the NaN rule changes no finite answer, not even the sign of a zero
    for region, excess in ((Box(alpha), np.max(np.abs(x)) - alpha),
                           (L1Ball(alpha), np.abs(x).sum() - alpha)):
        got = region.membership_violation(x)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(max(0.0, excess)).tobytes()


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_nuclear_lmo_against_dense_svd(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((20, 30))
    ball = NuclearBall(5.0, (20, 30))
    d = ball.lmo(g).dense()
    s = np.linalg.svd(g, compute_uv=False)
    svd_score = -5.0 * s[0]
    power_score = float(np.sum(d * g))
    # power iteration must reach the dense-SVD objective value
    assert power_score <= svd_score * (1 - 1e-6) + 1e-9
    # and the atom itself sits on the nuclear sphere
    assert np.linalg.svd(d, compute_uv=False).sum() == pytest.approx(5.0, rel=1e-9)


@given(st.integers(0, 2 ** 31 - 1))
def test_nuclear_lmo_dominates_random_rank_one(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((6, 5))
    ball = NuclearBall(2.0, (6, 5))
    score = float(np.sum(ball.lmo(g).dense() * g))
    u = rng.standard_normal(6)
    v = rng.standard_normal(5)
    cand = -2.0 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    assert score <= float(np.sum(cand * g)) + 1e-8


def test_nuclear_zero_gradient_tie_break():
    ball = NuclearBall(1.0, (3, 4))
    d = ball.lmo(np.zeros((3, 4))).dense()
    expect = np.zeros((3, 4))
    expect[0, 0] = -1.0
    assert np.array_equal(d, expect)


def test_nuclear_shape_check():
    with pytest.raises(ValueError, match="shape"):
        NuclearBall(1.0, (3, 4)).lmo(np.zeros((4, 3)))


def test_nuclear_membership():
    ball = NuclearBall(2.0, (2, 2))
    assert ball.membership_violation(np.diag([1.0, 0.5])) == 0.0
    assert ball.membership_violation(np.diag([2.0, 1.0])) == pytest.approx(1.0)


def test_power_iteration_failure_carries_residual(monkeypatch):
    monkeypatch.setattr(geometry, "_POWER_ITERS", 1)
    g = np.diag([2.0, 1.0])
    with pytest.raises(PowerIterationError, match="in 1 iterations") as exc:
        NuclearBall(1.0, (2, 2)).lmo(g)
    assert exc.value.residual > 1e-10


def two_product_power_iteration(g, max_iter=5000, tol=1e-10):
    """The power iteration as it was before the quotient's Gram product was
    reused: gtg @ v computed once for the step and again for the quotient."""
    gtg = g.T @ g
    v = gtg.sum(axis=1)
    nv = np.linalg.norm(v)
    if nv < 1e-300:
        v = np.random.default_rng(0).standard_normal(g.shape[1])
        nv = np.linalg.norm(v)
    v = v / nv
    rho = float(v @ (gtg @ v))
    rel = np.inf
    for _ in range(1, max_iter + 1):
        w = gtg @ v
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            v = np.random.default_rng(0).standard_normal(g.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w / nw
        rho_next = float(v @ (gtg @ v))
        rel = abs(rho_next - rho) / max(abs(rho_next), 1e-300)
        rho = rho_next
        if rel < tol:
            u = g @ v
            return u / np.linalg.norm(u), v
    raise PowerIterationError(rel, max_iter)


def _close_pair(seed, ratio=0.99):
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((9, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((7, 6)))
    return (u * [1.0, ratio, 0.5, 0.3, 0.2, 0.1]) @ v.T


@pytest.mark.parametrize("g", [
    *[np.random.default_rng(seed).standard_normal(shape)
      for seed, shape in ((1, (20, 30)), (2, (30, 20)), (3, (1, 5)), (4, (8, 8)))],
    _close_pair(5), _close_pair(6),
    np.array([[1.0, -1.0], [2.0, -2.0]]),  # g^T g row sums vanish: random start
], ids=["20x30", "30x20", "1x5", "8x8", "close-pair-5", "close-pair-6", "random-start"])
def test_power_iteration_reuses_its_gram_product_bitwise(g):
    u, v = _top_singular_pair(g)
    u_ref, v_ref = two_product_power_iteration(g)
    assert np.array_equal(u, u_ref) and np.array_equal(v, v_ref)


def test_power_iteration_restart_in_loop_fails_like_two_products(monkeypatch):
    # g^T g underflows to subnormals, so every step restarts from the seeded
    # random vector and neither loop ever forms a quotient
    monkeypatch.setattr(geometry, "_POWER_ITERS", 40)
    g = 1e-160 * np.array([[1.0, -1.0], [2.0, -3.0]])
    with pytest.raises(PowerIterationError) as new:
        _top_singular_pair(g)
    with pytest.raises(PowerIterationError) as old:
        two_product_power_iteration(g, max_iter=40)
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("region, g", [
    (Box(1.0), [0.5, -1.0]),
    (L1Ball(2.0), [0.5, -1.0]),
    (VertexHull(TRIANGLE), [0.5, -1.0]),
    (NuclearBall(1.0, (2, 3)), np.arange(6.0).reshape(2, 3)),
], ids=["box", "l1", "hull", "nuclear"])
def test_instance_dense_shadows_the_method(region, g):
    # bench/spans.py times every answer this way, so an answer keeps an
    # instance __dict__
    atom = region.lmo(g)
    calls, dense = [], atom.dense
    object.__setattr__(atom, "dense", lambda: calls.append(1) or dense())
    assert np.array_equal(atom.dense(), region.lmo(g).dense())
    assert calls == [1]


def test_atom_dense_shapes():
    assert L1Ball(2.0).lmo([0, 1, 0, 0]).dense().shape == (4,)
    assert Box(1.0).lmo([1, 1, 1]).dense().shape == (3,)
    assert NuclearBall(1.0, (2, 5)).lmo(np.ones((2, 5))).dense().shape == (2, 5)
