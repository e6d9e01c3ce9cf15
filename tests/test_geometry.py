import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkfw import geometry
from rkfw.geometry import (Box, DenseAtom, L1Ball, NuclearBall,
                           PowerIterationError, VertexHull, _top_singular_pair)

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


def test_hull_rejects_degenerate_at_construction():
    with pytest.raises(ValueError, match="degenerate hull"):
        VertexHull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])


def lstsq_membership(vertices, x):
    """Violation from a least-squares barycentric solve, snapped to 0
    below 1e-12."""
    m = np.vstack([vertices.T, np.ones(len(vertices))])
    rhs = np.append(x, 1.0)
    coeffs = np.linalg.lstsq(m, rhs, rcond=None)[0]
    v = max(0.0, -float(np.min(coeffs)), float(np.linalg.norm(m @ coeffs - rhs)))
    return 0.0 if v < 1e-12 else v


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_hull_membership_matches_lstsq(seed, n):
    rng = np.random.default_rng(seed)
    vs = rng.uniform(-10.0, 10.0, size=(n + 1, n))
    assume(np.linalg.cond(np.vstack([vs.T, np.ones(n + 1)])) < 1e4)
    hull = VertexHull(vs)
    # strictly interior: every barycentric coordinate >= 0.1 / 1.5
    inside = (0.1 + rng.dirichlet(np.ones(n + 1))) / (1.0 + 0.1 * (n + 1))
    assert hull.membership_violation(inside @ vs) == 0.0 == lstsq_membership(vs, inside @ vs)
    assert not np.signbit(hull.membership_violation(inside @ vs))
    j = int(rng.integers(n + 1))
    # on the facet opposite vertex j: both solves snap to 0
    facet = inside.copy()
    facet[(j + 1) % (n + 1)] += facet[j]
    facet[j] = 0.0
    assert hull.membership_violation(facet @ vs) == lstsq_membership(vs, facet @ vs) == 0.0
    # outside: coordinate j at most -0.4, the coordinates still sum to 1
    shift = rng.uniform(1.5, 3.0)
    outside = inside.copy()
    outside[j] -= shift
    outside[(j + 1) % (n + 1)] += shift
    x = outside @ vs
    want = lstsq_membership(vs, x)
    assert want >= 0.4
    assert hull.membership_violation(x) == want


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


def test_atom_dense_shapes():
    assert L1Ball(2.0).lmo([0, 1, 0, 0]).dense().shape == (4,)
    assert Box(1.0).lmo([1, 1, 1]).dense().shape == (3,)
    assert NuclearBall(1.0, (2, 5)).lmo(np.ones((2, 5))).dense().shape == (2, 5)
