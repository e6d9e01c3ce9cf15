import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkfw.geometry import (Box, DenseAtom, L1Ball, NuclearBall,
                           PowerIterationError, VertexHull)

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
    box = Box(2.0, 3)
    atom = box.lmo([1.0, -3.0, 0.0]).dense()
    # sign(0) treated as +, so the last coordinate goes to -alpha
    assert np.array_equal(atom, [-2.0, 2.0, -2.0])


@given(vectors)
def test_box_lmo_minimizes_over_corners(g):
    box = Box(1.5, len(g))
    score = float(box.lmo(g).dense() @ g)
    # any corner of the box scores at least as high
    assert score <= -1.5 * np.sum(np.abs(g)) + 1e-9


def test_l1_lmo_frozen():
    ball = L1Ball(2.0, 4)
    atom = ball.lmo([0.5, -3.0, 1.0, 0.0])
    assert isinstance(atom, DenseAtom)
    assert np.array_equal(atom.dense(), [0.0, 2.0, 0.0, 0.0])


def test_l1_lmo_tie_breaks_low_index():
    atom = L1Ball(1.0, 3).lmo([1.0, 1.0, -1.0])
    assert np.array_equal(atom.dense(), [-1.0, 0.0, 0.0])


@given(vectors)
def test_l1_lmo_matches_enumeration(g):
    ball = L1Ball(2.0, len(g))
    _, best_score = l1_lmo_oracle(g, 2.0)
    assert float(ball.lmo(g).dense() @ g) == pytest.approx(best_score, abs=1e-12)


@given(vectors)
def test_l1_atoms_are_one_hot(g):
    atom = L1Ball(3.0, len(g)).lmo(g)
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


def test_hull_rejects_non_simplex_membership():
    square = VertexHull([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError, match="non-simplex"):
        square.membership_violation([0.5, 0.5])
    # the oracle does not need a simplex
    assert np.array_equal(square.lmo([1.0, 1.0]).dense(), [0.0, 0.0])
    assert np.array_equal(square.lmo([-1.0, -2.0]).dense(), [1.0, 1.0])


def test_hull_rejects_degenerate_membership():
    collinear = VertexHull([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError, match="degenerate"):
        collinear.membership_violation([1.0, 1.0])
    assert np.array_equal(collinear.lmo([1.0, 0.0]).dense(), [0.0, 0.0])


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


def test_hull_diameter():
    assert VertexHull(TRIANGLE).diameter() == pytest.approx(2.0)


def test_box_and_l1_membership():
    assert Box(1.0, 2).membership_violation([1.0, -1.0]) == 0.0
    assert Box(1.0, 2).membership_violation([1.5, 0.0]) == pytest.approx(0.5)
    assert L1Ball(1.0, 2).membership_violation([0.6, -0.4]) == 0.0
    assert L1Ball(1.0, 2).membership_violation([0.8, -0.4]) == pytest.approx(0.2)


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


def test_power_iteration_failure_carries_residual():
    g = np.diag([2.0, 1.0])
    with pytest.raises(PowerIterationError) as exc:
        NuclearBall(1.0, (2, 2)).lmo(g, max_iter=1)
    assert exc.value.residual > 1e-10


def test_atom_dense_shapes():
    assert L1Ball(2.0, 4).lmo([0, 1, 0, 0]).dense().shape == (4,)
    assert Box(1.0, 3).lmo([1, 1, 1]).dense().shape == (3,)
    assert NuclearBall(1.0, (2, 5)).lmo(np.ones((2, 5))).dense().shape == (2, 5)


def test_diameters():
    assert Box(2.0, 4).diameter() == pytest.approx(8.0)
    assert L1Ball(3.0, 7).diameter() == pytest.approx(6.0)
    assert NuclearBall(4.0, (3, 3)).diameter() == pytest.approx(8.0)
