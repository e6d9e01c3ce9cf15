import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rkfw.objectives import (DistanceSq, HuberMatrix, HuberScalar,
                             LeastSquares, Logistic, check_gradient)

rng0 = np.random.default_rng(0)
G = rng0.standard_normal((12, 5))
H = rng0.standard_normal(12)
LABELS = np.where(rng0.standard_normal(12) >= 0, 1.0, -1.0)


def convexity_triples(objective, dim, n=1000, scale=3.0, shape=None, seed=3):
    """f(mid) <= (f(a) + f(b))/2 over random segment midpoints."""
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n):
        if shape is None:
            a = rng.uniform(-scale, scale, dim)
            b = rng.uniform(-scale, scale, dim)
        else:
            a = rng.uniform(-scale, scale, shape)
            b = rng.uniform(-scale, scale, shape)
        gap = objective.value((a + b) / 2) - 0.5 * (objective.value(a) + objective.value(b))
        worst = max(worst, gap)
    return worst


def test_distance_sq_frozen():
    obj = DistanceSq([0.2, 0.3])
    assert obj.value([0.0, 1.0]) == pytest.approx(0.265)
    assert obj.gradient([0.0, 1.0]) == pytest.approx([-0.2, 0.7])


def test_least_squares_frozen():
    obj = LeastSquares(G, H)
    # at x = 0 the gradient is -G^T h / 1 (factor from the 1/2 ||Gx-h||^2 form)
    assert obj.gradient(np.zeros(5)) == pytest.approx(-G.T @ H)
    assert obj.value(np.zeros(5)) == pytest.approx(0.5 * float(H @ H))


def test_logistic_frozen_at_origin():
    obj = Logistic(G, LABELS)
    assert obj.value(np.zeros(5)) == pytest.approx(np.log(2.0), abs=1e-12)
    # gradient at 0: -(1/2m) sum y_i z_i
    expect = -(G.T @ LABELS) / (2.0 * len(LABELS))
    assert obj.gradient(np.zeros(5)) == pytest.approx(expect, abs=1e-12)


def test_logistic_rejects_bad_labels():
    with pytest.raises(ValueError):
        Logistic(G, np.zeros(12))


def test_logistic_extreme_margins_stay_finite():
    obj = Logistic(np.array([[1e4], [-1e4]]), np.array([1.0, -1.0]))
    for x in ([100.0], [-100.0]):
        assert np.isfinite(obj.value(x))
        assert np.all(np.isfinite(obj.gradient(x)))


class FixedMargins(Logistic):
    """Identity features and unit labels whose margins are exactly the
    supplied array, signed zeros included."""

    def __init__(self, margins):
        super().__init__(np.eye(len(margins)), np.ones(len(margins)))
        self.margins = margins

    def _margins(self, x):
        return self.margins


def masked_sigmoid_gradient(obj, t):
    """Logistic gradient with sigmoid(-t) taken by the masked three-exp
    formula, the reference for the single-exp one."""
    s = np.empty_like(t)
    pos = t >= 0
    s[pos] = np.exp(-t[pos]) / (1.0 + np.exp(-t[pos]))
    s[~pos] = 1.0 / (1.0 + np.exp(t[~pos]))
    return -(obj.features.T @ (obj.labels * s)) / obj.m


def test_logistic_single_exp_sigmoid_is_bit_identical():
    rng = np.random.default_rng(11)
    tails = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.0, -36.0,
                      709.0, -709.0, 746.0, -746.0, np.inf, -np.inf])
    for trial in range(200):
        t = rng.standard_normal(64) * 10.0 ** rng.uniform(-3, 3)
        t[rng.integers(0, 64, len(tails))] = tails
        obj = FixedMargins(t)
        assert np.array_equal(obj.gradient(None), masked_sigmoid_gradient(obj, t)), trial


def test_huber_scalar_frozen():
    obj = HuberScalar(0.01)
    assert obj.value([0.5]) == pytest.approx(0.00495)
    assert obj.gradient([0.5]) == pytest.approx([0.01])
    assert obj.value([0.005]) == pytest.approx(1.25e-5)
    assert obj.gradient([-0.5]) == pytest.approx([-0.01])


@given(st.floats(-5, 5, allow_nan=False), st.floats(0.01, 1.0))
def test_huber_scalar_gradient_bounded_by_eps(v, eps):
    g = float(HuberScalar(eps).gradient([v])[0])
    assert abs(g) <= eps + 1e-15


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.05, 1.0))
def test_huber_scalar_gradient_one_lipschitz(a, b, eps):
    obj = HuberScalar(eps)
    ga = float(obj.gradient([a])[0])
    gb = float(obj.gradient([b])[0])
    assert abs(ga - gb) <= abs(a - b) + 1e-12


def test_huber_scalar_continuity_at_kink():
    obj = HuberScalar(0.3)
    lo = obj.value([0.3 - 1e-12])
    hi = obj.value([0.3 + 1e-12])
    assert lo == pytest.approx(hi, abs=1e-11)
    assert lo == pytest.approx(0.5 * 0.3 ** 2, abs=1e-11)


def test_huber_matrix_frozen():
    # one observed cell, residual 5, rho 2: tail value rho(|t|-rho)+rho^2/2
    obj = HuberMatrix([(0, 1)], [0.0], 2.0, (2, 3))
    x = np.zeros((2, 3))
    x[0, 1] = 5.0
    assert obj.value(x) == pytest.approx(2.0 * 3.0 + 2.0)  # = 8
    g = obj.gradient(x)
    assert g[0, 1] == pytest.approx(2.0)
    assert np.count_nonzero(g) == 1


def test_huber_matrix_tail_continuity():
    obj = HuberMatrix([(0, 0)], [0.0], 1.5, (1, 1))
    inner = obj.value([[1.5 - 1e-9]])
    outer = obj.value([[1.5 + 1e-9]])
    assert inner == pytest.approx(outer, abs=1e-8)
    assert inner == pytest.approx(0.5 * 1.5 ** 2, abs=1e-8)


def test_huber_matrix_index_checks():
    with pytest.raises(ValueError, match="outside shape"):
        HuberMatrix([(0, 5)], [1.0], 1.0, (2, 3))
    for rho in (0.0, np.nan):
        with pytest.raises(ValueError, match="^rho must be positive$"):
            HuberMatrix([(0, 0)], [1.0], rho, (1, 1))
    with pytest.raises(ValueError, match="^rho must be finite$"):
        HuberMatrix([(0, 0)], [1.0], np.inf, (1, 1))


@pytest.mark.parametrize("objective,dim,shape", [
    (DistanceSq(np.array([0.2, 0.3])), 2, None),
    (LeastSquares(G, H), 5, None),
    (Logistic(G, LABELS), 5, None),
    (HuberScalar(0.25), 1, None),
    (HuberMatrix([(0, 0), (1, 2)], [1.0, -0.5], 1.0, (2, 3)), None, (2, 3)),
])
def test_convexity_over_random_triples(objective, dim, shape):
    assert convexity_triples(objective, dim, shape=shape) <= 1e-9


@pytest.mark.parametrize("objective,points", [
    (DistanceSq(np.array([0.2, 0.3])), [np.array([0.0, 1.0]), np.array([1.0, -1.0])]),
    (LeastSquares(G, H), [np.zeros(5), np.ones(5) * 0.3]),
    (Logistic(G, LABELS), [np.zeros(5), np.ones(5) * 0.1]),
    (HuberScalar(0.25), [np.array([0.8]), np.array([0.1]), np.array([-0.6])]),
    (HuberMatrix([(0, 0), (1, 2)], [1.0, -0.5], 1.0, (2, 3)),
     [np.zeros((2, 3)), np.full((2, 3), 0.3)]),
])
def test_analytic_gradient_matches_central_difference(objective, points):
    assert check_gradient(objective, points) < 1e-6


def test_check_gradient_skips_kink_neighborhood():
    obj = HuberScalar(0.5)
    # the only supplied point sits on the kink: nothing is checked
    assert check_gradient(obj, [np.array([0.5])]) == 0.0


@given(arrays(np.float64, (4, 3), elements=st.floats(-2, 2, allow_nan=False)))
def test_least_squares_descent_direction(g):
    obj = LeastSquares(G, H)
    x = np.zeros(5)
    grad = obj.gradient(x)
    if np.linalg.norm(grad) > 1e-9:
        step = -1e-8 * grad / np.linalg.norm(grad)
        assert obj.value(x + step) <= obj.value(x) + 1e-15


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 1e3]), st.sampled_from([0.0, 1e-8, 1.0]))
def test_least_squares_gram_gradient_matches_residual_form(m, n, seed, x_scale, misfit):
    # tall and wide G; misfit 0 or 1e-8 gives near-fit h = G x, where the
    # gradient is far below the terms summed into it
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n))
    x = x_scale * rng.standard_normal(n)
    h = g @ x + misfit * rng.standard_normal(m)
    obj = LeastSquares(g, h)
    want = g.T @ (g @ x - h)
    scale = np.linalg.norm(g.T @ g) * np.linalg.norm(x) + np.linalg.norm(g.T @ h)
    assert np.max(np.abs(obj.gradient(x) - want)) <= 1e-12 * scale
