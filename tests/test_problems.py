from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from rkfw.objectives import check_gradient
from rkfw.problems import (ProblemInstance, make_logistic,
                           make_matrix_completion, make_scalar_huber,
                           make_sensing, make_sensing_logistic, make_triangle)
from rkfw.geometry import Box


def test_triangle_start_value():
    p = make_triangle()
    assert p.objective.value(p.x0) == pytest.approx(0.265)
    assert p.f_star == 0.0
    assert p.region.membership_violation(p.x0) == 0.0


def test_triangle_rejects_vertex_target():
    with pytest.raises(ValueError, match="strictly inside"):
        make_triangle((1.0, 0.0))
    with pytest.raises(ValueError, match="strictly inside"):
        make_triangle((0.4, 0.6))  # on the right edge
    with pytest.raises(ValueError, match="strictly inside"):
        make_triangle((2.0, 2.0))


@pytest.mark.parametrize("x_star", [(0.1,), ()])
def test_triangle_rejects_wrong_length_target(x_star):
    with pytest.raises(ValueError, match=f"x_star needs 2 coordinates, got {len(x_star)}"):
        make_triangle(x_star)


def test_scalar_huber_start_value():
    p = make_scalar_huber(0.25)
    # f(1) = eps - eps^2/2 in the linear branch
    assert p.objective.value(p.x0) == pytest.approx(0.25 - 0.25 ** 2 / 2)
    with pytest.raises(ValueError, match="epsilon"):
        make_scalar_huber(1.5)


def test_sensing_same_seed_bit_identical():
    a = make_sensing(m=40, n=10, seed=3)
    b = make_sensing(m=40, n=10, seed=3)
    assert np.array_equal(a.objective.g, b.objective.g)
    assert np.array_equal(a.objective.h, b.objective.h)
    c = make_sensing(m=40, n=10, seed=4)
    assert not np.array_equal(a.objective.g, c.objective.g)


def test_sensing_shapes_and_start():
    p = make_sensing(m=30, n=8, sparsity=0.5, alpha=10.0, seed=0)
    assert p.objective.g.shape == (30, 8)
    assert np.array_equal(p.x0, np.zeros(8))
    assert p.f_star is None
    with pytest.raises(ValueError, match="sparsity"):
        make_sensing(sparsity=0.0)
    with pytest.raises(ValueError, match="positive"):
        make_sensing(m=0)


def test_sensing_logistic_shares_design():
    ls = make_sensing(m=25, n=6, seed=11)
    lg = make_sensing_logistic(m=25, n=6, seed=11)
    assert np.array_equal(ls.objective.g, lg.objective.features)
    assert set(np.unique(lg.objective.labels)) <= {-1.0, 1.0}
    # labels are the signs of the least-squares targets
    assert np.array_equal(lg.objective.labels, np.where(ls.objective.h >= 0, 1.0, -1.0))


def test_make_logistic_validates_labels():
    feats = np.ones((4, 2))
    with pytest.raises(ValueError):
        make_logistic(feats, np.array([1.0, 2.0, 1.0, -1.0]), alpha=5.0)
    p = make_logistic(feats, np.array([1.0, -1.0, 1.0, -1.0]), alpha=5.0)
    assert np.array_equal(p.x0, np.zeros(2))


def test_completion_recentres_and_checks_duplicates():
    p = make_matrix_completion([(0, 0, 5.0), (1, 2, 1.0)], (2, 3), 4.0, 1.0)
    assert np.array_equal(np.sort(p.objective.ratings), [-2.0, 2.0])
    assert p.x0.shape == (2, 3)
    with pytest.raises(ValueError, match=r"duplicate.*\(0, 0\)"):
        make_matrix_completion([(0, 0, 5.0), (0, 0, 1.0)], (2, 3), 4.0, 1.0)


def test_problem_instance_rejects_infeasible_start():
    with pytest.raises(ValueError, match="not feasible"):
        ProblemInstance(
            objective=make_scalar_huber(0.5).objective,
            region=Box(1.0),
            x0=np.array([2.0]),
            f_star=0.0,
            label="bad",
        )


@pytest.mark.parametrize("x0", [[np.nan], [np.inf]])
def test_problem_instance_rejects_non_finite_start(x0):
    with pytest.raises(ValueError, match="^bad: x0 must be finite$"):
        ProblemInstance(
            objective=make_scalar_huber(0.5).objective,
            region=Box(1.0),
            x0=np.array(x0),
            f_star=None,
            label="bad",
        )


def test_triangle_rejects_nan_target():
    with pytest.raises(ValueError, match="strictly inside"):
        make_triangle((np.nan, 0.3))


def test_problem_instance_is_frozen_with_a_read_only_start():
    x0 = np.array([0.5])
    p = ProblemInstance(make_scalar_huber(0.5).objective, Box(1.0), x0, 0.0, "p")
    x0[0] = 2.0  # the caller's array stays its own
    assert p.x0[0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        p.x0[0] = 2.0
    with pytest.raises(FrozenInstanceError):
        p.x0 = np.array([2.0])


def test_problem_instance_rejects_start_below_optimum():
    with pytest.raises(ValueError, match="below declared optimum"):
        ProblemInstance(
            objective=make_scalar_huber(0.5).objective,
            region=Box(1.0),
            x0=np.array([0.0]),
            f_star=0.5,
            label="bad",
        )


@pytest.mark.parametrize("factory", [
    lambda: make_triangle(),
    lambda: make_scalar_huber(0.3),
    lambda: make_sensing(m=20, n=6, seed=1, alpha=5.0),
    lambda: make_sensing_logistic(m=20, n=6, seed=1, alpha=5.0),
    lambda: make_matrix_completion([(0, 0, 5.0), (1, 1, 2.0)], (2, 2), 3.0, 1.0),
])
def test_constructed_gradients_check_out(factory):
    p = factory()
    rng = np.random.default_rng(5)
    pts = [p.x0, p.x0 + 0.1 * rng.standard_normal(p.x0.shape)]
    assert check_gradient(p.objective, pts) < 1e-5
