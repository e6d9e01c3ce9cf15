"""Pre-assembled problem instances at desk scale.

Seeded constructors draw from numpy's default generator (PCG64), so a seed
pins the instance bit-for-bit across runs and platforms.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Box, L1Ball, NuclearBall, VertexHull
from .objectives import DistanceSq, HuberMatrix, HuberScalar, LeastSquares, Logistic

__all__ = [
    "ProblemInstance", "make_triangle", "make_scalar_huber", "make_sensing",
    "make_sensing_logistic", "make_logistic", "make_matrix_completion",
    "TRIANGLE_VERTICES",
]

TRIANGLE_VERTICES = ((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0))


@dataclass(frozen=True)
class ProblemInstance:
    """Checked when built: x0, kept as a read-only copy, must be finite
    and feasible, and f(x0) no lower than a declared optimum."""

    objective: object
    region: object
    x0: np.ndarray
    f_star: Optional[float]
    label: str

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=float)
        x0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        if not np.isfinite(x0).all():
            raise ValueError(f"{self.label}: x0 must be finite")
        if self.region.membership_violation(x0) > 1e-9:
            raise ValueError(f"{self.label}: x0 is not feasible")
        if self.f_star is not None and self.objective.value(x0) < self.f_star - 1e-12:
            raise ValueError(f"{self.label}: f(x0) below declared optimum")


def make_triangle(x_star=(0.2, 0.3)) -> ProblemInstance:
    """Squared distance to a point strictly inside a fixed triangle.

    The target must be strictly interior (all barycentric coordinates
    positive); otherwise the declared optimum 0 would sit on the boundary
    where the vertex oracle degenerates.
    """
    hull = VertexHull(TRIANGLE_VERTICES)
    xs = np.asarray(x_star, dtype=float)
    if xs.shape != (2,):
        raise ValueError(f"x_star needs 2 coordinates, got {xs.size}")
    coeffs = hull.barycentric_inverse @ np.append(xs, 1.0)
    if not np.all(coeffs > 1e-12):  # a NaN coordinate fails too
        raise ValueError("x_star must lie strictly inside the triangle")
    return ProblemInstance(
        objective=DistanceSq(xs),
        region=hull,
        x0=np.array([0.0, 1.0]),
        f_star=0.0,
        label="triangle",
    )


def make_scalar_huber(epsilon: float) -> ProblemInstance:
    """Smoothed |x| on the interval [-1, 1], started at the right endpoint."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    return ProblemInstance(
        objective=HuberScalar(epsilon),
        region=Box(1.0),
        x0=np.array([1.0]),
        f_star=0.0,
        label="scalar_huber",
    )


def _sensing_data(m, n, sparsity, noise_sd, seed):
    # order of draws is part of the contract: reruns must be bit-identical
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if not 0 < sparsity <= 1:
        raise ValueError("sparsity must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, int(np.ceil(sparsity * n)), replace=False)
    x_true[support] = rng.standard_normal(len(support))
    noise = rng.normal(0.0, noise_sd, size=m)
    return g, g @ x_true + noise


def make_sensing(m=500, n=100, sparsity=0.10, noise_sd=0.05, alpha=1000.0,
                 seed=0) -> ProblemInstance:
    """Noisy sparse recovery: least squares over an l1 ball.

    G has iid standard normal entries, the ground truth has
    ceil(sparsity * n) standard normal nonzeros at seeded positions, and
    the target picks up Normal(0, noise_sd) noise per row.
    """
    g, h = _sensing_data(m, n, sparsity, noise_sd, seed)
    return ProblemInstance(
        objective=LeastSquares(g, h),
        region=L1Ball(alpha),
        x0=np.zeros(n),
        f_star=None,
        label=f"sensing(m={m},n={n},seed={seed})",
    )


def make_sensing_logistic(m=500, n=100, sparsity=0.10, noise_sd=0.05,
                          alpha=1000.0, seed=0) -> ProblemInstance:
    """Logistic loss on a sensing design, labels from the sign of the target.

    Shares the seeded draw with make_sensing so the two problems see the
    same design matrix.
    """
    g, h = _sensing_data(m, n, sparsity, noise_sd, seed)
    return make_logistic(g, np.where(h >= 0, 1.0, -1.0), alpha)


def make_logistic(features, labels, alpha) -> ProblemInstance:
    """Mean logistic loss over an l1 ball, started at the origin."""
    obj = Logistic(features, labels)
    return ProblemInstance(
        objective=obj,
        region=L1Ball(alpha),
        x0=np.zeros(obj.features.shape[1]),
        f_star=None,
        label=f"logistic(m={obj.m},n={obj.features.shape[1]})",
    )


def make_matrix_completion(ratings, shape, alpha, rho) -> ProblemInstance:
    """Huber-penalized completion over a nuclear-norm ball.

    ratings: (row, col, raw value) triples; raw values are recentred by 3
    (the midpoint of a 1..5 scale) before fitting. Duplicate indices are
    rejected.
    """
    triples = list(ratings)
    seen = set()
    for r, c, _ in triples:
        if (r, c) in seen:
            raise ValueError(f"duplicate observed index ({r}, {c})")
        seen.add((r, c))
    observed = np.array([(r, c) for r, c, _ in triples], dtype=int).reshape(-1, 2)
    values = np.array([v for _, _, v in triples], dtype=float) - 3.0
    obj = HuberMatrix(observed, values, rho, shape)
    return ProblemInstance(
        objective=obj,
        region=NuclearBall(alpha, shape),
        x0=np.zeros(shape),
        f_star=None,
        label=f"completion(shape={shape[0]}x{shape[1]})",
    )
