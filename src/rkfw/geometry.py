"""Feasible regions and their linear minimization oracles.

Each region answers lmo(g): an extreme point minimizing <g, s>, returned
as a DenseAtom whose dense() gives the point as an array. Every caller
materializes the answer at once.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DenseAtom", "Box", "L1Ball", "VertexHull", "NuclearBall",
    "PowerIterationError",
]


@dataclass(frozen=True)
class DenseAtom:
    """An oracle answer; dense() returns its point as a float array.

    Kept, rather than returning the array, only because bench/spans.py
    times each answer by setting `dense` on it.
    """
    point: np.ndarray

    def dense(self):
        return np.asarray(self.point, dtype=float)


def _sign(v):
    # sign(0) := +1 for deterministic tie-breaking
    return np.where(np.asarray(v) >= 0.0, 1.0, -1.0)


def _radius(alpha) -> float:
    """alpha as a float, once checked positive and finite; a NaN fails too."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if alpha == math.inf:
        raise ValueError("alpha must be finite")
    return float(alpha)


def _excess(v) -> float:
    """max(0.0, v), but NaN for a NaN v, where max gives 0.0."""
    return 0.0 if v <= 0.0 else float(v)


class PowerIterationError(ArithmeticError):
    def __init__(self, residual, iterations):
        super().__init__(
            f"power iteration did not converge in {iterations} iterations "
            f"(last relative residual {residual:.3e})")
        self.residual = residual


class Box:
    """Hypercube [-alpha, alpha]^n; n is the gradient's length."""

    def __init__(self, alpha: float):
        self.alpha = _radius(alpha)

    def lmo(self, g) -> DenseAtom:
        g = np.asarray(g, dtype=float)
        return DenseAtom(-self.alpha * _sign(g))

    def membership_violation(self, x) -> float:
        return _excess(np.max(np.abs(x)) - self.alpha)


class L1Ball:
    """{x : ||x||_1 <= alpha}. Atoms are signed scaled basis vectors."""

    def __init__(self, alpha: float):
        self.alpha = _radius(alpha)

    def lmo(self, g) -> DenseAtom:
        g = np.asarray(g, dtype=float)
        j = int(np.abs(g).argmax())  # ties break at the lowest index
        s = np.zeros(len(g))
        # sign(0) := +1 as in _sign; a NaN entry takes -1
        s[j] = -self.alpha if g[j] >= 0.0 else self.alpha
        return DenseAtom(s)

    def membership_violation(self, x) -> float:
        return _excess(np.abs(x).sum() - self.alpha)


def _barycentric_violation(m, coeffs, rhs):
    """How far barycentric coefficients are from certifying membership:
    the most negative coefficient or the solve's residual."""
    r = m @ coeffs - rhs
    recon = math.sqrt(r.dot(r))  # np.linalg.norm(r), without its overhead
    return _excess(max(-coeffs.min(), recon))


class VertexHull:
    """Convex hull of an explicit vertex list.

    Membership is a barycentric solve [vertices^T; 1^T] c = [x; 1], so the
    hull must be a simplex: n+1 affinely independent vertices in n
    dimensions, checked when built. The system and its inverse are built
    once, as barycentric_matrix and barycentric_inverse.
    """

    def __init__(self, vertices):
        vs = np.asarray(vertices, dtype=float)
        if vs.ndim != 2 or not np.all(np.isfinite(vs)):
            raise ValueError("need a 2-d array of finite vertices")
        n = vs.shape[1]
        if len(vs) != n + 1:
            raise ValueError(f"non-simplex hull: {len(vs)} vertices in {n} "
                             f"dimensions, need {n + 1}")
        m = np.vstack([vs.T, np.ones(len(vs))])
        if np.linalg.matrix_rank(m) < len(vs):
            raise ValueError("degenerate hull: the vertices are affinely dependent")
        self.vertices = vs
        self.barycentric_matrix = m
        self.barycentric_inverse = np.linalg.solve(m, np.eye(len(vs)))

    def lmo(self, g) -> DenseAtom:
        scores = self.vertices @ np.asarray(g, dtype=float)
        return DenseAtom(self.vertices[scores.argmin()].copy())

    def membership_violation(self, x) -> float:
        m = self.barycentric_matrix
        rhs = np.concatenate((np.asarray(x, dtype=float).reshape(-1), (1.0,)))
        # The inverse's coefficients differ from the least-squares ones by
        # rounding (about cond(m) eps |c|), so a point this far below the
        # snap threshold is interior under both. Any other point is
        # reported from the least-squares solution, digit for digit.
        fast = _barycentric_violation(m, self.barycentric_inverse @ rhs, rhs)
        if fast < 0.5e-12:
            return 0.0
        if math.isnan(fast):  # a point with a NaN entry
            return fast
        v = _barycentric_violation(m, np.linalg.lstsq(m, rhs, rcond=None)[0], rhs)
        # snap solver noise to a clean zero for interior points
        return 0.0 if v < 1e-12 else v


class NuclearBall:
    """{X : sum of singular values <= alpha} over n-by-m matrices."""

    def __init__(self, alpha: float, shape):
        self.alpha = _radius(alpha)
        self.shape = (int(shape[0]), int(shape[1]))

    def lmo(self, g) -> DenseAtom:
        g = np.asarray(g, dtype=float)
        if g.shape != self.shape:
            raise ValueError(f"gradient shape {g.shape} != region shape {self.shape}")
        if not np.any(g):
            # zero functional: any atom minimizes; fixed tie-break
            u = np.zeros(self.shape[0]); u[0] = 1.0
            v = np.zeros(self.shape[1]); v[0] = 1.0
        else:
            u, v = _top_singular_pair(g)
        return DenseAtom(-self.alpha * np.outer(u, v))

    def membership_violation(self, x) -> float:
        sv = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
        return _excess(sv.sum() - self.alpha)


_POWER_ITERS = 5000  # power iteration's step budget
_POWER_TOL = 1e-10  # it stops once the quotient's relative change is below this


def _top_singular_pair(g):
    """Leading singular vectors of g by power iteration on g^T g.

    Start vector is the normalized row-sum of g^T g, with a fixed-seed
    random restart when that vector is degenerate.
    """
    gtg = g.T @ g
    v = gtg.sum(axis=1)
    nv = np.linalg.norm(v)
    if nv < 1e-300:
        v = np.random.default_rng(0).standard_normal(g.shape[1])
        nv = np.linalg.norm(v)
    v = v / nv
    w = gtg @ v  # the product for the quotient is also the next step's
    rho = float(v @ w)
    rel = np.inf
    for _ in range(_POWER_ITERS):
        nw = np.linalg.norm(w)
        if nw < 1e-300:
            v = np.random.default_rng(0).standard_normal(g.shape[1])
            v /= np.linalg.norm(v)
            w = gtg @ v
            continue
        v = w / nw
        w = gtg @ v
        rho_next = float(v @ w)
        rel = abs(rho_next - rho) / max(abs(rho_next), 1e-300)
        rho = rho_next
        if rel < _POWER_TOL:
            u = g @ v
            return u / np.linalg.norm(u), v
    raise PowerIterationError(rel, _POWER_ITERS)
