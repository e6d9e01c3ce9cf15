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


class PowerIterationError(RuntimeError):
    def __init__(self, residual, iterations):
        super().__init__(
            f"power iteration did not converge in {iterations} iterations "
            f"(last relative residual {residual:.3e})")
        self.residual = residual


class Box:
    """Hypercube [-alpha, alpha]^n."""

    def __init__(self, alpha: float, n: int):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.n = int(n)

    def lmo(self, g) -> DenseAtom:
        g = np.asarray(g, dtype=float)
        return DenseAtom(-self.alpha * _sign(g))

    def membership_violation(self, x) -> float:
        return float(max(0.0, np.max(np.abs(x)) - self.alpha))

    def diameter(self) -> float:
        return 2.0 * self.alpha * np.sqrt(self.n)


class L1Ball:
    """{x : ||x||_1 <= alpha}. Atoms are signed scaled basis vectors."""

    def __init__(self, alpha: float, n: int):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.n = int(n)

    def lmo(self, g) -> DenseAtom:
        g = np.asarray(g, dtype=float)
        j = int(np.abs(g).argmax())  # ties break at the lowest index
        s = np.zeros(self.n)
        # sign(0) := +1 as in _sign; a NaN entry takes -1
        s[j] = -self.alpha if g[j] >= 0.0 else self.alpha
        return DenseAtom(s)

    def membership_violation(self, x) -> float:
        return float(max(0.0, np.abs(x).sum() - self.alpha))

    def diameter(self) -> float:
        return 2.0 * self.alpha


def _barycentric_violation(m, coeffs, rhs):
    """How far barycentric coefficients are from certifying membership:
    the most negative coefficient or the solve's residual."""
    r = m @ coeffs - rhs
    recon = math.sqrt(r.dot(r))  # np.linalg.norm(r), without its overhead
    return float(max(0.0, -coeffs.min(), recon))


class VertexHull:
    """Convex hull of an explicit vertex list.

    Membership is a barycentric solve [vertices^T; 1^T] c = [x; 1], so only
    simplices (n+1 affinely independent vertices) support it, which covers
    every hull used here. The system and its inverse are built once, as
    barycentric_matrix and barycentric_inverse; both are None for other
    hulls, whose membership check raises when it is asked for.
    """

    def __init__(self, vertices):
        vs = np.asarray(vertices, dtype=float)
        if vs.ndim != 2 or len(vs) < 1 or not np.all(np.isfinite(vs)):
            raise ValueError("need a nonempty 2-d array of finite vertices")
        self.vertices = vs
        self.n = vs.shape[1]
        self.barycentric_matrix = self.barycentric_inverse = None
        if len(vs) != self.n + 1:
            self._membership_error = "membership check unsupported for non-simplex hulls"
            return
        m = np.vstack([vs.T, np.ones(len(vs))])
        if np.linalg.lstsq(m, np.ones(len(vs)), rcond=None)[2] < len(vs):
            self._membership_error = "membership check unsupported for degenerate hulls"
            return
        self.barycentric_matrix = m
        self.barycentric_inverse = np.linalg.solve(m, np.eye(len(vs)))

    def lmo(self, g) -> DenseAtom:
        scores = self.vertices @ np.asarray(g, dtype=float)
        return DenseAtom(self.vertices[scores.argmin()].copy())

    def membership_violation(self, x) -> float:
        if self.barycentric_inverse is None:
            raise ValueError(self._membership_error)
        m = self.barycentric_matrix
        rhs = np.concatenate((np.asarray(x, dtype=float).reshape(-1), (1.0,)))
        # The inverse's coefficients differ from the least-squares ones by
        # rounding (about cond(m) eps |c|), so a point this far below the
        # snap threshold is interior under both. Any other point is
        # reported from the least-squares solution, digit for digit.
        if _barycentric_violation(m, self.barycentric_inverse @ rhs, rhs) < 0.5e-12:
            return 0.0
        v = _barycentric_violation(m, np.linalg.lstsq(m, rhs, rcond=None)[0], rhs)
        # snap solver noise to a clean zero for interior points
        return 0.0 if v < 1e-12 else v

    def diameter(self) -> float:
        vs = self.vertices
        d2 = np.sum((vs[:, None, :] - vs[None, :, :]) ** 2, axis=-1)
        return float(np.sqrt(np.max(d2)))


class NuclearBall:
    """{X : sum of singular values <= alpha} over n-by-m matrices."""

    def __init__(self, alpha: float, shape):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)
        self.shape = (int(shape[0]), int(shape[1]))

    def lmo(self, g, max_iter: int = 5000) -> DenseAtom:
        g = np.asarray(g, dtype=float)
        if g.shape != self.shape:
            raise ValueError(f"gradient shape {g.shape} != region shape {self.shape}")
        if not np.any(g):
            # zero functional: any atom minimizes; fixed tie-break
            u = np.zeros(self.shape[0]); u[0] = 1.0
            v = np.zeros(self.shape[1]); v[0] = 1.0
        else:
            u, v = _top_singular_pair(g, max_iter)
        return DenseAtom(-self.alpha * np.outer(u, v))

    def membership_violation(self, x) -> float:
        sv = np.linalg.svd(np.asarray(x, dtype=float), compute_uv=False)
        return float(max(0.0, sv.sum() - self.alpha))

    def diameter(self) -> float:
        # ||X||_F <= ||X||_* <= alpha, so Frobenius distance <= 2 alpha
        return 2.0 * self.alpha


def _top_singular_pair(g, max_iter=5000, tol=1e-10):
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
    for it in range(1, max_iter + 1):
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
        if rel < tol:
            u = g @ v
            return u / np.linalg.norm(u), v
    raise PowerIterationError(rel, max_iter)
