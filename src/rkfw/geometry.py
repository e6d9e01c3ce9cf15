"""Feasible regions and their linear minimization oracles.

Each region answers lmo(g): an extreme point minimizing <g, s>, returned
as a DenseAtom whose dense() gives the point as an array. Every caller
materializes the answer at once. A VertexHull's answer is one of its
read-only vertex rows, shared by every call that picks it: a caller that
writes into an atom copies it first.
"""

import math
import sys

import numpy as np

__all__ = [
    "DenseAtom", "Box", "L1Ball", "VertexHull", "NuclearBall",
    "PowerIterationError",
]


class DenseAtom:
    """An oracle answer; dense() returns its point as a float array.

    Kept, rather than returning the array, only because bench/spans.py
    times each answer by setting `dense` on it, an instance attribute that
    shadows the method: so the class keeps its __dict__ (no __slots__).
    """

    def __init__(self, point):
        self.point = point

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


_HULL_TOL = 4 * sys.float_info.epsilon  # times N: matrix_rank's N eps, times 4 (README)


class VertexHull:
    """Convex hull of an explicit vertex list.

    The hull must be a simplex: n+1 affinely independent vertices in n
    dimensions. Then a point's barycentric coordinates, the solution c of
    [vertices^T; 1^T] c = [x; 1], are unique, and the system's inverse is
    built once as barycentric_inverse, with its split columns, which give c
    without building [x; 1]; the same solve checks the hull. Membership
    reports the most negative coordinate, snapped to 0.0 below 1e-12; no
    residual enters, so the answer does not grow with the hull's scale.
    vertices is a read-only copy, and lmo answers with its rows.
    """

    def __init__(self, vertices):
        vs = np.array(vertices, dtype=float)
        if vs.ndim != 2 or not np.all(np.isfinite(vs)):
            raise ValueError("need a 2-d array of finite vertices")
        n = vs.shape[1]
        if len(vs) != n + 1:
            raise ValueError(f"non-simplex hull: {len(vs)} vertices in {n} "
                             f"dimensions, need {n + 1}")
        m = np.vstack([vs.T, np.ones(len(vs))])
        try:
            inv = np.linalg.solve(m, np.eye(len(vs)))
        except np.linalg.LinAlgError:  # an exactly zero pivot
            inv = np.full_like(m, np.inf)
        # ||m||_F ||inv||_F >= cond_2(m), so no SVD is needed (README)
        if not np.linalg.norm(m) * np.linalg.norm(inv) * len(vs) * _HULL_TOL < 1.0:
            raise ValueError("degenerate hull: the vertices are affinely dependent")
        vs.flags.writeable = False  # before the row views, which inherit it
        self.vertices = vs
        self._rows = tuple(vs)
        self.barycentric_inverse = inv
        self._inv_x, self._inv_1 = inv[:, :-1], inv[:, -1]

    def lmo(self, g) -> DenseAtom:
        # ndarray.dot rounds as @ does, without matmul's dispatch
        return DenseAtom(self._rows[self.vertices.dot(g).argmin()])

    def membership_violation(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        c = self._inv_x.dot(x) + self._inv_1
        # The test reads each coordinate: a NaN one (from a NaN entry, or
        # from an infinite one) fails it, where Python's min would let it
        # through unless it came first.
        if all(ci >= 0.0 for ci in c.tolist()):
            return 0.0
        worst = -float(c.min())  # NaN for a NaN coordinate
        # snap rounding noise to a clean zero for boundary points
        return 0.0 if worst < 1e-12 else worst


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
