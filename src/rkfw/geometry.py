"""Feasible regions and their linear minimization oracles.

Each region answers lmo(g): an extreme point minimizing <g, s>, returned
as a DenseAtom whose dense() gives the point as an array. Every caller
materializes the answer at once. A VertexHull's answer is one of its
read-only vertex rows, shared by every call that picks it: a caller that
writes into an atom copies it first.
"""

import math

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


def _barycentric_violation(m, m_norm, coeffs, rhs):
    """How far barycentric coefficients are from certifying membership:
    the most negative coefficient or the solve's residual. The residual is
    the solve's normwise backward error, ||m c - rhs|| relative to
    ||m||_F ||c|| + ||rhs|| (m_norm is ||m||_F), which does not grow with
    the hull's scale as ||m c - rhs|| does."""
    r = m @ coeffs - rhs
    # each norm is np.linalg.norm's, without its overhead
    recon = math.sqrt(r.dot(r)) / (m_norm * math.sqrt(coeffs.dot(coeffs))
                                   + math.sqrt(rhs.dot(rhs)))
    return _excess(max(-coeffs.min(), recon))


_U = 2.0 ** -53  # unit roundoff of float64


def _coordinates_decide(m, inv) -> bool:
    """Whether, for this hull, a point x whose coordinates
    c' = fl(inv[:, :-1] x + inv[:, -1]) are all >= 0 provably gets 0.0 from
    VertexHull's full check, whose fast path takes c = fl(inv [x; 1]) and
    returns 0.0 once max(-min(c), residual) < 0.5e-12.

    With k = n + 1, u = _U and gamma = k u / (1 - k u): c and c' are two
    roundings of q = inv [x; 1], each within gamma (|inv| |[x; 1]|)_i of it
    in any summation order, fused or not. Let p be x's exact barycentric
    coordinates: [x; 1] = m p and sum(p) = 1. Then |[x; 1]| <= |m| |p| and
    q - p = (inv m - I) p, so c and c' both lie within eps ||p||_1 of p,
        eps = 2 gamma g + f,
    where g and f are the largest entries of |inv| |m| and of the computed
    |inv m - I|: one gamma g bounds each product's rounding, the other that
    of the computed inv m. From c' >= 0, p >= -eps ||p||_1, so p's negative
    entries sum to at most k eps ||p||_1, and ||p||_1 = 1 + 2 (that sum)
    <= 2 once k eps <= 1/4. Then c >= -4 eps, and the residual is at most
    ||c - p|| / ||c|| + gamma <= 4 k eps + eps, as
    ||c|| >= sum(c) / sqrt(k) >= 1 / (2 sqrt(k)). Both are below 0.5e-12
    when 8 k eps is, so the shortcut's margin is 0: it needs only that no
    coordinate of c' is negative.
    """
    k = len(m)
    gamma = k * _U / (1 - k * _U)
    g = (np.abs(inv) @ np.abs(m)).max()
    eps = 2 * gamma * g + np.abs(inv @ m - np.eye(k)).max()
    return bool(8 * k * eps < 0.5e-12)


class VertexHull:
    """Convex hull of an explicit vertex list.

    Membership is a barycentric solve [vertices^T; 1^T] c = [x; 1], so the
    hull must be a simplex: n+1 affinely independent vertices in n
    dimensions, checked when built. The system and its inverse are built
    once, as barycentric_matrix and barycentric_inverse, and so are the
    inverse's split columns, which give c without building [x; 1].
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
        if np.linalg.matrix_rank(m) < len(vs):
            raise ValueError("degenerate hull: the vertices are affinely dependent")
        vs.flags.writeable = False  # before the row views, which inherit it
        self.vertices = vs
        self._rows = tuple(vs)
        self.barycentric_matrix = m
        inv = np.linalg.solve(m, np.eye(len(vs)))
        self.barycentric_inverse = inv
        self._inv_x, self._inv_1 = inv[:, :-1], inv[:, -1]
        self._m_norm = math.sqrt((m * m).sum())
        self._coordinates_decide = _coordinates_decide(m, inv)

    def lmo(self, g) -> DenseAtom:
        # ndarray.dot rounds as @ does, without matmul's dispatch
        return DenseAtom(self._rows[self.vertices.dot(g).argmin()])

    def membership_violation(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        # No negative coordinate: the checks below return 0.0, as
        # _coordinates_decide proves. A NaN coordinate (from a NaN entry)
        # fails the test, and an infinite entry gives a -inf or NaN one.
        # The test reads each coordinate: Python's min would let a NaN
        # through unless it came first.
        if self._coordinates_decide and all(
                c >= 0.0 for c in (self._inv_x.dot(x) + self._inv_1).tolist()):
            return 0.0
        m, m_norm = self.barycentric_matrix, self._m_norm
        rhs = np.concatenate((x, (1.0,)))
        # The inverse's coefficients differ from the least-squares ones by
        # rounding (about cond(m) eps |c|), so a point this far below the
        # snap threshold is interior under both. Any other point is
        # reported from the least-squares solution, digit for digit.
        fast = _barycentric_violation(m, m_norm, self.barycentric_inverse @ rhs, rhs)
        if fast < 0.5e-12:
            return 0.0
        if math.isnan(fast):  # a point with a NaN entry
            return fast
        v = _barycentric_violation(m, m_norm, np.linalg.lstsq(m, rhs, rcond=None)[0], rhs)
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
