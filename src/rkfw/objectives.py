"""Objective oracles: value and analytic gradient.

The two quadratics also give along(x, d): the exact coefficients of f
restricted to the line through x along d, with a bound on the rounding of
evaluated differences; the line search reads its sign tests from them.

All oracles are immutable and pure. check_gradient compares the analytic
gradient against central finite differences; the tests use it as an oracle.
"""

import math
import sys

import numpy as np

__all__ = [
    "DistanceSq", "LeastSquares", "Logistic", "HuberScalar", "HuberMatrix",
    "check_gradient",
]


def _norm(v):
    """np.linalg.norm(v) for a float array: the root of its self-dot."""
    v = v.reshape(-1)
    return math.sqrt(v.dot(v))


def _line_model(r, dr, terms, count):
    """(a, b, err) for f = 0.5 ||r||^2 along r(t) = r + t dr: f(t) - f(0) =
    a t^2 + b t exactly, and err bounds the rounding of value(x + t d) -
    value(x), t in [0, 1]. `count` is at least the number of terms summed
    into an entry of r plus the number of entries summed into ||r||^2, and
    `terms` bounds the norm of the vector of summed term magnitudes of r.

    Rounding moves r by at most count * eps * terms in norm (Higham's bound
    for sums), and 0.5 ||r||^2 by at most that times ||r|| plus its square.
    Measured errors stay below a quarter of the bound on random instances
    and below 4e-4 of it on the sensing benchmark.
    """
    drift = count * sys.float_info.epsilon * terms
    err = float((_norm(r) + _norm(dr) + drift) * drift)
    return 0.5 * float(dr.dot(dr)), float(r.dot(dr)), err


class DistanceSq:
    """f(x) = 0.5 ||x - target||^2."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self._target_norm = float(np.linalg.norm(self.target))

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.target
        return 0.5 * float(d.dot(d))

    def gradient(self, x):
        return np.asarray(x, dtype=float) - self.target

    def along(self, x, d):
        """(a, b, err): f(x + t d) - f(x) = a t^2 + b t for every t, and
        err bounds the rounding of value(x + t d) - value(x), t in [0, 1]."""
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        return _line_model(x - self.target, d,
                           _norm(x) + _norm(d) + self._target_norm, d.size + 3)


class LeastSquares:
    """f(x) = 0.5 ||G x - h||^2.

    G^T G and G^T h are built once, so a gradient G^T G x - G^T h costs n^2
    flops instead of the 2mn of G^T (G x - h), for n^2 stored floats; on a
    wide G (n > 2m) that is more work, not less. value and along keep the
    residual form, whose rounding along's bound describes. The products
    per call use ndarray.dot, which rounds as @ does without matmul's
    dispatch.
    """

    def __init__(self, g, h):
        self.g = np.asarray(g, dtype=float)
        self.h = np.asarray(h, dtype=float)
        if self.g.shape[0] != len(self.h):
            raise ValueError("row count of G must match length of h")
        self._g_norm = float(np.linalg.norm(self.g))
        self._h_norm = float(np.linalg.norm(self.h))
        self._gram = self.g.T @ self.g
        self._gt_h = self.g.T @ self.h

    def value(self, x):
        r = self.g.dot(np.asarray(x, dtype=float)) - self.h
        return 0.5 * float(r.dot(r))

    def gradient(self, x):
        return self._gram.dot(np.asarray(x, dtype=float)) - self._gt_h

    def along(self, x, d):
        """(a, b, err): f(x + t d) - f(x) = a t^2 + b t for every t, and
        err bounds the rounding of value(x + t d) - value(x), t in [0, 1]."""
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        # ||G||_F ||x + t d|| + ||h|| bounds the terms summed into G(x + t d) - h
        terms = self._g_norm * (_norm(x) + _norm(d)) + self._h_norm
        return _line_model(self.g.dot(x) - self.h, self.g.dot(d), terms,
                           self.g.shape[0] + self.g.shape[1] + 3)


class Logistic:
    """Mean logistic loss (1/m) sum log(1 + exp(-y_i z_i^T x)), labels in {-1, 1}."""

    def __init__(self, features, labels):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        if self.features.shape[0] != len(self.labels):
            raise ValueError("feature rows must match label count")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must lie in {-1, 1}")
        self.m = self.features.shape[0]

    def _margins(self, x):
        return self.labels * (self.features @ np.asarray(x, dtype=float))

    def value(self, x):
        # log(1 + exp(-t)) = logaddexp(0, -t), stable for large |t|
        return float(np.logaddexp(0.0, -self._margins(x)).mean())

    def gradient(self, x):
        t = self._margins(x)
        # sigmoid(-t) without overflow on either tail: e/(1 + e) for t >= 0
        # and 1/(1 + e) below, with e = exp(-|t|) <= 1
        e = np.exp(-np.abs(t))
        s = np.where(t >= 0, e, 1.0) / (1.0 + e)
        return -(self.features.T @ (self.labels * s)) / self.m


class HuberScalar:
    """One-dimensional smoothed absolute value.

    f(x) = x^2/2 for |x| < eps, eps|x| - eps^2/2 otherwise. The gradient is
    bounded by eps and 1-Lipschitz, which makes the interval problem's
    dynamics independent of eps until the iterate enters the quadratic cap.
    """

    def __init__(self, eps):
        if not 0 < eps:
            raise ValueError("eps must be positive")
        self.eps = float(eps)

    def value(self, x):
        v = float(np.asarray(x).reshape(()))
        if abs(v) < self.eps:
            return 0.5 * v * v
        return self.eps * abs(v) - 0.5 * self.eps * self.eps

    def gradient(self, x):
        arr = np.asarray(x, dtype=float)
        v = float(arr.reshape(()))
        g = v if abs(v) < self.eps else self.eps * (1.0 if v >= 0 else -1.0)
        return np.full(arr.shape, g)

    def kink_distance(self, x):
        v = float(np.asarray(x).reshape(()))
        return abs(abs(v) - self.eps)


def _huber(t, rho):
    a = np.abs(t)
    return np.where(a <= rho, 0.5 * t * t, rho * (a - rho) + 0.5 * rho * rho)


def _huber_grad(t, rho):
    return np.clip(t, -rho, rho)


class HuberMatrix:
    """Huber-penalized completion residual over an observed index set.

    f(X) = sum over observed (i, j) of H(X_ij - R_ij), with H quadratic up
    to rho and linear beyond.
    """

    def __init__(self, observed, ratings, rho, shape):
        obs = np.asarray(observed, dtype=int)
        if obs.ndim != 2 or obs.shape[1] != 2:
            raise ValueError("observed must be a list of (row, col) pairs")
        self.rows = obs[:, 0]
        self.cols = obs[:, 1]
        self.ratings = np.asarray(ratings, dtype=float)
        if len(self.ratings) != len(obs):
            raise ValueError("ratings count must match observed count")
        if not rho > 0:  # a NaN fails too
            raise ValueError("rho must be positive")
        if rho == math.inf:
            raise ValueError("rho must be finite")
        self.rho = float(rho)
        self.shape = (int(shape[0]), int(shape[1]))
        if len(obs) and (self.rows.max() >= self.shape[0] or self.cols.max() >= self.shape[1]
                         or self.rows.min() < 0 or self.cols.min() < 0):
            raise ValueError("observed index outside shape")

    def value(self, x):
        resid = np.asarray(x, dtype=float)[self.rows, self.cols] - self.ratings
        return float(_huber(resid, self.rho).sum())

    def gradient(self, x):
        resid = np.asarray(x, dtype=float)[self.rows, self.cols] - self.ratings
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = _huber_grad(resid, self.rho)
        return out

    def kink_distance(self, x):
        resid = np.asarray(x, dtype=float)[self.rows, self.cols] - self.ratings
        return float(np.min(np.abs(np.abs(resid) - self.rho))) if len(resid) else np.inf


_FD_STEP = 1e-6  # check_gradient's central-difference step


def check_gradient(objective, points):
    """Max relative error between analytic and central-difference gradients.

    Points within 10*_FD_STEP of a known nondifferentiability surface are
    skipped (central differences are invalid there). Returns the max over
    all checked points and coordinates.
    """
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        if hasattr(objective, "kink_distance") and objective.kink_distance(x) < 10 * _FD_STEP:
            continue
        g = np.asarray(objective.gradient(x), dtype=float)
        flat = x.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            e = np.zeros_like(flat)
            e[i] = _FD_STEP
            fp = objective.value((flat + e).reshape(x.shape))
            fm = objective.value((flat - e).reshape(x.shape))
            num = (fp - fm) / (2 * _FD_STEP)
            err = abs(num - gflat[i]) / max(1.0, abs(gflat[i]))
            worst = max(worst, err)
    return worst
