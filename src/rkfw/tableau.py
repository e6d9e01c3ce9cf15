"""Explicit Runge-Kutta tableaus and their step-size certificates.

A tableau (A, weights, offsets) fixes one multistep discretization of the
schedule-driven update flow. The certificate machinery answers, for a given
schedule constant c and step delta, whether the composite update stays a
convex combination of the current point and the atoms it queried, which is
what keeps iterates inside the feasible region.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ButcherTableau",
    "TABLEAU_NAMES",
    "make_tableau",
    "load_tableau_file",
    "resolve_tableau",
    "feasibility_certificate",
    "CertificateReport",
    "validate_schedule",
    "cancellability_margin",
]


def _tableau_violations(a, weights, offsets) -> list:
    """The structural rules a tableau breaks; empty when it is valid.
    Non-finite entries are reported alone, ahead of the shape."""
    if not all(np.isfinite(v).all() for v in (a, weights, offsets)):
        return ["entries must be finite"]
    q = len(weights)
    if a.shape != (q, q):
        return [f"A must be {q}x{q}, got {a.shape}"]
    out = []
    if np.any(np.triu(a) != 0.0):
        out.append("not strictly lower triangular")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        out.append(f"sum(weights) != 1 (got {weights.sum()!r})")
    if len(offsets) != q:
        out.append("offsets length mismatch")
    else:
        if offsets[0] != 0.0:
            out.append("first offset must be 0")
        if np.any(offsets < 0.0) or np.any(offsets > 1.0):
            out.append("offsets must lie in [0, 1]")
    return out


@dataclass(frozen=True)
class ButcherTableau:
    """One explicit RK scheme: strictly lower triangular A, unit-sum weights,
    per-stage time offsets in [0, 1]. Checked when built; the arrays are
    read-only copies, so the floats cached below cannot go stale."""

    name: str
    a: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray

    @property
    def q(self) -> int:
        return len(self.weights)

    def __post_init__(self):
        for field in ("a", "weights", "offsets"):
            v = np.array(getattr(self, field), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, field, v)
        bad = _tableau_violations(self.a, self.weights, self.offsets)
        if bad:
            raise ValueError(f"{self.name}: invalid tableau: {'; '.join(bad)}")

    # the step reads the tableau as Python floats, built on first use
    @cached_property
    def stage_terms(self) -> tuple:
        """Per stage i, the (j, a[i][j]) pairs with j < i and a[i][j] != 0:
        the terms of the stage point x + sum_j a[i][j] xi_j."""
        return tuple(tuple((j, aij) for j, aij in enumerate(row[:i]) if aij != 0.0)
                     for i, row in enumerate(self.a.tolist()))

    @cached_property
    def weight_floats(self) -> tuple:
        return tuple(self.weights.tolist())

    @cached_property
    def offset_floats(self) -> tuple:
        return tuple(self.offsets.tolist())


def _builtin():
    e = ButcherTableau("euler", np.zeros((1, 1)), [1.0], [0.0])
    mid = ButcherTableau(
        "midpoint",
        [[0.0, 0.0], [0.5, 0.0]],
        [0.0, 1.0],
        [0.0, 0.5],
    )
    rk44 = ButcherTableau(
        "rk44",
        [[0.0, 0.0, 0.0, 0.0],
         [0.5, 0.0, 0.0, 0.0],
         [0.0, 0.5, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0]],
        [1 / 6, 1 / 3, 1 / 3, 1 / 6],
        [0.0, 0.5, 0.5, 1.0],
    )
    rk38 = ButcherTableau(
        "rk38",
        [[0.0, 0.0, 0.0, 0.0],
         [1 / 3, 0.0, 0.0, 0.0],
         [-1 / 3, 1.0, 0.0, 0.0],
         [1.0, -1.0, 1.0, 0.0]],
        [1 / 8, 3 / 8, 3 / 8, 1 / 8],
        [0.0, 1 / 3, 2 / 3, 1.0],
    )
    rk5 = ButcherTableau(
        "rk5",
        [[0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
         [1 / 4, 0.0, 0.0, 0.0, 0.0, 0.0],
         [1 / 8, 1 / 8, 0.0, 0.0, 0.0, 0.0],
         [0.0, -1 / 2, 1.0, 0.0, 0.0, 0.0],
         [3 / 16, 0.0, 0.0, 9 / 16, 0.0, 0.0],
         [-3 / 7, 2 / 7, 12 / 7, -12 / 7, 8 / 7, 0.0]],
        [7 / 90, 0.0, 32 / 90, 12 / 90, 32 / 90, 7 / 90],
        [0.0, 1 / 4, 1 / 4, 1 / 2, 3 / 4, 1.0],
    )
    return {t.name: t for t in (e, mid, rk44, rk38, rk5)}


_BUILTIN = _builtin()
TABLEAU_NAMES = tuple(sorted(_BUILTIN))


def make_tableau(name: str) -> ButcherTableau:
    """Return a built-in tableau by name."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown tableau {name!r}; available: {', '.join(TABLEAU_NAMES)}"
        ) from None


def load_tableau_file(path) -> ButcherTableau:
    """Parse a plain-text tableau: line 1 is q, then q rows of A, a weights
    row, and an offsets row (whitespace separated)."""
    with open(path) as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    if not rows:
        raise ValueError(f"{path}: empty tableau file")
    try:
        q = int(rows[0][0])
    except (ValueError, IndexError):
        raise ValueError(f"{path}: first line must be the stage count") from None
    if len(rows) != q + 3:
        raise ValueError(f"{path}: expected {q + 3} lines for q={q}, got {len(rows)}")
    # lengths first: numpy would report a ragged A as a non-numeric entry
    if q < 1 or any(len(row) != q for row in rows[1:]):
        raise ValueError(f"{path}: row lengths inconsistent with q={q}")
    try:
        a = np.array([[float(v) for v in rows[1 + i]] for i in range(q)])
        weights = np.array([float(v) for v in rows[q + 1]])
        offsets = np.array([float(v) for v in rows[q + 2]])
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric entry ({exc})") from None
    return ButcherTableau(name=str(path), a=a, weights=weights, offsets=offsets)


def resolve_tableau(name: str) -> ButcherTableau:
    """Builtin name, or a path to a tableau file."""
    if name in TABLEAU_NAMES:
        return make_tableau(name)
    if os.sep in name or name.endswith(".txt"):
        return load_tableau_file(name)
    return make_tableau(name)  # raises, listing the known names


def validate_schedule(c: float, delta: float):
    """Raise ValueError unless the schedule constant c >= 1 and delta > 0,
    both finite (a NaN fails the bound)."""
    if not c >= 1.0:
        raise ValueError("schedule constant c must be >= 1")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    for key, v in (("schedule constant c", c), ("delta", delta)):
        if math.isinf(v):
            raise ValueError(f"{key} must be finite")


@dataclass
class CertificateReport:
    z_by_k: list  # (k, z vector) pairs, k = 1..k_max
    all_in_unit_interval: bool
    sup_norm_monotone: bool


def _mixing_matrix(t: ButcherTableau, gammas: np.ndarray) -> np.ndarray:
    """P = G (I + A^T G)^{-1} for G = diag(gammas).

    Computed through the transpose system (I + G A) P^T = G, which is unit
    lower triangular because A is strictly lower triangular, so a forward
    substitution solves it exactly.
    """
    q = t.q
    m = np.eye(q) + gammas[:, None] * t.a
    rhs = np.diag(gammas)
    pt = np.empty((q, q))
    for i in range(q):
        pt[i] = rhs[i] - m[i, :i] @ pt[:i]
    return pt.T


def stage_gammas(t: ButcherTableau, c: float, delta: float, k: int) -> np.ndarray:
    """Per-stage step fractions delta*c / (c + delta*(k + offset)).

    Evaluated in Python floats, the same operations in the same order as
    the array expression, so every fraction is bit-identical to it.
    """
    dc = delta * c
    return np.array([dc / (c + delta * (k + o)) for o in t.offset_floats])


def feasibility_certificate(t: ButcherTableau, c: float, delta: float,
                            k_max: int) -> CertificateReport:
    """Compute z(k) = q P(k) weights for k = 1..k_max.

    Every entry of every z(k) in [0, 1] certifies that the composite update
    is a convex combination of the incoming point and the stage atoms, hence
    stays feasible. The report also records whether the sup norm of z(k)
    decays monotonically over the computed range.
    """
    validate_schedule(c, delta)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    z_by_k = []
    sup = []
    for k in range(1, k_max + 1):
        p = _mixing_matrix(t, stage_gammas(t, c, delta, k))
        z = t.q * (p @ t.weights)
        z_by_k.append((k, z))
        sup.append(float(np.max(np.abs(z))))
    inside = all(np.all(z >= 0.0) and np.all(z <= 1.0) for _, z in z_by_k)
    monotone = all(sup[i + 1] <= sup[i] + 1e-12 for i in range(len(sup) - 1))
    return CertificateReport(z_by_k, inside, monotone)


def cancellability_margin(weights) -> float:
    """Smallest |sum of +-weights[i]| over all sign assignments.

    A margin of zero means some subset of the weights exactly cancels the
    rest, which is the degenerate case where the composite step can vanish
    while individual stages remain active.
    """
    w = np.asarray(weights, dtype=float)
    if len(w) > 20:
        raise ValueError("enumeration too large (q > 20)")
    # 2^q sign assignments via cumulative doubling
    sums = np.zeros(1)
    for wi in w:
        sums = np.concatenate([sums + wi, sums - wi])
    return float(np.min(np.abs(sums)))
