"""Trajectory diagnostics: zig-zag energy, tail envelopes, rate slopes,
and the per-step decrease bound check.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tableau import ButcherTableau, _mixing_matrix, stage_gammas

__all__ = [
    "ZigzagReport", "zigzag_energy", "sup_envelope_all", "fit_rate_slope",
    "decrease_bound_d4", "decrease_bound_check",
]


@dataclass
class ZigzagReport:
    window: int
    block_energies: np.ndarray
    mean_energy: float

    def write_csv(self, fh):
        fh.write("block_start_k,energy\n")
        for b, e in enumerate(self.block_energies):
            fh.write(f"{b * self.window},{float(e)!r}\n")
        fh.write(f"# mean,{float(self.mean_energy)!r}\n")


def zigzag_energy(iterates, window: int) -> ZigzagReport:
    """Mean sideways motion per block of `window` consecutive steps.

    Each block spans iterates x(k)..x(k+W). The interior step directions
    are projected off the block's net displacement; what survives is
    direction churn that produced no net progress. Blocks are disjoint, a
    trailing partial block is dropped, and a block with no net displacement
    (below 1e-14) keeps its steps unprojected rather than dividing by zero.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    pts = np.asarray(iterates, dtype=float)
    if len(pts) < window + 1:
        raise ValueError(f"need at least {window + 1} iterates, got {len(pts)}")
    pts = pts.reshape(len(pts), -1)
    n_steps = len(pts) - 1
    energies = []
    for k0 in range(0, n_steps - window + 1, window):
        dbar = pts[k0 + window] - pts[k0]
        nrm2 = float(dbar @ dbar)
        degenerate = np.sqrt(nrm2) < 1e-14
        total = 0.0
        for i in range(k0 + 1, k0 + window):
            d = pts[i + 1] - pts[i]
            if degenerate:
                resid = d
            else:
                # Q d = d - dbar (dbar.d)/|dbar|^2, applied via inner products
                resid = d - dbar * (float(dbar @ d) / nrm2)
            total += math.sqrt(resid.dot(resid))  # np.linalg.norm, without its overhead
        energies.append(total / (window - 1))
    energies = np.asarray(energies)
    return ZigzagReport(window, energies, float(energies.mean()))


def sup_envelope_all(series) -> np.ndarray:
    """max |series[k']| over k' >= k, at every index k, in one backward pass."""
    return np.maximum.accumulate(np.abs(np.asarray(series, dtype=float))[::-1])[::-1]


def fit_rate_slope(values, k_min: int, k_max: int) -> float:
    """Least-squares slope of log values[k] against log k over [k_min, k_max].

    values is indexed by iteration (values[k] belongs to k), so a pure
    power law a * k^(-r) comes back as slope -r.
    """
    v = np.asarray(values, dtype=float)
    if not 1 <= k_min < k_max < len(v):
        raise ValueError("need 1 <= k_min < k_max < len(values)")
    ks = np.arange(k_min, k_max + 1)
    seg = v[k_min:k_max + 1]
    nonpos = np.nonzero(seg <= 0.0)[0]
    if nonpos.size:
        raise ValueError(f"nonpositive value at k={int(ks[nonpos[0]])}")
    slope, _ = np.polyfit(np.log(ks), np.log(seg), 1)
    return float(slope)


def decrease_bound_d4(t: ButcherTableau, c: float, l: float, l2: float,
                      d: float) -> float:
    """d4, which bounds the second-order term of a composite step of t in
    the one-step decrease inequality: with c1 = q * p_max (p_max the largest
    column norm of the first-iteration mixing matrix) and c2 = q * max |a_ij|,
    displacement and curvature radii are d2 = c1 * d and d3 = c2 * c1 * d,
    giving d4 = (l * d2^2 + 2 l * d2 * d3 + 2 * l2 * d3) / 2."""
    p = _mixing_matrix(t, stage_gammas(t, c, 1.0, 1))
    c1 = t.q * float(np.max(np.linalg.norm(p, axis=0)))  # max column norm
    c2 = t.q * float(np.max(np.abs(t.a)))
    d2 = c1 * d
    d3 = c2 * c1 * d
    return (l * d2 ** 2 + 2 * l * d2 * d3 + 2 * l2 * d3) / 2


def decrease_bound_check(traj, d4: float, c: float):
    """Indices k >= 1 where the per-step decrease inequality fails.

    Checks h(k+1) - h(k) <= -gamma h(k) + d4 gamma^2 + 1e-9 with
    gamma = c/(c + k + 1) and h the objective above the known optimum.
    """
    h = traj.h()
    out = []
    for k in range(1, len(h) - 1):
        gamma = c / (c + k + 1)
        if h[k + 1] - h[k] > -gamma * h[k] + d4 * gamma * gamma + 1e-9:
            out.append(k)
    return out
