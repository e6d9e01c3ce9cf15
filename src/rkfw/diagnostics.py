"""Trajectory diagnostics: zig-zag energy, tail envelopes, rate slopes,
and the per-step decrease bound check.
"""

import numpy as np

from .tableau import ButcherTableau, _mixing_matrix, stage_gammas

__all__ = [
    "zigzag_energy", "ZigzagWindow", "sup_envelope_all", "fit_rate_slope",
    "decrease_bound_d4", "decrease_bound_check",
]


# Most floats one pass of zigzag_energy's block arithmetic holds in one
# array; it also sizes each ZigzagWindow's buffer, whose rows are one pass.
_PASS_FLOATS = 8192


def zigzag_energy(iterates, window: int) -> np.ndarray:
    """Sideways motion per block of `window` consecutive steps, one energy
    per block; their mean is the run's zig-zag energy.

    Each block spans iterates x(k)..x(k+W). The interior step directions
    are projected off the block's net displacement; what survives is
    direction churn that produced no net progress. Blocks are disjoint, a
    trailing partial block is dropped, and a block with no net displacement
    (below 1e-14) keeps its steps unprojected rather than dividing by zero.

    Blocks are handled in passes of as many as fit in `_PASS_FLOATS` floats
    (at least one), so each temporary holds at most 8192 floats (64 KiB),
    or one block's W x n when a block alone is larger; memory does not grow
    with the number of iterates. Every product (|dbar|^2, dbar.d, |resid|^2)
    is one BLAS ddot per pair, as `ndarray.dot` makes it, through a stacked
    (1, n) @ (n, 1) matmul, and each block's step norms are added left to
    right from 0.0, so the energies are bit-identical to a per-step loop.
    Non-finite iterates give nan or inf energies and no RuntimeWarning.
    Every ZigzagWindow pass is computed here.
    """
    if window < 2:
        raise ValueError("window must be >= 2")
    pts = np.asarray(iterates, dtype=float)
    if len(pts) < window + 1:
        raise ValueError(f"need at least {window + 1} iterates, got {len(pts)}")
    pts = pts.reshape(len(pts), -1)
    n = pts.shape[1]
    # Row pitch: every vector handed to ddot starts 16-byte aligned, as the
    # fresh array of a per-step product does; some ddot kernels (Prescott)
    # add in another order when the second vector is not.
    m = n + n % 2
    n_blocks = (len(pts) - 1) // window
    per_pass = max(1, _PASS_FLOATS // (window * max(m, 1)))
    energies = np.empty(n_blocks)
    with np.errstate(all="ignore"):
        for b0 in range(0, n_blocks, per_pass):
            b = min(per_pass, n_blocks - b0)
            rows = pts[b0 * window:(b0 + b) * window + 1]
            dbar = np.empty((b, m))[:, :n]
            np.subtract(rows[window::window], rows[:-window:window], out=dbar)
            # np.diff along each block's x(k+1)..x(k+W): its interior steps
            span = rows[1:].reshape(b, window, n)
            d = np.empty((b, window - 1, m))[..., :n]
            np.subtract(span[:, 1:], span[:, :-1], out=d)
            nrm2 = dbar[:, None, :] @ dbar[:, :, None]  # (b, 1, 1)
            proj = (dbar[:, None, None, :] @ d[..., None])[..., 0]  # (b, W-1, 1)
            # Q d = d - dbar (dbar.d)/|dbar|^2; a degenerate block keeps d
            ratio = np.divide(proj, nrm2, out=np.zeros_like(proj),
                              where=~(np.sqrt(nrm2) < 1e-14))
            resid = np.empty((b, window - 1, m))[..., :n]
            np.multiply(dbar[:, None, :], ratio, out=resid)
            np.subtract(d, resid, out=resid)
            norms = np.sqrt((resid[..., None, :] @ resid[..., None])[..., 0, 0])
            total = np.cumsum(norms, axis=1)[:, -1]  # left to right from 0.0
            energies[b0:b0 + b] = total / (window - 1)
    return energies


class ZigzagWindow:
    """zigzag_energy(rows, window) of a run's points, computed while the run
    goes: `run` calls the window with each point in turn, and `energies()`
    returns the block energies zigzag_energy would give for all the points
    so far, byte for byte (an empty array for fewer than window + 1).

    The window is the only buffer of its points: one array of
    per_pass * window + 1 rows, exactly one pass of zigzag_energy, which it
    is handed when it fills; its closing row then opens the next block, and
    energies() hands over the unfinished rows. A caller may overwrite a
    point once the call returns.
    """

    def __init__(self, window: int):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self._rows = None  # the unfinished pass's rows, shaped at the first point
        self._held = 0  # how many rows of _rows are held
        self._done = []  # arrays of finished block energies, in order

    def __call__(self, x):
        rows = self._rows
        if rows is None:
            n = np.size(x)
            per_pass = max(1, _PASS_FLOATS // (self.window * max(n + n % 2, 1)))
            rows = self._rows = np.empty((per_pass * self.window + 1, *np.shape(x)))
        rows[self._held] = x
        self._held += 1
        if self._held == len(rows):
            self._done.append(zigzag_energy(rows, self.window))
            rows[0] = rows[-1]
            self._held = 1

    def energies(self) -> np.ndarray:
        done = self._done
        if self._held > self.window:
            done = done + [zigzag_energy(self._rows[:self._held], self.window)]
        return np.concatenate(done) if done else np.empty(0)


def sup_envelope_all(series) -> np.ndarray:
    """max |series[k']| over k' >= k, at every index k, in one backward pass."""
    return np.maximum.accumulate(np.abs(np.asarray(series, dtype=float))[::-1])[::-1]


def fit_rate_slope(values, k_min: int, k_max: int) -> float:
    """Least-squares slope of log values[k] against log k over [k_min, k_max].

    values is indexed by iteration (values[k] belongs to k), so a pure
    power law a * k^(-r) comes back as slope -r. A nonpositive or
    non-finite value in the range raises ValueError naming its k.
    """
    v = np.asarray(values, dtype=float)
    if not 1 <= k_min < k_max < len(v):
        raise ValueError("need 1 <= k_min < k_max < len(values)")
    ks = np.arange(k_min, k_max + 1)
    seg = v[k_min:k_max + 1]
    nonpos = np.nonzero(seg <= 0.0)[0]
    if nonpos.size:
        raise ValueError(f"nonpositive value at k={int(ks[nonpos[0]])}")
    nonfin = np.nonzero(~np.isfinite(seg))[0]
    if nonfin.size:
        raise ValueError(f"non-finite value at k={int(ks[nonfin[0]])}")
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


def decrease_bound_check(h, d4: float, c: float):
    """Indices k >= 1 where the per-step decrease inequality fails.

    Checks h(k+1) - h(k) <= -gamma h(k) + d4 gamma^2 + 1e-9 with
    gamma = c/(c + k + 1) on the series h = f - f*, the objective above
    the optimum (traj.fs - problem.f_star for a run).
    A step from or to a non-finite h (NaN or +-inf) counts as failing.
    """
    out = []
    for k in range(1, len(h) - 1):
        gamma = c / (c + k + 1)
        if not (np.isfinite(h[k]) and np.isfinite(h[k + 1])
                and h[k + 1] - h[k] <= -gamma * h[k] + d4 * gamma * gamma + 1e-9):
            out.append(k)
    return out
