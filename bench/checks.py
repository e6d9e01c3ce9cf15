"""Output checks on a sweep's run directories.

A run fails when its `traj.csv` is missing, short or non-finite; when a
tableau whose certificate holds (every builtin except midpoint) leaves the
region by more than 1e-9; or when a line-search run raises f by more than
1e-12. Two sweeps of one config must also write the same files, byte for
byte, once the `wall_ns` column is dropped.
"""

from pathlib import Path

import numpy as np

TRAJ_HEADER = "k,t,f,gap,step_norm,violation,wall_ns"
CERTIFIED = ("euler", "rk38", "rk44", "rk5")
MAX_VIOLATION = 1e-9      # acceptance gate 11
MAX_LS_RISE = 1e-12       # acceptance gate 12


def read_traj(path):
    """The numeric columns of a traj.csv (k..violation) and its wall_ns."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != TRAJ_HEADER:
        raise ValueError(f"{path}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 7 for r in rows):
        raise ValueError(f"{path}: row with the wrong field count")
    values = np.array([[float(v) for v in r[:6]] for r in rows]).reshape(-1, 6)
    wall = np.array([int(r[6]) for r in rows], dtype=np.int64)
    return values, wall


def check_run(run_dir, tableau, variant, iters):
    """Problems found in one run directory; an empty list means it passed."""
    path = Path(run_dir) / "traj.csv"
    if not path.is_file():
        return [f"{path}: missing"]
    try:
        values, _ = read_traj(path)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if len(values) != iters + 1 or not np.array_equal(values[:, 0], np.arange(iters + 1)):
        problems.append(f"{path}: {len(values)} rows, expected k = 0..{iters}")
    if not np.all(np.isfinite(values)):
        problems.append(f"{path}: non-finite values")
    if tableau in CERTIFIED and values[:, 5].max(initial=0.0) > MAX_VIOLATION:
        problems.append(f"{path}: max violation {values[:, 5].max():.3e} > {MAX_VIOLATION}")
    if variant == "line_search" and len(values) > 1:
        rise = np.diff(values[:, 2]).max()
        if rise > MAX_LS_RISE:
            problems.append(f"{path}: line search raised f by {rise:.3e}")
    return problems


def iteration_us(run_dir, iters):
    """Per-iteration wall times in microseconds, from traj.csv's wall_ns.

    wall_ns is cumulative from the start of the loop; row `iters` only
    evaluates the final point, so it is not an iteration.
    """
    _, wall = read_traj(Path(run_dir) / "traj.csv")
    return np.diff(wall[:iters], prepend=0) / 1e3


def ls_progress(run_dir):
    """Number of iterations that lower f by more than 1e-8 relative."""
    values, _ = read_traj(Path(run_dir) / "traj.csv")
    f = values[:, 2]
    return int(np.sum(f[:-1] - f[1:] > 1e-8 * np.abs(f[:-1])))


def _canonical(path):
    data = path.read_bytes()
    if path.name != "traj.csv":
        return data
    return b"\n".join(line.rpartition(b",")[0] for line in data.split(b"\n"))


def output_digest(out_dir):
    """{relative path: content without wall_ns} for every file under out_dir."""
    out_dir = Path(out_dir)
    return {str(p.relative_to(out_dir)): _canonical(p)
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def differing_files(a, b):
    """Relative paths whose contents differ (or exist on one side only)."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def bytes_written(out_dir):
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())

