"""Seeded inputs for the benchmark workloads.

Each workload is one `rkfw sweep` config, and the program sees only that
file. The seed picks the instance (triangle target, sensing design), never
the problem size, tableaus or iteration count. No workload sets `jobs`, so
every sweep runs serially.

    python3 bench/workloads.py --workload sensing --seed 3 --out DIR
"""

import argparse
from pathlib import Path

import numpy as np

ALL_TABLEAUS = ("euler", "midpoint", "rk38", "rk44", "rk5")

# (tableaus, variant, iters) per workload. The work is fixed per workload
# and sized so one sweep takes about a second on a 2-core x86 box with
# single-threaded BLAS.
RUNS = {
    "triangle-tae": (ALL_TABLEAUS, "plain", 150),
    "sensing": (ALL_TABLEAUS, "plain", 1000),
    "sensing-ls": (("euler", "rk44"), "line_search", 400),
}
WORKLOADS = tuple(RUNS)


def triangle_target(seed: int):
    """A seeded point with every barycentric coordinate at least 0.1."""
    rng = np.random.default_rng(seed)
    bary = 0.1 + 0.7 * rng.dirichlet(np.ones(3))
    # vertices (-1, 0), (1, 0), (0, 1) as in rkfw.problems.TRIANGLE_VERTICES
    return (float(bary[1] - bary[0]), float(bary[2]))


def config_text(workload: str, seed: int) -> str:
    """The `key = value` sweep config for one workload and seed."""
    if workload not in RUNS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    tableaus, variant, iters = RUNS[workload]
    if workload == "triangle-tae":
        x, y = triangle_target(seed)
        body = ["problem = triangle", f"x_star = {x!r}, {y!r}", "delta = 0.1",
                "ref_delta = 0.01", "record_iterates = true"]
    else:
        body = ["problem = sensing", "m = 500", "n = 100", f"seed = {seed}",
                "windows = 5, 20"]
    lines = [f"# benchmark workload {workload}, seed {seed}", *body,
             f"tableau = {', '.join(tableaus)}", f"variant = {variant}",
             f"iters = {iters}", "out_dir = out"]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, directory) -> Path:
    """Write the workload's config into `directory`, where the sweep must
    run (its `out_dir` is relative). Returns the config path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "sweep.cfg"
    path.write_text(config_text(workload, seed))
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write into")
    args = ap.parse_args(argv)
    print(write_inputs(args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
