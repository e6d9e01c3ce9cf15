"""Microseconds per call of each oracle and of one step, on two rows.

The rows are the triangle's rk44 reference row at delta = 0.01 and an rk44
row on sensing instance 7000 (m = 500, n = 100, delta = 1), each taken at
iteration ROW_K of a plain run from x0. Per row it times `value`,
`gradient`, `lmo(g).dense()`, `membership_violation` and `rk_fw_step` at
that row's point.

Each measurement runs in fresh processes, one after another: every
process times each call `--number` times per repeat, taking the calls in
turn within a repeat, and the table reports the minimum over all repeats
of all processes. With several `--src` trees (for example the parent's
`src/` and this checkout's), their processes alternate, so a drift of the
host's speed reaches every tree alike.

    python scripts/percall.py --src ../parent/src --src src
"""
import argparse
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

ROW_K = 100  # the iteration whose point and index every call uses
CALLS = ("value", "gradient", "lmo(...).dense()", "membership_violation",
         "rk_fw_step")
ROWS = ("triangle rk44 d=0.01", "sensing-7000 rk44 d=1")
DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


def measure(repeats, number):
    """{row: {call: us per call}}, the minimum over repeats, in this process."""
    # imported here, in the child, from the tree its PYTHONPATH names
    from rkfw import (SolverConfig, make_sensing, make_tableau, make_triangle,
                      rk_fw_step)

    rk44 = make_tableau("rk44")
    setups = {
        ROWS[0]: (make_triangle(), SolverConfig(tableau=rk44, delta=0.01)),
        ROWS[1]: (make_sensing(m=500, n=100, seed=7000),
                  SolverConfig(tableau=rk44, delta=1.0)),
    }
    timers = []
    for row, (p, cfg) in setups.items():
        x = p.x0
        for k in range(ROW_K):
            x, _ = rk_fw_step(x, k, cfg, p)
        obj, region = p.objective, p.region
        ns = {"obj": obj, "region": region, "x": x, "k": ROW_K, "cfg": cfg,
              "p": p, "g": obj.gradient(x), "step": rk_fw_step}
        stmts = ("obj.value(x)", "obj.gradient(x)", "region.lmo(g).dense()",
                 "region.membership_violation(x)", "step(x, k, cfg, p)")
        timers += [(row, call, timeit.Timer(stmt, globals=ns))
                   for call, stmt in zip(CALLS, stmts)]
    best = {row: {} for row in ROWS}
    for _ in range(repeats):
        for row, call, timer in timers:
            us = timer.timeit(number) / number * 1e6
            best[row][call] = min(us, best[row].get(call, us))
    return best


def _child(src, repeats, number):
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--repeats", str(repeats),
         "--number", str(number)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", type=Path,
                    help="a tree holding the rkfw package; repeat to compare "
                         "trees (default: this checkout's src/)")
    ap.add_argument("--procs", type=int, default=6, help="processes per tree")
    ap.add_argument("--repeats", type=int, default=25,
                    help="timed repeats per call in each process")
    ap.add_argument("--number", type=int, default=2000,
                    help="calls per timed repeat")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.repeats, args.number)))
        return
    srcs = args.src or [DEFAULT_SRC]
    best = [{row: {} for row in ROWS} for _ in srcs]
    for _ in range(args.procs):
        for side, src in zip(best, srcs):
            for row, calls in _child(src, args.repeats, args.number).items():
                for call, us in calls.items():
                    side[row][call] = min(us, side[row].get(call, us))
    print(f"us per call, min of {args.repeats} repeats x {args.number} calls "
          f"in each of {args.procs} processes per tree")
    print(f"{'row':22s} {'call':22s}" + "".join(f" {str(s)[-24:]:>24s}" for s in srcs))
    for row in ROWS:
        for call in CALLS:
            print(f"{row:22s} {call:22s}"
                  + "".join(f" {side[row][call]:24.3f}" for side in best))


if __name__ == "__main__":
    main()
