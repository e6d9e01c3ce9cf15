"""Zigzag-energy tables on the seeded l1-constrained logistic instance.

Two tables over a horizon of 100 time units: euler across step sizes
(iterations = 100/delta), and the three schemes at delta=1. Each cell is
"E(W=5) / E(W=20)". The windows read the points while each run goes, so no
run keeps its iterates.
"""
import argparse

from rkfw import SolverConfig, ZigzagWindow, make_sensing_logistic, make_tableau, run


def energies(problem, name, delta, horizon):
    windows = [ZigzagWindow(w) for w in (5, 20)]
    cfg = SolverConfig(tableau=make_tableau(name), c=2.0, delta=delta,
                       max_iters=int(round(horizon / delta)))
    run(problem, cfg, windows)
    return tuple(zz.energies().mean() for zz in windows)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--horizon", type=float, default=100.0)
    args = ap.parse_args()
    prob = make_sensing_logistic(seed=args.seed)

    print("euler across step sizes")
    for delta in (1.0, 0.1, 0.01):
        e5, e20 = energies(prob, "euler", delta, args.horizon)
        print(f"  delta={delta:<5g} {e5:8.3f} / {e20:8.3f}")

    print("schemes at delta=1")
    for name in ("euler", "midpoint", "rk44"):
        e5, e20 = energies(prob, name, 1.0, args.horizon)
        print(f"  {name:9s} {e5:8.3f} / {e20:8.3f}")


if __name__ == "__main__":
    main()
