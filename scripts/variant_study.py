"""Compare plain, line-search, and momentum runs on the sensing problem.

Prints final and best objective values after a fixed budget, the worst
feasibility violation seen per run, and the objective value calls per
iteration (row values and line-search evaluations together).
"""
import argparse

from rkfw import SolverConfig, make_sensing, make_tableau, run


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iters", type=int, default=1000)
    args = ap.parse_args()
    prob = make_sensing(seed=args.seed)
    calls = [0]
    value = prob.objective.value

    def counted(x):
        calls[0] += 1
        return value(x)

    prob.objective.value = counted

    combos = [("euler", "plain"), ("midpoint", "plain"), ("rk44", "plain"),
              ("euler", "line_search"), ("midpoint", "line_search"),
              ("rk44", "line_search"), ("euler", "momentum")]
    print(f"{'tableau':9s} {'variant':12s} {'final f':>12s} {'best f':>12s} {'max viol':>10s} "
          f"{'value calls/iter':>16s}")
    for name, variant in combos:
        cfg = SolverConfig(tableau=make_tableau(name), c=2.0, delta=1.0,
                           max_iters=args.iters, variant=variant)
        calls[0] = 0
        traj = run(prob, cfg)
        print(f"{name:9s} {variant:12s} {traj.fs[-1]:12.3f} {min(traj.fs):12.3f} "
              f"{max(traj.violations):10.2e} {calls[0] / max(args.iters, 1):16.2f}")


if __name__ == "__main__":
    main()
