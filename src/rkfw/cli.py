"""Command line front end, one verb per artifact kind.

certify  stage-coefficient certificates for a tableau
solve    one configured run (trajectory CSV plus diagnostics)
zigzag   energy report from an iterate dump
tae      trajectory error against a fine-step reference
sweep    config-driven multi-run with a comparison summary
"""

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from .diagnostics import zigzag_energy
from .harness import (PROBLEM_NAMES, VALUE_PARSERS, ExperimentConfig,
                      build_problem, parse_config, run_experiment,
                      solver_configs, tae_csv, write_blocks, zigzag_csv)
from .solvers import VARIANTS, run
from .tableau import feasibility_certificate, resolve_tableau

__all__ = ["main"]


# what a run flag needs beyond its ExperimentConfig key and type
_FLAG_EXTRAS = {
    "problem": dict(required=True, choices=PROBLEM_NAMES),
    "tableau": dict(help="builtin name, comma list, or tableau file path"),
    "variant": dict(choices=VARIANTS),
    "ref_delta": dict(help="also write tae.csv against a reference this fine"),
    "data": dict(help="svmlight or ratings file"),
}


def _add_run_flags(p: argparse.ArgumentParser, omit=()):
    """One flag per config key not in `omit`; an unset flag keeps the default."""
    group = p
    for f in dataclasses.fields(ExperimentConfig):
        if f.name == "x_star":  # the first problem parameter
            group = p.add_argument_group("problem parameters")
        if f.name in omit:
            continue
        kw = (dict(action="store_true") if f.type is bool
              else dict(type=VALUE_PARSERS[f.name]))
        group.add_argument("--" + f.name.replace("_", "-"),
                           default=argparse.SUPPRESS,
                           **kw, **_FLAG_EXTRAS.get(f.name, {}))


def _cfg_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(**{k: v for k, v in vars(args).items()
                               if k in VALUE_PARSERS})


def _cmd_certify(args) -> int:
    t = resolve_tableau(args.tableau)
    rep = feasibility_certificate(t, args.c, args.delta, args.k_max)
    lines = ["k," + ",".join(f"z_{i + 1}" for i in range(t.q))]
    for k, z in rep.z_by_k:
        lines.append(f"{k}," + ",".join(repr(float(v)) for v in z))
    lines.append("# all stage coefficients in [0, 1]: "
                 + ("yes" if rep.all_in_unit_interval else "NO"))
    lines.append("# sup norm nonincreasing in k: "
                 + ("yes" if rep.sup_norm_monotone else "NO"))
    write_blocks(args.out, (line + "\n" for line in lines))
    return 0 if rep.all_in_unit_interval else 1


def _cmd_solve(args) -> int:
    return run_experiment(_cfg_from_args(args))


def _cmd_zigzag(args) -> int:
    with warnings.catch_warnings():
        # a file with no rows gets its own error line from zigzag_energy
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        pts = np.loadtxt(args.iterates, ndmin=2)
    write_blocks(args.out, zigzag_csv(zigzag_energy(pts, args.window), args.window))
    return 0


def _cmd_tae(args) -> int:
    cfg = _cfg_from_args(args)
    if cfg.ref_delta is None:
        raise ValueError("tae needs --ref-delta")
    if len(cfg.tableau) != 1:
        raise ValueError("tae compares a single tableau against the reference")
    (sc,) = solver_configs(cfg)
    problem = build_problem(cfg)
    write_blocks(args.out, tae_csv(problem, run(problem, sc), cfg))
    return 0


def _cmd_sweep(args) -> int:
    return run_experiment(parse_config(Path(args.config).read_text(encoding="utf-8")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkfw",
        description="Multistage conditional-gradient runs and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="stage-coefficient certificates")
    p.add_argument("--tableau", required=True)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("solve", help="run one configuration")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("zigzag", help="energy report from an iterate dump")
    p.add_argument("--iterates", required=True,
                   help="whitespace-separated rows, one iterate per line")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_zigzag)

    p = sub.add_parser("tae", help="trajectory error against a reference")
    # tae writes no run directory, so it takes none of the keys that shape one
    _add_run_flags(p, omit=("out_dir", "record_iterates", "windows"))
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_tae)

    p = sub.add_parser("sweep", help="config-driven multi-run")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
