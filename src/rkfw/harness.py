"""Experiment plumbing: config files, dataset loaders, and the sweep runner.

Config files are flat `key = value` text with `#` comments. Every artifact
a run produces lands in a per-run directory together with a manifest that,
fed back through `sweep`, reproduces the run (timing column aside).
"""

import dataclasses
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import zigzag_energy
from .flow import check_reference, reference_trajectory, total_accumulation_error
from .problems import (make_logistic, make_matrix_completion, make_scalar_huber,
                       make_sensing, make_sensing_logistic, make_triangle)
from .solvers import VARIANTS, SolverConfig, run
from .tableau import resolve_tableau

__all__ = [
    "ExperimentConfig", "VALUE_PARSERS", "parse_config", "render",
    "load_svmlight", "load_movielens", "build_problem", "solver_configs",
    "tae_csv", "run_experiment", "PROBLEM_NAMES",
]

PROBLEM_NAMES = ("triangle", "scalar_huber", "sensing", "sensing_logistic",
                 "logistic", "completion")


@dataclass
class ExperimentConfig:
    """One experiment: a problem, one or more methods, and output knobs.

    `tableau` holds several names for a sweep; everything else is shared
    across the fanned-out runs.
    """
    problem: str
    tableau: tuple = ("euler",)
    variant: str = "plain"
    c: float = 2.0
    delta: float = 1.0
    iters: int = 100
    seed: int = 0
    windows: tuple = (5, 20)
    ref_delta: float = None
    record_iterates: bool = False
    ls_tol: float = 1e-10
    out_dir: str = "runs"
    jobs: int = 1  # only 1: sweeps run serially; kept so manifests rerun
    # problem parameters; each problem reads the subset it understands
    x_star: tuple = (0.2, 0.3)
    epsilon: float = 0.5
    m: int = 500
    n: int = 100
    sparsity: float = 0.10
    noise_sd: float = 0.05
    alpha: float = 1000.0
    rho: float = 10.0
    data: str = None


# element type of each comma-list key; every other key is typed by its annotation
_LIST_ELEMS = {"tableau": str, "windows": int, "x_star": float}


def _bool(text):
    low = text.lower()
    if low not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(text)
    return low in ("true", "1", "yes")


def _list_of(elem):
    def parse(text):
        toks = [tok.strip() for tok in text.split(",")] if text.strip() else []
        # a blank name is a stray separator; a blank number is malformed
        return tuple(elem(tok) for tok in toks if tok or elem is not str)
    parse.__name__ = f"{elem.__name__} list"  # argparse: "invalid int list value"
    return parse


#: key -> parser from its text form to the value ExperimentConfig holds
VALUE_PARSERS = {f.name: _list_of(_LIST_ELEMS[f.name]) if f.type is tuple
                 else _bool if f.type is bool else f.type
                 for f in dataclasses.fields(ExperimentConfig)}


def parse_config(text) -> ExperimentConfig:
    """Parse `key = value` lines into a typed config with defaults filled in."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, rest = key.strip(), rest.strip()
        if key not in VALUE_PARSERS:
            raise ValueError(f"unknown key: {key}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key: {key}")
        try:
            values[key] = VALUE_PARSERS[key](rest)
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed value for {key}: {rest!r}") from None
    if "problem" not in values:
        raise ValueError("missing required key: problem")
    return ExperimentConfig(**values)


def render(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config: parse_config(render(cfg)) == cfg.

    A string that would read back otherwise (one holding `#` or a line
    break, one with surrounding blanks, or a tableau name holding a comma)
    raises ValueError naming its key.
    """
    lines = []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        if v is None:
            continue
        if isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, tuple):
            text = ",".join(repr(e) if isinstance(e, float) else str(e) for e in v)
        else:
            text = repr(v) if isinstance(v, float) else str(v)
        # numbers and flags read back exactly; strings are checked
        if str in (f.type, _LIST_ELEMS.get(f.name)) and (
                len(text.splitlines()) > 1
                or VALUE_PARSERS[f.name](text.split("#", 1)[0].strip()) != v):
            raise ValueError(f"{f.name} = {v!r} would not read back from a manifest")
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def load_svmlight(path):
    """Read `label idx:val ...` lines into a dense matrix and a label vector.

    Indices are 1-based. Labels may be -1/1 or 0/1; zeros map to -1. Column
    count is the largest index seen anywhere in the file.
    """
    rows, labels, width = [], [], 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            toks = line.split()
            try:
                lab = float(toks[0])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric label {toks[0]!r}") from None
            if lab not in (-1.0, 0.0, 1.0):
                raise ValueError(
                    f"line {lineno}: label must be one of -1, 0, 1, got {toks[0]}")
            entries = {}
            for tok in toks[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise ValueError(
                        f"line {lineno}: expected idx:val, got {tok!r}")
                try:
                    idx = int(idx_s)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: non-numeric index {idx_s!r}") from None
                if idx < 1:
                    raise ValueError(f"line {lineno}: index must be >= 1")
                if idx - 1 in entries:
                    raise ValueError(f"line {lineno}: duplicate index {idx}")
                try:
                    entries[idx - 1] = float(val_s)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: non-numeric value {val_s!r}") from None
            labels.append(-1.0 if lab == 0.0 else lab)
            rows.append(entries)
            width = max(width, 1 + max(entries, default=-1))
    if not rows:
        warnings.warn(f"{path}: empty svmlight file")
        return np.zeros((0, 0)), np.zeros(0)
    features = np.zeros((len(rows), width))
    for i, entries in enumerate(rows):
        for j, v in entries.items():
            features[i, j] = v
    return features, np.asarray(labels)


def load_movielens(path):
    """Read tab-separated `user item rating timestamp` rows, 1-based ids.

    Returns (user-1, item-1, raw rating) triples; recentring to a 0 mean
    scale happens at problem construction, not here.
    """
    triples = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise ValueError(
                    f"line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
            try:
                user, item, rating = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: non-numeric field in {raw.strip()!r}") from None
            if user < 1 or item < 1:
                raise ValueError(f"line {lineno}: ids are 1-based")
            if not 1.0 <= rating <= 5.0:
                raise ValueError(f"line {lineno}: rating {rating} outside [1, 5]")
            if (user, item) in seen:
                raise ValueError(
                    f"line {lineno}: duplicate rating for (user {user}, item {item})")
            seen.add((user, item))
            triples.append((user - 1, item - 1, rating))
    return triples


def build_problem(cfg: ExperimentConfig):
    name = cfg.problem
    if name == "triangle":
        return make_triangle(cfg.x_star)
    if name == "scalar_huber":
        return make_scalar_huber(cfg.epsilon)
    if name == "sensing":
        return make_sensing(cfg.m, cfg.n, cfg.sparsity, cfg.noise_sd,
                            cfg.alpha, cfg.seed)
    if name == "sensing_logistic":
        return make_sensing_logistic(cfg.m, cfg.n, cfg.sparsity, cfg.noise_sd,
                                     cfg.alpha, cfg.seed)
    if name == "logistic":
        if cfg.data is None:
            raise ValueError("problem 'logistic' needs data = <svmlight path>")
        features, labels = load_svmlight(cfg.data)
        return make_logistic(features, labels, cfg.alpha)
    if name == "completion":
        if cfg.data is None:
            raise ValueError("problem 'completion' needs data = <ratings path>")
        triples = load_movielens(cfg.data)
        if not triples:
            raise ValueError(f"{cfg.data}: no ratings")
        shape = (1 + max(r for r, _, _ in triples),
                 1 + max(c for _, c, _ in triples))
        return make_matrix_completion(triples, shape, cfg.alpha, cfg.rho)
    raise ValueError(f"unknown problem: {name} (expected one of {', '.join(PROBLEM_NAMES)})")


def solver_configs(cfg: ExperimentConfig) -> list:
    """One validated SolverConfig per tableau; fails before any problem is built."""
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown variant: {cfg.variant}")
    if any(w < 2 for w in cfg.windows):
        raise ValueError("window must be >= 2")
    if cfg.jobs != 1:
        raise ValueError(f"jobs must be 1 (sweeps run serially), got {cfg.jobs}")
    if cfg.ref_delta is not None:
        check_reference(cfg.ref_delta, cfg.delta, cfg.iters)
    solver_cfgs = []
    for name in cfg.tableau:
        sc = SolverConfig(tableau=resolve_tableau(name), c=cfg.c,
                          delta=cfg.delta, max_iters=cfg.iters,
                          variant=cfg.variant, ls_tol=cfg.ls_tol,
                          record_iterates=(cfg.record_iterates or bool(cfg.windows)
                                           or cfg.ref_delta is not None))
        sc.validate()
        solver_cfgs.append(sc)
    if not solver_cfgs:
        raise ValueError("config names no tableau")
    return solver_cfgs


def tae_csv(problem, traj, cfg: ExperimentConfig) -> str:
    """`t,epsilon` rows of traj's error against a flow reference at cfg.ref_delta."""
    ref = reference_trajectory(problem, cfg.c, cfg.ref_delta,
                               t_end=cfg.iters * cfg.delta)
    pairs = total_accumulation_error(traj, ref)
    return "t,epsilon\n" + "".join(f"{t!r},{eps!r}\n" for t, eps in pairs)


def _one_run(problem, solver_cfg: SolverConfig, cfg: ExperimentConfig,
             out_root: Path) -> dict:
    run_dir = out_root / f"{solver_cfg.tableau.name}_{solver_cfg.variant}"
    run_dir.mkdir(parents=True, exist_ok=True)
    traj = run(problem, solver_cfg)
    with open(run_dir / "traj.csv", "w") as fh:
        traj.write_csv(fh)
    if cfg.record_iterates:
        with open(run_dir / "iterates.txt", "w") as fh:
            traj.write_iterates(fh)
    for w in cfg.windows:
        if len(traj.iterates) >= w + 1:
            report = zigzag_energy(traj.iterates, w)
            with open(run_dir / f"zigzag_w{w}.csv", "w") as fh:
                report.write_csv(fh)
    if cfg.ref_delta is not None:
        # rows first, file second: a failed reference leaves no empty tae.csv
        (run_dir / "tae.csv").write_text(tae_csv(problem, traj, cfg))
    # manifest pins this single run: same config, tableau narrowed to one
    single = dataclasses.replace(cfg, tableau=(solver_cfg.tableau.name,),
                                 out_dir=str(out_root))
    with open(run_dir / "manifest.txt", "w") as fh:
        fh.write(f"# rkfw {__version__}\n")
        fh.write(render(single))
    return {
        "run": run_dir.name,
        "tableau": solver_cfg.tableau.name,
        "variant": solver_cfg.variant,
        "final_f": float(traj.fs[-1]),
        "best_f": float(traj.fs.min()),
        "final_gap": float(traj.gaps[-1]),
        "max_violation": float(traj.violations.max()),
    }


def run_experiment(cfg: ExperimentConfig) -> int:
    """Fan a config out into runs; write artifacts under cfg.out_dir."""
    render(cfg)  # a value no manifest can hold fails here, before any run
    solver_cfgs = solver_configs(cfg)
    if cfg.data is not None and not os.path.exists(cfg.data):
        raise FileNotFoundError(f"data file not found: {cfg.data}")
    problem = build_problem(cfg)
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = [_one_run(problem, sc, cfg, out_root) for sc in solver_cfgs]
    if len(rows) > 1:
        f_star_proxy = min(r["best_f"] for r in rows)
        with open(out_root / "summary.csv", "w") as fh:
            fh.write("# f_star_proxy is the min f over these runs, not a true optimum\n")
            fh.write("run,tableau,variant,final_f,best_f,final_gap,max_violation,f_star_proxy\n")
            for r in rows:
                fh.write(f"{r['run']},{r['tableau']},{r['variant']},"
                         f"{r['final_f']!r},{r['best_f']!r},{r['final_gap']!r},"
                         f"{r['max_violation']!r},{f_star_proxy!r}\n")
    return 0
