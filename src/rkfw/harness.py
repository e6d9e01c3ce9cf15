"""Experiment plumbing: config files, dataset loaders, and the sweep runner.

Config files are flat `key = value` text with `#` comments. Every artifact
a run produces lands in a per-run directory together with a manifest that,
fed back through `sweep`, reproduces the run (timing column aside); a rerun
replaces them. This module alone formats those files, each as blocks of at
most `_BLOCK_VALUES` values that `write_blocks` writes.
"""

import dataclasses
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
# zigzag_energy is not called here; bench/spans.py traces it at this import site
from .diagnostics import ZigzagWindow, zigzag_energy  # noqa: F401
from .flow import check_reference, reference_trajectory, total_accumulation_error
from .problems import (make_logistic, make_matrix_completion, make_scalar_huber,
                       make_sensing, make_sensing_logistic, make_triangle)
from .solvers import SolverConfig, run
from .tableau import resolve_tableau

__all__ = [
    "ExperimentConfig", "parse_config", "render", "load_svmlight",
    "load_movielens", "build_problem", "run_experiment",
]

PROBLEM_NAMES = ("triangle", "scalar_huber", "sensing", "sensing_logistic",
                 "logistic", "completion")
_BLOCK_VALUES = 2048  # most values in a block of a run file; a block holds one row at least


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
    out_dir: str = "runs"
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
    jobs = 1  # not a field or a setting: only bench/tests/test_bench_inputs.py reads it


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

#: keys that are no longer settings, each with the one value that manifests
#: written before it went carry; parse_config accepts that value and drops it
_RETIRED = {"ls_tol": 1e-10, "jobs": 1}


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
        if key not in VALUE_PARSERS and key not in _RETIRED:
            raise ValueError(f"unknown key: {key}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key: {key}")
        try:
            values[key] = (VALUE_PARSERS.get(key) or type(_RETIRED[key]))(rest)
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed value for {key}: {rest!r}") from None
    for key, kept in _RETIRED.items():
        if key in values and values.pop(key) != kept:
            raise ValueError(
                f"{key} is no longer a setting; only {key} = {kept!r} is accepted")
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
                if not np.isfinite(entries[idx - 1]):
                    raise ValueError(f"line {lineno}: non-finite value {val_s!r}")
            labels.append(-1.0 if lab == 0.0 else lab)
            rows.append(entries)
            width = max(width, 1 + max(entries, default=-1))
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
    if cfg.data is not None and not os.path.exists(cfg.data):
        raise FileNotFoundError(f"data file not found: {cfg.data}")
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
        if not len(labels):
            raise ValueError(f"{cfg.data}: no rows")
        if not features.shape[1]:
            raise ValueError(f"{cfg.data}: no feature columns")
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


def _run_name(solver_cfg: SolverConfig) -> str:
    """A run's directory under out_dir: the tableau's base name, then the variant."""
    return f"{Path(solver_cfg.tableau.name).name}_{solver_cfg.variant}"


def solver_configs(cfg: ExperimentConfig) -> list:
    """One validated SolverConfig per tableau; fails before any problem is built."""
    for i, w in enumerate(cfg.windows):
        if w < 2 or w in cfg.windows[:i]:
            raise ValueError("window must be >= 2" if w < 2 else
                             f"two windows would share the file zigzag_w{w}.csv")
    record = cfg.record_iterates or cfg.ref_delta is not None
    solver_cfgs = [SolverConfig(tableau=resolve_tableau(name), c=cfg.c,
                                delta=cfg.delta, max_iters=cfg.iters,
                                variant=cfg.variant, record_iterates=record)
                   for name in cfg.tableau]
    if not solver_cfgs:
        raise ValueError("config names no tableau")
    names = [_run_name(sc) for sc in solver_cfgs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(
                f"two runs would share the run directory {Path(cfg.out_dir) / name}")
    # after the schedule checks: check_reference assumes a valid delta and iters
    if cfg.ref_delta is not None:
        check_reference(cfg.ref_delta, cfg.delta, cfg.iters)
    return solver_cfgs


def _blocks(row, *cols):
    """`row(*values)` of each row of cols, (column, dtype) pairs, joined into blocks
    of at most _BLOCK_VALUES values and one row at least, each from its own slices."""
    step = max(1, _BLOCK_VALUES // max(1, sum(np.size(col[:1]) for col, _ in cols)))
    for i in range(0, len(cols[0][0]), step):
        yield "".join(row(*values) for values in zip(
            *(np.asarray(col[i:i + step], dtype).tolist() for col, dtype in cols)))


def traj_csv(traj):
    """traj.csv, in blocks: one `k,t,f,gap,step_norm,violation,wall_ns` row per visited point."""
    return chain(["k,t,f,gap,step_norm,violation,wall_ns\n"], _blocks(
        lambda k, t, f, gap, sn, v, w: f"{k},{t!r},{f!r},{gap!r},{sn!r},{v!r},{w}\n",
        (traj.ks, np.int64), (traj.ts, float), (traj.fs, float), (traj.gaps, float),
        (traj.step_norms, float), (traj.violations, float), (traj.wall_ns, np.int64)))


def iterates_txt(traj):
    """iterates.txt, in blocks: one recorded iterate per line, flattened, space-separated."""
    return _blocks(lambda x: " ".join(map(repr, x)) + "\n",
                   (traj.iterates.reshape(len(traj.iterates), -1), float))


def zigzag_csv(energies, window: int):
    """`block_start_k,energy` rows of zigzag_energy's blocks, in blocks, then their mean."""
    return chain(["block_start_k,energy\n"], _blocks(
        lambda k, e: f"{k},{e!r}\n", (range(0, len(energies) * window, window), np.int64),
        (energies, float)), [f"# mean,{float(energies.mean())!r}\n"])


def tae_csv(problem, traj, cfg: ExperimentConfig):
    """`t,epsilon` rows of traj's error against a flow reference at cfg.ref_delta, in blocks."""
    pairs = total_accumulation_error(traj, reference_trajectory(
        problem, cfg.c, cfg.ref_delta, t_end=cfg.iters * cfg.delta))
    return chain(["t,epsilon\n"], _blocks(lambda p: f"{p[0]!r},{p[1]!r}\n", (pairs, float)))


def write_blocks(out, blocks):
    """Write a formatter's blocks one at a time to the file `out`, or to stdout
    for "-". A formatter does what can fail when called, so a failure writes nothing."""
    with open(out, "w") if out != "-" else nullcontext(sys.stdout) as fh:
        fh.writelines(blocks)


def _one_run(problem, solver_cfg: SolverConfig, cfg: ExperimentConfig,
             out_root: Path) -> tuple:
    # a window needs w + 1 points; run hands each point to the others in turn
    windows = [ZigzagWindow(w) for w in cfg.windows if w <= solver_cfg.max_iters]
    traj = run(problem, solver_cfg, windows)
    # the directory follows the run, so a run that raises leaves none
    run_dir = out_root / _run_name(solver_cfg)
    run_dir.mkdir(exist_ok=True)
    # a rerun replaces the last run's files, the manifest first: none outlives it
    for p in [run_dir / name for name in ("manifest.txt", "traj.csv", "iterates.txt",
                                          "tae.csv")] + sorted(run_dir.glob("zigzag_w*.csv")):
        p.unlink(missing_ok=True)
    write_blocks(run_dir / "traj.csv", traj_csv(traj))
    if cfg.record_iterates:
        write_blocks(run_dir / "iterates.txt", iterates_txt(traj))
    for zz in windows:
        write_blocks(run_dir / f"zigzag_w{zz.window}.csv", zigzag_csv(zz.energies(), zz.window))
    if cfg.ref_delta is not None:
        write_blocks(run_dir / "tae.csv", tae_csv(problem, traj, cfg))
    # manifest pins this single run: same config, tableau narrowed to one
    single = dataclasses.replace(cfg, tableau=(solver_cfg.tableau.name,),
                                 out_dir=str(out_root))
    (run_dir / "manifest.txt").write_text(f"# rkfw {__version__}\n" + render(single))
    # run, tableau, variant, final_f, best_f, final_gap, max_violation
    return (run_dir.name, solver_cfg.tableau.name, solver_cfg.variant, float(traj.fs[-1]),
            float(traj.fs.min()), float(traj.gaps[-1]), float(traj.violations.max()))


def run_experiment(cfg: ExperimentConfig) -> int:
    """Fan a config out into runs; write artifacts under cfg.out_dir."""
    render(cfg)  # a value no manifest can hold fails here, before any run
    solver_cfgs = solver_configs(cfg)
    problem = build_problem(cfg)
    out_root = Path(cfg.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "summary.csv").unlink(missing_ok=True)  # a summary is of its own sweep's runs
    rows = [_one_run(problem, sc, cfg, out_root) for sc in solver_cfgs]
    if len(rows) > 1:
        f_star_proxy = min(r[4] for r in rows)  # best_f
        write_blocks(out_root / "summary.csv", [
            "# f_star_proxy is the min f over these runs, not a true optimum\n",
            "run,tableau,variant,final_f,best_f,final_gap,max_violation,f_star_proxy\n",
            *(f"{run},{tab},{var},{ff!r},{bf!r},{gap!r},{viol!r},{f_star_proxy!r}\n"
              for run, tab, var, ff, bf, gap, viol in rows)])
    return 0
