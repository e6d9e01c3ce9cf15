"""Spans around the calls into each rkfw layer, recorded from outside.

`Tracer.install()` replaces the module attributes through which rkfw
calls one layer from another (and the oracle methods of each built
problem) with wrappers that record a span per call: name, start, end,
parent span and solver-run id. Nothing under `src/` is changed; the
wrappers only time and pass arguments and results through unchanged.
Spans stay in memory and are written out once, by `save`.

The program runs on one thread and no layer has a queue, so spans have no
waiting time: a span's duration is busy time, and its self time is that
duration minus the durations of its children.
"""

import importlib
import time
from array import array

import numpy as np

# (module, attribute, span name): the import sites rkfw calls through.
CALL_SITES = (
    ("rkfw.cli", "run_experiment", "harness.run_experiment"),
    ("rkfw.harness", "build_problem", "harness.build_problem"),
    ("rkfw.harness", "run", "solvers.run"),
    ("rkfw.harness", "zigzag_energy", "diagnostics.zigzag_energy"),
    ("rkfw.harness", "reference_trajectory", "flow.reference_trajectory"),
    ("rkfw.harness", "total_accumulation_error", "flow.total_accumulation_error"),
    ("rkfw.flow", "run", "solvers.run"),
    ("rkfw.solvers", "rk_fw_step", "solvers.rk_fw_step"),
    ("rkfw.solvers", "stage_gammas", "tableau.stage_gammas"),
)


class Tracer:
    """Records spans; `install`/`uninstall` patch and restore rkfw."""

    def __init__(self):
        self.names = []                  # span name table, indexed by name id
        self._name_ids = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")            # solver-run id, -1 outside any run
        self.runs = []                   # per run id: (variant, iters, size)
        self._stack = [-1]
        self._run_stack = [-1]
        self._patched = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, on_result=None):
        """Return fn wrapped in a span called `name`."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self._run_stack[-1])
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            return out if on_result is None else on_result(out)

        return traced

    def _wrap_run(self, fn):
        """A solver run opens a new run id for every span beneath it."""
        traced = self.wrap("solvers.run", fn)

        def run(problem, cfg, *args, **kwargs):
            size = int(np.asarray(problem.x0).size)
            self._run_stack.append(len(self.runs))
            self.runs.append((cfg.variant, int(cfg.max_iters), size))
            try:
                return traced(problem, cfg, *args, **kwargs)
            finally:
                self._run_stack.pop()

        return run

    def _instrument_problem(self, problem):
        """Wrap the oracle methods of a built problem, and its atoms' dense()."""
        obj, region = problem.objective, problem.region
        obj.value = self.wrap("objectives.value", obj.value)
        obj.gradient = self.wrap("objectives.gradient", obj.gradient)
        region.membership_violation = self.wrap(
            "geometry.membership_violation", region.membership_violation)
        region.lmo = self.wrap("geometry.lmo", region.lmo, on_result=self._wrap_dense)
        return problem

    def _wrap_dense(self, atom):
        # atoms are frozen dataclasses; an instance attribute shadows dense()
        object.__setattr__(atom, "dense", self.wrap("geometry.dense", atom.dense))
        return atom

    def install(self):
        for mod_name, attr, span in CALL_SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            if span == "solvers.run":
                new = self._wrap_run(orig)
            elif attr == "build_problem":
                new = self.wrap(span, orig, on_result=self._instrument_problem)
            else:
                new = self.wrap(span, orig)
            self._patched.append((mod, attr, orig))
            setattr(mod, attr, new)
        return self

    def uninstall(self):
        while self._patched:
            mod, attr, orig = self._patched.pop()
            setattr(mod, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def arrays(self):
        """Spans as a dict of numpy arrays (the format `save` writes)."""
        runs = self.runs
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
            "run_variant": np.array([r[0] for r in runs], dtype=str),
            "run_iters": np.array([r[1] for r in runs], dtype=np.int64),
            "run_size": np.array([r[2] for r in runs], dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def self_times(start, end, parent):
    """Each span's duration minus the summed durations of its children.

    Spans on one thread nest without overlap, so the children's durations
    are exactly the part of the parent's interval that they cover.
    """
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent)
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
    return dur - covered


# `<layer>.self_s` sums the layer's spans; tableau and diagnostics have one
# span each, already reported under its own name, so they are left out
LAYERS = ("cli", "harness", "objectives", "geometry", "solvers", "flow")
# span names reported as `<name>.calls` and `<name>.self_s`
SPANS_REPORTED = (
    "objectives.gradient", "objectives.value", "geometry.lmo",
    "geometry.membership_violation", "tableau.stage_gammas",
    "solvers.rk_fw_step", "solvers.run", "flow.reference_trajectory",
    "diagnostics.zigzag_energy",
)
SELF_ONLY = ("geometry.dense", "flow.total_accumulation_error",
             "harness.build_problem", "harness.run_experiment")


def layer_metrics(spans):
    """Per-layer counts and self times (seconds) from one traced sweep.

    `spans` is the dict `Tracer.arrays` returns. Value calls per
    line-search iteration count every `value` call made inside a
    line-search solver run; with no line-search run it is 0.
    """
    names = [str(n) for n in spans["names"]]
    name = spans["name"]
    selfs = self_times(spans["start"], spans["end"], spans["parent"])
    calls = dict(zip(names, np.bincount(name, minlength=len(names)).tolist()))
    self_s = dict(zip(names, (np.bincount(name, weights=selfs, minlength=len(names))
                              / 1e9).tolist()))

    def spans_named(n):
        return name == names.index(n) if n in names else np.zeros(len(name), bool)

    out = {}
    for n in SPANS_REPORTED:
        out[f"{n}.calls"] = calls.get(n, 0)
        out[f"{n}.self_s"] = self_s.get(n, 0.0)
    for n in SELF_ONLY:
        out[f"{n}.self_s"] = self_s.get(n, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for n, v in self_s.items()
                                     if n.split(".")[0] == layer)

    ls_runs = np.flatnonzero(spans["run_variant"] == "line_search")
    ls_iters = int(spans["run_iters"][ls_runs].sum())
    value_runs = spans["run"][spans_named("objectives.value")]
    ls_values = int(np.isin(value_runs, ls_runs).sum())
    out["solvers.ls.value_calls_per_iter"] = ls_values / ls_iters if ls_iters else 0.0
    rows = spans["run_iters"] + 1
    out["harness.iterates_bytes_retained"] = int(
        (rows * spans["run_size"] * 8).max()) if len(rows) else 0
    return out
