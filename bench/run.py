"""Benchmark entry point: one workload, measured for a fixed time.

    python3 bench/run.py --workload sensing-ls --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and imports rkfw
from the checkout's `src/`. Each sweep of the workload runs in its own
fresh process (`child.py`), one after another, in pairs that cycle over
INSTANCES seeded instances, for `--seconds` (at most MAX_SECONDS, and at
least MIN_PAIRS pairs). Every run of every sweep is checked (`checks.py`),
and the two sweeps of a pair must write the same files apart from
`wall_ns`.

--trace 0 reports the end-to-end metrics of untraced sweeps, with the
timings scaled to a reference host speed by a calibration kernel timed
around every sweep (`host_kernel_s`). --trace 1
alternates untraced and traced sweeps and reports per-layer metrics from
the traced ones (`spans.py`), plus the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, here and in every sweep process: the box has 2 cores and
# the BLAS pool counts against them; set before numpy loads
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
INSTANCES = 3             # pair p runs instance seed * 1000 + p % INSTANCES
MIN_PAIRS = INSTANCES     # every instance runs, however long a sweep takes
MAX_SECONDS = 60          # with SWEEP_TIMEOUT_S, a run ends within 180 s
SWEEP_TIMEOUT_S = 20
KERNEL_REF_S = 0.045      # host_kernel_s() on a 2.1 GHz Xeon vCPU, roughly
_KERNEL_A = np.random.default_rng(0).standard_normal((500, 100))
_KERNEL_V = np.random.default_rng(1).standard_normal(100)
_KERNEL_M = np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
_KERNEL_B = np.array([0.1, 0.2, 1.0])


def host_kernel_s():
    """Wall time of a fixed mix of interpreter loops, tiny numpy calls
    (a 3x3 lstsq, a copy, a finiteness test) and a 500x100 matvec, the
    kinds of work the workloads do.

    The host's speed drifts by tens of percent over seconds to minutes, on
    both cores at once. This process never imports rkfw, so no change to
    the program moves this time; only the host's speed does.
    """
    t0 = time.perf_counter_ns()
    acc = 0.0
    for _ in range(1000):
        w = np.linalg.lstsq(_KERNEL_M, _KERNEL_B, rcond=None)[0]
        y = np.array(w, copy=True) * 0.5 + w
        acc += float(np.all(np.isfinite(y))) + float(y.sum())
        x = _KERNEL_A @ _KERNEL_V
        acc += float(x @ x)
        for j in range(40):
            acc += j
    return (time.perf_counter_ns() - t0) / 1e9


def _run_sweep(directory, workload, seed, src, spans_path=None):
    """Start one sweep process in `directory`; return its JSON report."""
    config = workloads.write_inputs(workload, seed, directory)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    extra = ["--spans", str(spans_path)] if spans_path else []
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, str(HERE / "child.py"), "--config", config.name,
           "--spawn-ns", str(spawn_ns), *extra]
    try:
        proc = subprocess.run(cmd, cwd=directory, env=env, capture_output=True,
                              text=True, timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": f"timed out after {SWEEP_TIMEOUT_S} s"}
    sys.stderr.write(proc.stderr)
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": f"no report (exit {proc.returncode})"}
    if not Path(report["rkfw"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"rkfw was imported from {report['rkfw']}, not {src}")
    return report


class Series:
    """Sweeps of one workload, run in pairs.

    Both sweeps of pair p read the inputs of instance
    `seed * 1000 + p % INSTANCES`, so the seed alone fixes which instances
    a run measures, however many pairs fit in it. The second sweep must
    write the same files as the first apart from wall_ns. Under --trace 1
    the second sweep of each pair is traced, which shows the wrappers are
    transparent.

    A run fails when it raises (or never starts because an earlier run of
    its sweep raised) or when its output fails a check; only the latter,
    and a pair whose outputs differ, make the result incorrect. A sweep
    with a failed run is left out of the timings.
    """

    def __init__(self, workload, seed, root, src):
        self.workload, self.seed = workload, seed
        self.root, self.src = root, src
        self.tableaus, self.variant, self.iters = workloads.RUNS[workload]
        self.run_names = [f"{t}_{self.variant}" for t in self.tableaus]
        self.pairs = 0
        self.attempted = self.failed = 0
        self.wrong = []              # incorrect outputs
        self.problems = []           # everything else that failed
        self.sweeps = {False: [], True: []}   # one record per sweep, by traced
        self.outputs = []            # per clean pair: bytes written, ls progress

    def pair(self, trace_second):
        instance = self.seed * 1000 + self.pairs % INSTANCES
        dir1, digest1, failed1, _ = self._sweep(instance, traced=False)
        dir2, digest2, failed2, record2 = self._sweep(instance, traced=trace_second)
        if not failed1:
            for path in checks.differing_files(digest1, digest2):
                self.wrong.append(f"{dir2.name}: {path} differs from {dir1.name}")
                run = path.split("/")[0]
                failed2.update([run] if run in self.run_names else self.run_names)
                record2["ok"] = False
            self.outputs.append({
                "instance": instance,
                "harness.bytes_written": checks.bytes_written(dir1 / "out"),
                "solvers.ls.progress_ratio": self._ls_progress(dir1 / "out")})
        self.failed += len(failed1) + len(failed2)
        self.pairs += 1
        shutil.rmtree(dir1)
        shutil.rmtree(dir2)

    def _sweep(self, instance, traced):
        n = len(self.sweeps[False]) + len(self.sweeps[True])
        directory = self.root / f"sweep{n:03d}"
        spans_path = directory / "spans.npz"
        before = host_kernel_s()
        report = _run_sweep(directory, self.workload, instance, self.src,
                            spans_path if traced else None)
        # how much slower than the reference the host ran around this sweep
        host = (before + host_kernel_s()) / (2 * KERNEL_REF_S)
        self.attempted += len(self.run_names)
        clean = report["rc"] == 0
        out = directory / "out"
        failed = set()
        for t, name in zip(self.tableaus, self.run_names):
            # manifest.txt is the last file a run writes
            if not clean and not (out / name / "manifest.txt").is_file():
                failed.add(name)
                continue
            found = checks.check_run(out / name, t, self.variant, self.iters)
            if found:
                failed.add(name)
                self.wrong.extend(found)
        if not clean:
            self.problems.append(f"{directory.name} (instance {instance}): "
                                 f"sweep ended with {report['rc']}")
            failed = failed or set(self.run_names)
        record = {"instance": instance, "ok": not failed, "host": host}
        if record["ok"]:
            its = np.concatenate([checks.iteration_us(out / r, self.iters)
                                  for r in self.run_names])
            record.update(setup_s=report["setup_s"] / host,
                          sweep_s=report["sweep_s"] / host,
                          iter_us_p50=float(np.percentile(its, 50)) / host,
                          iter_us_p90=float(np.percentile(its, 90)) / host,
                          peak_rss_mb=report["peak_rss_mb"],
                          iterations=len(its))
        if traced and spans_path.is_file():
            with np.load(spans_path) as data:
                record["layer"] = spans.layer_metrics(dict(data))
        self.sweeps[traced].append(record)
        digest = checks.output_digest(out) if out.is_dir() else {}
        return directory, digest, failed, record

    def _ls_progress(self, out):
        if self.variant != "line_search":
            return 0.0
        lowered = sum(checks.ls_progress(out / r) for r in self.run_names)
        return lowered / (self.iters * len(self.run_names))


def per_instance(records, key):
    """The median of `key` over each instance's records, one per instance."""
    groups = {}
    for r in records:
        groups.setdefault(r["instance"], []).append(r[key])
    return [float(np.median(v)) for v in groups.values()]


def across_instances(records, key):
    """Median over instances of each instance's median, so that every
    instance weighs alike however many of its sweeps fit in the run."""
    return float(np.median(per_instance(records, key)))


def end_to_end(series):
    """Timings are scaled to the reference host speed: each is divided by
    the host kernel's time around its sweep over KERNEL_REF_S."""
    sweeps = series.sweeps[False]
    ok = [r for r in sweeps if r["ok"]]
    instances = len({r["instance"] for r in ok})
    host = float(np.median([r["host"] for r in sweeps]))
    note = (f"median over {instances} instances of {len(ok)} sweeps; "
            f"{len(sweeps) - len(ok)} failed sweeps left out")
    tnote = f"{note}; host at {host:.3f}x reference time, scaled out"
    inote = f"{ok[0]['iterations']} iterations per sweep; {tnote}"
    return {
        "setup_s": (across_instances(ok, "setup_s"), "s", tnote),
        "sweep_s": (across_instances(ok, "sweep_s"), "s", tnote),
        "iter_us_p50": (across_instances(ok, "iter_us_p50"), "us", inote),
        "iter_us_p90": (across_instances(ok, "iter_us_p90"), "us", inote),
        "peak_rss_mb": (across_instances(ok, "peak_rss_mb"), "MiB", note),
    }


def per_layer(series):
    """Per-layer metrics: per instance the median over its traced sweeps,
    then the median over instances."""
    traced = [dict(r["layer"], instance=r["instance"], ok=r["ok"])
              for r in series.sweeps[True] if "layer" in r]
    ok = [r for r in traced if r["ok"]]
    note = f"median over instances of {len(ok)} traced sweeps, not scaled"
    out = {}
    for key in ok[0]:
        if key in ("instance", "ok"):
            continue
        unit = ("s" if key.endswith("_s") else
                "calls/iter" if key.endswith("_per_iter") else
                "bytes_computed" if key.endswith("bytes_retained") else "count")
        out[key] = (across_instances(ok, key), unit, note)
    note = f"median over instances of {len(series.outputs)} untraced sweeps"
    for key, unit in (("harness.bytes_written", "bytes"),
                      ("solvers.ls.progress_ratio", "ratio")):
        out[key] = (across_instances(series.outputs, key), unit, note)
    traced_ok = [r for r in series.sweeps[True] if r["ok"]]
    plain = [r for r in series.sweeps[False] if r["ok"]]
    overhead = (across_instances(traced_ok, "sweep_s")
                / across_instances(plain, "sweep_s") - 1.0)
    out["trace.overhead_frac"] = (
        overhead, "ratio",
        f"scaled sweep_s of {len(traced_ok)} traced over {len(plain)} untraced sweeps")
    return out


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def _seconds(text):
    seconds = float(text)
    if not 0 < seconds <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"seconds must be in (0, {MAX_SECONDS}]")
    return seconds


def main(argv=None):
    ap = argparse.ArgumentParser(description="rkfw layered benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=_seconds, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rkfw" / "__init__.py").is_file():
        print(f"error: no rkfw package under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        series = Series(args.workload, args.seed, work, src)
        start = time.monotonic()
        pair_s = 0.0
        # start another pair only if it should end within --seconds
        while series.pairs < MIN_PAIRS or (
                time.monotonic() - start + pair_s <= args.seconds):
            t0 = time.monotonic()
            series.pair(trace_second=bool(args.trace))
            pair_s = time.monotonic() - t0
        for problem in series.wrong + series.problems:
            print(f"failed: {problem}", file=sys.stderr)
        if not all(any(r["ok"] for r in series.sweeps[traced])
                   for traced in {False, bool(args.trace)}):
            print("error: no sweep completed cleanly", file=sys.stderr)
            return 1
        metrics = per_layer(series) if args.trace else end_to_end(series)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit:14s} ({note})")
    print(f"  {'failed_frac':40s} {series.failed / series.attempted:14.6g} "
          f"{'ratio':14s} ({series.failed} of {series.attempted} runs)")
    if args.trace:
        print("  waiting time: none; rkfw runs on one thread with no queues, "
              "so every span is busy time")
    print(json.dumps({
        "correct": not series.wrong,
        "attempted": series.attempted,
        "failed": series.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
