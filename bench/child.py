"""One workload sweep in a fresh process, as a user would run it.

    python3 bench/child.py --config sweep.cfg --spawn-ns N [--spans FILE]

Runs `rkfw.cli.main(["sweep", "--config", ...])` in the current directory
and prints one JSON line: set-up time (from `--spawn-ns`, the parent's
CLOCK_MONOTONIC reading just before it started this process, to the entry
of the first solver run), the sweep call's wall time and the process's
peak RSS (`peak_rss_mb`). With `--spans` the sweep runs under
`spans.Tracer` and the spans are saved to that file.
"""

import argparse
import json
import time
import traceback


def peak_rss_mb():
    """VmHWM, the peak resident set of this process's own memory.

    Not `ru_maxrss`: Linux carries the parent's high-water mark through
    exec into it, so a small sweep would read the benchmark's own size.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--spans", help="trace the sweep and save its spans here")
    args = ap.parse_args(argv)

    import rkfw.cli
    import rkfw.harness

    tracer = None
    if args.spans:
        from spans import Tracer  # bench/ is sys.path[0] for this script
        tracer = Tracer().install()

    # set-up ends where the first solver run begins; the hook removes
    # itself on first use, so the untraced sweep runs unwrapped
    first_run_ns = []
    run = rkfw.harness.run

    def first_run(*a, **kw):
        first_run_ns.append(time.monotonic_ns())
        rkfw.harness.run = run
        return run(*a, **kw)

    rkfw.harness.run = first_run
    sweep = rkfw.cli.main if tracer is None else tracer.wrap("cli.main", rkfw.cli.main)
    result = {"rkfw": rkfw.__file__}
    t0 = time.monotonic_ns()
    try:
        result["rc"] = sweep(["sweep", "--config", args.config])
    except Exception:  # a failed sweep is reported, not fatal to the benchmark
        traceback.print_exc()
        result["rc"] = "raised"
    t1 = time.monotonic_ns()
    if tracer is not None:
        tracer.uninstall()
        tracer.save(args.spans)
    result.update(
        setup_s=(first_run_ns[0] - args.spawn_ns) / 1e9 if first_run_ns else None,
        sweep_s=(t1 - t0) / 1e9,
        peak_rss_mb=peak_rss_mb(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
