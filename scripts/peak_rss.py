"""Peak resident memory of one sweep at iters N, 4N and 16N.

Each sweep runs in a fresh process: `rkfw.cli.main(["sweep", ...])` on the
config with `iters` replaced and `out_dir` a temporary directory, started
in the current directory, so relative `data` and `tableau` paths read as
in `rkfw sweep`. The process reports its VmHWM, the peak resident set of
its own memory, once after importing rkfw and once after the sweep, and at
the end of the sweep its resident file-backed pages (RssFile: mapped code
and data such as LAPACK's) and anonymous ones (RssAnon: the heap), so a
change in the peak can be read as one kind of page or the other. Memory
that a run keeps per iteration shows as a peak that grows with `iters`; a
run that keeps nothing per row and coordinate reads about the same at all
three lengths. With several `--src` trees (for example the parent's `src/`
and this checkout's), their processes alternate at each length, as in
`scripts/percall.py`, and each length prints one row per tree.

    python scripts/peak_rss.py --config sweep.cfg --iters 1000
    python scripts/peak_rss.py --config sweep.cfg --iters 1000 --src ../parent/src --src src
"""
import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


def status_mb():
    """The kB fields of /proc/self/status (Linux) in MiB, by name. VmHWM is
    this process's peak resident set, unlike ru_maxrss, which a child
    inherits from its parent through exec."""
    with open("/proc/self/status") as f:
        fields = (line.split(":", 1) for line in f)
        return {key: int(v.split()[0]) / 1024 for key, v in fields if v.endswith(" kB\n")}


def _child(config, iters, tmp):
    """Run the sweep of `config` at `iters` into `tmp` in this process and
    print its report, one JSON line."""
    import rkfw.cli
    from rkfw.harness import parse_config, render

    imported = status_mb()["VmHWM"]
    cfg = dataclasses.replace(parse_config(Path(config).read_text(encoding="utf-8")),
                              iters=iters, out_dir=str(Path(tmp) / "out"))
    path = Path(tmp) / "sweep.cfg"
    path.write_text(render(cfg))
    rc = rkfw.cli.main(["sweep", "--config", str(path)])
    status = status_mb()
    print(json.dumps({"rc": rc, "imported_mb": imported, "peak_mb": status["VmHWM"],
                      "file_mb": status["RssFile"], "anon_mb": status["RssAnon"]}))


def measure(config, iters, src):
    """{rc, imported_mb, peak_mb, file_mb, anon_mb} of one fresh-process
    sweep of the config file at `iters` iterations, importing rkfw from
    `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        out = subprocess.run(
            [sys.executable, __file__, "--child", str(config), str(iters), tmp],
            env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="a sweep config file")
    ap.add_argument("--iters", type=int, required=True, help="N, the shortest run")
    ap.add_argument("--src", action="append", type=Path,
                    help="a tree holding the rkfw package; repeat to compare "
                         "trees (default: this checkout's src/)")
    args = ap.parse_args(argv)
    srcs = args.src or [DEFAULT_SRC]
    print(f"iters {'tree':>24s}  after import (MiB)  peak (MiB)  peak - import (MiB)"
          "  file (MiB)  anon (MiB)")
    for iters in (args.iters, 4 * args.iters, 16 * args.iters):
        for src in srcs:
            r = measure(args.config, iters, src)
            if r["rc"] != 0:
                raise SystemExit(f"the sweep of {src} at iters = {iters} exited {r['rc']}")
            print(f"{iters:5d} {str(src)[-24:]:>24s} {r['imported_mb']:19.2f} "
                  f"{r['peak_mb']:11.2f} {r['peak_mb'] - r['imported_mb']:20.2f} "
                  f"{r['file_mb']:11.2f} {r['anon_mb']:11.2f}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        main()
