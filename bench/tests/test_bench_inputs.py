from pathlib import Path

import pytest

import checks
import workloads
from rkfw.harness import parse_config


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_bytes(workload, tmp_path):
    workloads.write_inputs(workload, 7, tmp_path / "a")
    workloads.write_inputs(workload, 7, tmp_path / "b")
    workloads.write_inputs(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c
    cfg = parse_config(a["sweep.cfg"].decode())
    tableaus, variant, iters = workloads.RUNS[workload]
    assert (cfg.tableau, cfg.variant, cfg.iters, cfg.jobs) == (tableaus, variant, iters, 1)


def _traj(directory, f, violation=0.0):
    directory.mkdir()
    lines = [checks.TRAJ_HEADER] + [
        f"{k},{float(k)!r},{fk!r},1.0,0.5,{violation!r},{1000 * (k + 1)}"
        for k, fk in enumerate(f)]
    (directory / "traj.csv").write_text("\n".join(lines) + "\n")
    return directory


def test_check_run_flags_each_failure(tmp_path):
    ok = _traj(tmp_path / "ok", [3.0, 2.0, 1.0])
    assert checks.check_run(ok, "rk44", "line_search", 2) == []
    assert checks.iteration_us(ok, 2).tolist() == [1.0, 1.0]
    assert checks.check_run(ok, "rk44", "plain", 3)             # rows missing
    assert checks.check_run(tmp_path / "none", "rk44", "plain", 2)
    nan = _traj(tmp_path / "nan", [3.0, float("nan"), 1.0])
    assert checks.check_run(nan, "euler", "plain", 2)
    out = _traj(tmp_path / "out", [3.0, 2.0, 1.0], violation=1e-6)
    assert checks.check_run(out, "rk5", "plain", 2)
    assert checks.check_run(out, "midpoint", "plain", 2) == []   # not certified
    up = _traj(tmp_path / "up", [3.0, 3.5, 1.0])
    assert checks.check_run(up, "euler", "line_search", 2)
    assert checks.check_run(up, "euler", "plain", 2) == []


def test_timing_weighs_every_instance_alike():
    import run
    records = [{"instance": 1, "t": 3.0}, {"instance": 1, "t": 1.0},
               {"instance": 1, "t": 1.0}, {"instance": 2, "t": 2.0},
               {"instance": 2, "t": 6.0}, {"instance": 3, "t": 5.0}]
    assert run.per_instance(records, "t") == [1.0, 4.0, 5.0]
    assert run.across_instances(records, "t") == 4.0


def test_peak_rss_is_the_sweep_process_own():
    # the parent holds ~80 MiB when it starts the child; ru_maxrss would
    # carry that through exec, VmHWM does not
    import subprocess
    import sys
    ballast = bytearray(80 * 2**20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    bench = Path(checks.__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", "import child; print(child.peak_rss_mb())"],
        cwd=bench, capture_output=True, text=True, check=True, timeout=60)
    assert 0 < float(out.stdout) < 60
