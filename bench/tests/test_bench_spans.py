import numpy as np
import pytest

import checks
import rkfw.cli
import rkfw.harness
import rkfw.solvers
from spans import Tracer, layer_metrics, self_times


def _spans(rows, runs=()):
    """rows: (name, start, end, parent, run); runs: (variant, iters, size)."""
    names = sorted({r[0] for r in rows})
    col = list(zip(*rows))
    return {
        "names": np.array(names),
        "name": np.array([names.index(n) for n in col[0]]),
        "start": np.array(col[1]), "end": np.array(col[2]),
        "parent": np.array(col[3]), "run": np.array(col[4]),
        "run_variant": np.array([r[0] for r in runs], dtype=str),
        "run_iters": np.array([r[1] for r in runs], dtype=np.int64),
        "run_size": np.array([r[2] for r in runs], dtype=np.int64),
    }


def test_self_time_subtracts_direct_children_only():
    #  0 [0, 100)
    #  +-- 1 [10, 40)
    #  |   +-- 2 [15, 25)
    #  +-- 3 [50, 90)
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 90]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_layer_metrics_on_a_hand_built_tree():
    s = 10**9
    spans = _spans([
        ("cli.main", 0, 10 * s, -1, -1),
        ("solvers.run", 1 * s, 9 * s, 0, 0),
        ("objectives.value", 2 * s, 3 * s, 1, 0),
        ("objectives.value", 3 * s, 4 * s, 1, 0),
        ("solvers.rk_fw_step", 4 * s, 8 * s, 1, 0),
        ("objectives.gradient", 5 * s, 7 * s, 4, 0),
        ("objectives.value", 8 * s, 9 * s, 1, 0),
    ], runs=[("line_search", 2, 10)])
    m = layer_metrics(spans)
    assert m["objectives.value.calls"] == 3
    assert m["objectives.value.self_s"] == pytest.approx(3.0)
    assert m["solvers.rk_fw_step.self_s"] == pytest.approx(2.0)
    assert m["solvers.run.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["objectives.self_s"] == pytest.approx(5.0)
    assert m["solvers.self_s"] == pytest.approx(3.0)
    assert m["flow.reference_trajectory.calls"] == 0
    assert m["solvers.ls.value_calls_per_iter"] == pytest.approx(1.5)
    assert m["harness.iterates_bytes_retained"] == 3 * 10 * 8


CONFIGS = {
    "triangle-tae": ("problem = triangle\ntableau = euler, rk44\ndelta = 0.1\n"
                     "ref_delta = 0.01\nrecord_iterates = true\niters = 12\n"
                     "windows = 5\nout_dir = out\n"),
    "sensing-ls": ("problem = sensing\nm = 40\nn = 10\nseed = 3\n"
                   "tableau = euler, rk44\nvariant = line_search\niters = 8\n"
                   "out_dir = out\n"),
}


def _sweep(directory, text, monkeypatch):
    directory.mkdir()
    (directory / "sweep.cfg").write_text(text)
    monkeypatch.chdir(directory)
    assert rkfw.cli.main(["sweep", "--config", "sweep.cfg"]) == 0
    return checks.output_digest(directory / "out")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wrappers_are_transparent(name, tmp_path, monkeypatch):
    originals = (rkfw.harness.run, rkfw.solvers.rk_fw_step, rkfw.cli.run_experiment)
    plain = _sweep(tmp_path / "plain", CONFIGS[name], monkeypatch)
    with Tracer() as tracer:
        traced = _sweep(tmp_path / "traced", CONFIGS[name], monkeypatch)
    assert (rkfw.harness.run, rkfw.solvers.rk_fw_step, rkfw.cli.run_experiment) == originals
    assert sum(k.endswith("/traj.csv") for k in plain) == 2
    assert checks.differing_files(plain, traced) == []

    m = layer_metrics(tracer.arrays())
    assert m["geometry.lmo.calls"] == m["objectives.gradient.calls"] > 0
    assert m["solvers.rk_fw_step.calls"] == m["tableau.stage_gammas.calls"]
    if name == "triangle-tae":
        assert m["flow.reference_trajectory.calls"] == 2
        assert m["solvers.run.calls"] == 4      # two runs, two references
    else:
        assert m["solvers.run.calls"] == 2
        assert m["solvers.ls.value_calls_per_iter"] > 2
