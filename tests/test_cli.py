import argparse
import dataclasses
import warnings

import numpy as np
import pytest

import rkfw.cli
from rkfw.cli import build_parser, main
from rkfw.harness import ExperimentConfig
from rkfw.tableau import load_tableau_file


def test_certify_stdout_and_exit_codes(capsys):
    assert main(["certify", "--tableau", "rk44", "--k-max", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,z_1,z_2,z_3,z_4"
    assert out[-2].endswith("yes")
    # midpoint's negative coefficient flips the verdict and the exit code
    assert main(["certify", "--tableau", "midpoint"]) == 1
    out = capsys.readouterr().out
    assert "NO" in out


def test_certify_to_file(tmp_path):
    out = tmp_path / "cert.csv"
    assert main(["certify", "--tableau", "euler", "--k-max", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,z_1"
    assert float(lines[1].split(",")[1]) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("tableau, c, delta, message", [
    ("rk44", "0.5", "-1", "schedule constant c must be >= 1"),
    ("euler", "-1", "1", "schedule constant c must be >= 1"),
    ("euler", "2", "0", "delta must be positive"),
    ("euler", "nan", "1", "schedule constant c must be >= 1"),
    ("euler", "2", "nan", "delta must be positive"),
])
def test_certify_rejects_what_solve_rejects(tmp_path, capsys, tableau, c, delta,
                                            message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--tableau", tableau, "--c", c,
                     "--delta", delta]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert main(["solve", "--problem", "triangle", "--tableau", tableau,
                 "--c", c, "--delta", delta, "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text", [
    "2\n0 0\nnan 0\n0 1\n0 0.5\n",      # nan in A
    "2\n0 0\n0.5 0\ninf -inf\n0 0.5\n",  # weights that "sum" to nan
], ids=["nan-in-a", "inf-weights"])
def test_non_finite_tableau_file_fails_before_compute(tmp_path, monkeypatch, capsys, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.txt").write_text(text)
    message = "t.txt: invalid tableau: entries must be finite"
    with pytest.raises(ValueError, match=message):
        load_tableau_file("t.txt")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--tableau", "t.txt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert main(["solve", "--problem", "triangle", "--tableau", "t.txt",
                     "--out-dir", "out"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]


@pytest.mark.parametrize("ref_delta", ["-1", "0", "nan"])
def test_bad_ref_delta_fails_before_any_run(tmp_path, monkeypatch, capsys, ref_delta):
    monkeypatch.chdir(tmp_path)
    for verb in ("solve", "tae"):
        assert main([verb, "--problem", "triangle", "--ref-delta", ref_delta]) == 1
        assert capsys.readouterr().err == "error: delta_ref must be positive\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags,message", [
    (["--ref-delta", "0.3"], "reference does not cover the trajectory time span"),
    (["--delta", "1", "--iters", "20", "--ref-delta", "0.1905"],
     "reference step must be <= trajectory step / 10"),
])
def test_unusable_reference_fails_before_any_run(tmp_path, monkeypatch, capsys,
                                                 flags, message):
    monkeypatch.chdir(tmp_path)
    for verb in ("solve", "tae"):
        assert main([verb, "--problem", "triangle", *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_certify_unknown_tableau(capsys):
    assert main(["certify", "--tableau", "rk99"]) == 1
    assert "unknown tableau" in capsys.readouterr().err


def test_solve_writes_run_dir(tmp_path):
    code = main(["solve", "--problem", "triangle", "--tableau", "rk44",
                 "--iters", "20", "--out-dir", str(tmp_path),
                 "--record-iterates"])
    assert code == 0
    assert (tmp_path / "rk44_plain" / "traj.csv").exists()
    assert (tmp_path / "rk44_plain" / "iterates.txt").exists()


def test_solve_momentum_conflict(tmp_path, capsys):
    code = main(["solve", "--problem", "triangle", "--tableau", "rk44",
                 "--variant", "momentum", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "one-stage" in capsys.readouterr().err


def test_zigzag_from_dump(tmp_path, capsys):
    it = tmp_path / "it.txt"
    rows = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]
    it.write_text("\n".join(f"{a} {b}" for a, b in rows) + "\n")
    assert main(["zigzag", "--iterates", str(it), "--window", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "block_start_k,energy"
    assert float(out[1].split(",")[1]) == pytest.approx(0.9486832980505138)


def test_zigzag_window_too_large(tmp_path, capsys):
    it = tmp_path / "it.txt"
    it.write_text("0 0\n1 1\n")
    assert main(["zigzag", "--iterates", str(it), "--window", "5"]) == 1
    assert "need at least" in capsys.readouterr().err


def test_tae_stdout(capsys):
    code = main(["tae", "--problem", "scalar_huber", "--tableau", "euler",
                 "--delta", "0.05", "--iters", "10", "--ref-delta", "0.005"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,epsilon"
    assert len(lines) == 12
    t0, e0 = lines[1].split(",")
    assert float(t0) == 0.0 and float(e0) == 0.0


def _flags(verb):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[verb]._actions} - {"help"}


def test_run_flags_are_the_config_keys(monkeypatch):
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"jobs"}
    assert _flags("solve") == keys
    # tae writes only its t,epsilon rows, so it takes no run-directory flag
    assert _flags("tae") == keys - {"out_dir", "record_iterates", "windows"} | {"out"}
    seen = []
    monkeypatch.setattr(rkfw.cli, "run_experiment", lambda cfg: seen.append(cfg) or 0)
    assert main(["solve", "--problem", "triangle"]) == 0
    assert seen == [ExperimentConfig(problem="triangle")]


def test_tae_stdout_matches_solve_tae_csv(tmp_path, capsys):
    flags = ["--problem", "triangle", "--tableau", "rk44", "--delta", "0.1",
             "--iters", "20", "--ref-delta", "0.01"]
    assert main(["tae", *flags]) == 0
    stdout = capsys.readouterr().out
    assert main(["solve", *flags, "--out-dir", str(tmp_path)]) == 0
    assert stdout == (tmp_path / "rk44_plain" / "tae.csv").read_text()


def test_malformed_run_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "triangle", "--iters", "soon"])
    assert exc.value.code == 2
    assert "invalid int value: 'soon'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tae", "--problem", "triangle", "--ref-delta", "0.01", "--out-dir", "x"],
    ["tae", "--problem", "triangle", "--ref-delta", "0.01", "--record-iterates"],
    ["tae", "--problem", "triangle", "--ref-delta", "0.01", "--windows", "1"],
    ["zigzag", "--iterates", "it.txt", "--window", "3", "--delta", "7"],
    ["sweep", "--config", "exp.cfg", "--jobs", "2"],
])
def test_removed_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_solve_short_x_star_names_it(tmp_path, capsys):
    assert main(["solve", "--problem", "triangle", "--x-star", "0.1",
                 "--out-dir", str(tmp_path)]) == 1
    assert "x_star needs 2 coordinates, got 1" in capsys.readouterr().err


def test_zigzag_of_solve_dump_matches_solve_csv(tmp_path, capsys):
    assert main(["solve", "--problem", "sensing", "--m", "20", "--n", "5",
                 "--alpha", "4", "--tableau", "rk44", "--iters", "30",
                 "--record-iterates", "--windows", "5",
                 "--out-dir", str(tmp_path)]) == 0
    run_dir = tmp_path / "rk44_plain"
    capsys.readouterr()
    assert main(["zigzag", "--iterates", str(run_dir / "iterates.txt"),
                 "--window", "5"]) == 0
    assert capsys.readouterr().out == (run_dir / "zigzag_w5.csv").read_text()


def test_tae_requires_ref_delta(capsys):
    assert main(["tae", "--problem", "triangle"]) == 1
    assert "ref-delta" in capsys.readouterr().err


def test_sweep_runs_config(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "problem = sensing\nm = 20\nn = 5\nalpha = 4.0\niters = 15\n"
        f"tableau = euler, rk44\nout_dir = {tmp_path / 'out'}\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_jobs_accepts_only_1(tmp_path, capsys):
    base = ("problem = triangle\niters = 5\n"
            f"tableau = euler, rk44\nout_dir = {tmp_path / 'out'}\n")
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(base + "jobs = 1\n")  # as every written manifest has
    assert main(["sweep", "--config", str(cfgfile)]) == 0
    assert "jobs = 1\n" in (tmp_path / "out" / "rk44_plain" / "manifest.txt").read_text()
    cfgfile.write_text(base.replace("out\n", "out2\n") + "jobs = 2\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 1
    assert "jobs must be 1" in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()


def test_sweep_bad_config(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("tableu = rk44\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 1
    assert "unknown key: tableu" in capsys.readouterr().err


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
