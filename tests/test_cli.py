import argparse
import dataclasses
import os
import subprocess
import sys
import warnings
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import rkfw.cli
import rkfw.harness
from rkfw.cli import build_parser, main
from rkfw.diagnostics import zigzag_energy
from rkfw.flow import reference_trajectory, total_accumulation_error
from rkfw.harness import ExperimentConfig
from rkfw.problems import make_triangle
from rkfw.solvers import SolverConfig, run
from rkfw.tableau import load_tableau_file, resolve_tableau


def test_certify_stdout_and_exit_codes(capsys):
    assert main(["certify", "--tableau", "rk44", "--k-max", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "k,z_1,z_2,z_3,z_4"
    assert out[-2].endswith("yes")
    # midpoint's negative coefficient flips the verdict and the exit code
    assert main(["certify", "--tableau", "midpoint"]) == 1
    out = capsys.readouterr().out
    assert "NO" in out


@pytest.mark.parametrize("argv, message", [
    (["certify", "--tableau", "euler", "--k-max", "0"], "k_max must be >= 1"),
    (["solve", "--problem", "triangle", "--tableau", ""], "config names no tableau"),
    (["tae", "--problem", "triangle", "--tableau", "euler,rk44", "--delta", "0.1",
      "--ref-delta", "0.01"], "tae compares a single tableau against the reference"),
], ids=["certify-k-max-0", "solve-no-tableau", "tae-two-tableaus"])
def test_bad_counts_fail_before_any_output(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("key, message", [
    ("c", "schedule constant c must be finite"),
    ("delta", "delta must be finite"),
])
def test_infinite_schedule_fails_before_any_run(tmp_path, monkeypatch, capsys,
                                                key, message):
    # an infinite c or delta makes every step fraction NaN
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inf.cfg").write_text(f"problem = triangle\ntableau = euler, rk44\n"
                                      f"{key} = inf\n")
    for argv in (["certify", "--tableau", "rk44", f"--{key}", "inf"],
                 ["solve", "--problem", "triangle", "--iters", "3", f"--{key}", "inf"],
                 ["sweep", "--config", "inf.cfg"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["inf.cfg"]


@pytest.mark.parametrize("problem", ["sensing", "sensing_logistic"])
def test_nan_alpha_fails_before_any_run(tmp_path, monkeypatch, capsys, problem):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", problem, "--m", "20", "--n", "5",
                 "--alpha", "nan"]) == 1
    assert capsys.readouterr().err == "error: alpha must be positive\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("problem", ["sensing", "sensing_logistic"])
def test_infinite_alpha_fails_before_any_run(tmp_path, monkeypatch, capsys, problem):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", problem, "--m", "20", "--n", "5",
                 "--alpha", "inf"]) == 1
    assert capsys.readouterr().err == "error: alpha must be finite\n"
    assert list(tmp_path.iterdir()) == []


RATINGS = str(Path(__file__).parent / "fixtures" / "ratings20.tsv")


@pytest.mark.parametrize("rho, message", [("nan", "rho must be positive"),
                                          ("inf", "rho must be finite")])
def test_non_finite_rho_fails_before_any_run(tmp_path, monkeypatch, capsys, rho, message):
    # a NaN rho used to run power iteration on NaN, an infinite one overflowed
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", "completion", "--data", RATINGS,
                 "--rho", rho, "--iters", "3"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("problem", ["sensing", "sensing_logistic"])
@pytest.mark.parametrize("noise_sd", ["nan", "inf", "-1"])
def test_bad_noise_sd_fails_before_any_run(tmp_path, monkeypatch, capsys, problem, noise_sd):
    # NaN and inf used to run to NaN rows with exit 0; -1 failed inside numpy's RNG
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", problem, "--m", "20", "--n", "5", "--iters", "3",
                 "--noise-sd", noise_sd, "--windows", ""]) == 1
    assert capsys.readouterr().err == (
        f"error: noise_sd must be non-negative and finite, got {float(noise_sd)}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("problem", ["sensing", "sensing_logistic"])
def test_negative_seed_fails_before_any_run(tmp_path, monkeypatch, capsys, problem):
    # numpy's RNG used to reject it without naming the key
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", problem, "--m", "20", "--n", "5", "--iters", "3",
                 "--seed", "-1", "--windows", ""]) == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, message", [
    ("", "d.svm: no rows"),
    ("1\n-1\n", "d.svm: no feature columns"),
    # a non-finite value used to run to NaN rows with exit 0
    ("1 1:nan 2:0.5\n", "line 1: non-finite value 'nan'"),
    ("-1 1:0.5\n1 1:inf 2:0.5\n", "line 2: non-finite value 'inf'"),
], ids=["empty", "no-columns", "nan-value", "inf-value"])
def test_logistic_without_data_fails_before_any_run(tmp_path, monkeypatch, capsys,
                                                    text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.svm").write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--problem", "logistic", "--data", "d.svm",
                     "--iters", "3"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.svm"]


# (config keys, files to write, the one error line every run verb gives)
_INVALID_CONFIGS = {
    "missing-data-triangle": ({"problem": "triangle", "data": "missing.svm"}, {},
                              "data file not found: missing.svm"),
    "missing-data-logistic": ({"problem": "logistic", "data": "missing.svm"}, {},
                              "data file not found: missing.svm"),
    "empty-svmlight": ({"problem": "logistic", "data": "d.svm"}, {"d.svm": ""},
                       "d.svm: no rows"),
    "comment-only-svmlight": ({"problem": "logistic", "data": "d.svm"},
                              {"d.svm": "# no rows\n"}, "d.svm: no rows"),
    "no-columns-svmlight": ({"problem": "logistic", "data": "d.svm"},
                            {"d.svm": "1\n-1\n"}, "d.svm: no feature columns"),
    "nan-svmlight": ({"problem": "logistic", "data": "d.svm"},
                     {"d.svm": "1 1:nan 2:0.5\n"}, "line 1: non-finite value 'nan'"),
    "empty-ratings": ({"problem": "completion", "data": "r.tsv"}, {"r.tsv": ""},
                      "r.tsv: no ratings"),
    "c-below-1": ({"problem": "triangle", "c": "0.5"}, {},
                  "schedule constant c must be >= 1"),
    "unknown-tableau": ({"problem": "triangle", "tableau": "nope"}, {},
                        "unknown tableau 'nope'; available: euler, midpoint, rk38, rk44, rk5"),
    "negative-seed": ({"problem": "sensing", "m": "20", "n": "5", "seed": "-1"}, {},
                      "seed must be non-negative, got -1"),
    # 12 reference steps, 4x finer, whose times miss t = 1, 2, 3 by 4e-7 or more
    "near-grid-reference": ({"problem": "triangle", "delta": "1", "ref_delta": "0.2500001"},
                            {}, "reference step must be <= trajectory step / 10"),
    # no value of ref_delta gives a grid over a run of no time
    "zero-iters-reference": ({"problem": "triangle", "iters": "0", "delta": "0.1",
                              "ref_delta": "0.01"}, {},
                             "reference needs a run of positive time span (iters * delta > 0)"),
}


@pytest.mark.parametrize("verb", ["solve", "sweep", "tae"])
@pytest.mark.parametrize("case", list(_INVALID_CONFIGS))
def test_invalid_config_fails_alike_under_every_verb(tmp_path, monkeypatch, capsys,
                                                     case, verb):
    # the data path was checked only on the run_experiment path, so tae ran a
    # triangle with a missing data file and read a missing svmlight file itself
    keys, files, message = _INVALID_CONFIGS[case]
    keys = {"iters": "3", **keys}
    monkeypatch.chdir(tmp_path)
    if verb == "sweep":
        files = {**files, "x.cfg": "".join(f"{k} = {v}\n" for k, v in keys.items())}
        argv = ["sweep", "--config", "x.cfg"]
    else:
        argv = [verb, *chain.from_iterable(
            (f"--{k.replace('_', '-')}", v) for k, v in keys.items())]
        if verb == "tae" and "ref_delta" not in keys:
            argv += ["--ref-delta", "0.1"]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


def _main_in_child(*argv, cwd):
    """`main(argv)` in a child process run in cwd: pytest catches warnings
    before they reach stderr, so only a child shows what a user sees."""
    src = str(Path(rkfw.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH", "")])))
    code = "import sys; from rkfw.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_empty_svmlight_file_is_one_error_line(tmp_path):
    # the loader used to print a two-line UserWarning before the error
    (tmp_path / "e.svm").write_text("")
    child = _main_in_child("solve", "--problem", "logistic", "--data", "e.svm",
                           "--iters", "3", cwd=tmp_path)
    assert child.returncode == 1
    assert child.stdout == "" and child.stderr == "error: e.svm: no rows\n"
    assert [p.name for p in tmp_path.iterdir()] == ["e.svm"]


def test_power_iteration_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    # the run finishes; the rk44 reference's oracle misses its tolerance
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", "completion", "--data", RATINGS,
                 "--tableau", "rk44", "--iters", "20", "--ref-delta", "0.05"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: power iteration did not converge in 5000 iterations")
    assert err.count("\n") == 1 and err.endswith(")\n")


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
    (["--delta", "-1"], "delta must be positive"),
    (["--delta", "nan"], "delta must be positive"),
    (["--iters", "-5"], "max_iters must be >= 0"),
])
def test_bad_schedule_is_named_before_the_reference(tmp_path, monkeypatch, capsys,
                                                    flags, message):
    monkeypatch.chdir(tmp_path)
    for verb in ("solve", "tae"):
        assert main([verb, "--problem", "triangle", *flags, "--ref-delta", "0.01"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_manifest_with_retired_ls_tol_reruns(tmp_path, monkeypatch):
    # manifests written while the bisection width was a key carry ls_tol = 1e-10
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", "sensing", "--m", "20", "--n", "5", "--alpha", "4",
                 "--iters", "25", "--tableau", "rk44", "--variant", "line_search"]) == 0
    run_dir = tmp_path / "runs" / "rk44_line_search"
    manifest = (run_dir / "manifest.txt").read_text()
    assert "ls_tol" not in manifest
    (tmp_path / "old.txt").write_text(
        manifest.replace("out_dir =", "ls_tol = 1e-10\nout_dir ="))

    def without_wall_ns():
        rows = (run_dir / "traj.csv").read_text().splitlines()
        return [row.rsplit(",", 1)[0] for row in rows]

    first = without_wall_ns()
    assert main(["sweep", "--config", "old.txt"]) == 0
    assert without_wall_ns() == first
    assert (run_dir / "manifest.txt").read_text() == manifest


@pytest.mark.parametrize("ls_tol", ["0", "-1", "nan"])
def test_retired_ls_tol_accepts_only_its_old_value(tmp_path, monkeypatch, capsys, ls_tol):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ls.cfg").write_text("problem = sensing\ntableau = euler, rk44\n"
                                     f"variant = line_search\nls_tol = {ls_tol}\n")
    assert main(["sweep", "--config", "ls.cfg"]) == 1
    assert capsys.readouterr().err == (
        "error: ls_tol is no longer a setting; only ls_tol = 1e-10 is accepted\n")
    with pytest.raises(SystemExit):  # the flag went with the key
        main(["solve", "--problem", "triangle", "--ls-tol", "1e-10"])
    assert [p.name for p in tmp_path.iterdir()] == ["ls.cfg"]


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


EULER_FILE = "1\n0\n1\n0\n"  # q = 1, A = [[0]], weights [1], offsets [0]


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "relative"])
def test_tableau_file_runs_under_out_dir_by_base_name(tmp_path, monkeypatch, absolute):
    # the run directory was out_dir / "<path as given>_plain": an absolute path
    # dropped out_dir and wrote beside the tableau file, a relative one nested
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tabs").mkdir()
    (tmp_path / "tabs" / "mytab.txt").write_text(EULER_FILE)
    path = str(tmp_path / "tabs" / "mytab.txt") if absolute else "tabs/mytab.txt"
    assert main(["solve", "--problem", "triangle", "--iters", "3", "--windows", "",
                 "--tableau", path, "--out-dir", "out"]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["mytab.txt_plain"]
    assert [p.name for p in (tmp_path / "tabs").iterdir()] == ["mytab.txt"]
    # the manifest keeps the path, so it reruns from anywhere the path resolves
    manifest = (tmp_path / "out" / "mytab.txt_plain" / "manifest.txt").read_text()
    assert f"tableau = {path}\n" in manifest


@pytest.mark.parametrize("tableaus, run_dir", [
    ("euler,euler", "euler_plain"),
    ("euler,tabs/euler", "euler_plain"),
    ("tabs/mytab.txt,more/mytab.txt", "mytab.txt_plain"),
], ids=["repeated", "file-named-like-a-builtin", "same-base-name"])
def test_runs_sharing_a_directory_fail_before_any_run(tmp_path, monkeypatch, capsys,
                                                     tableaus, run_dir):
    # a repeated name used to run twice into one directory, and summary.csv
    # got two identical rows
    monkeypatch.chdir(tmp_path)
    for name in ("tabs/euler", "tabs/mytab.txt", "more/mytab.txt"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(EULER_FILE)
    assert main(["solve", "--problem", "triangle", "--iters", "3",
                 "--tableau", tableaus, "--out-dir", "out"]) == 1
    assert capsys.readouterr().err == (
        f"error: two runs would share the run directory {Path('out', run_dir)}\n")
    assert not (tmp_path / "out").exists()


def test_a_run_that_raises_leaves_no_run_directory(tmp_path, monkeypatch, capsys):
    # the run directory used to be made before the run, and was left empty
    problem = make_triangle()
    check = problem.region.membership_violation
    rows = []

    def failing_check(x):  # run checks membership once per row
        rows.append(x)
        if len(rows) == 9 + 6:  # euler's rows 0..8, then midpoint's row k = 5
            raise ArithmeticError("test oracle failed at k = 5")
        return check(x)

    problem.region.membership_violation = failing_check
    monkeypatch.setattr(rkfw.harness, "build_problem", lambda cfg: problem)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text("problem = triangle\niters = 8\n"
                                      "tableau = euler, midpoint, rk44\nout_dir = out\n")
    assert main(["sweep", "--config", "exp.cfg"]) == 1
    assert capsys.readouterr().err == "error: test oracle failed at k = 5\n"
    # the sweep stops at midpoint: euler's files stay, and no later run starts
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["euler_plain"]
    assert sorted(p.name for p in (tmp_path / "out" / "euler_plain").iterdir()) == [
        "manifest.txt", "traj.csv", "zigzag_w5.csv"]


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


@pytest.mark.parametrize("text", ["", " \n\n\t\n", "# no iterates\n# at all\n"],
                         ids=["empty", "blank", "comments"])
def test_zigzag_of_no_rows_is_one_error_line(tmp_path, text):
    it = tmp_path / "it.txt"
    it.write_text(text)
    child = _main_in_child("zigzag", "--iterates", str(it), "--window", "2",
                           cwd=tmp_path)
    assert child.returncode == 1
    assert child.stderr == "error: need at least 3 iterates, got 0\n"


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
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
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


# 1, B - 1, B, B + 1 and 2B + 1 rows of output, at B = 3 rows per block:
# _BLOCK_VALUES is patched to 3 times the 2 values of a zigzag or tae row
ROWS_AROUND_BLOCKS = (1, 2, 3, 4, 7)


@pytest.mark.parametrize("rows", ROWS_AROUND_BLOCKS)
def test_zigzag_out_and_stdout_across_block_boundaries(tmp_path, monkeypatch, capsys, rows):
    monkeypatch.setattr(rkfw.harness, "_BLOCK_VALUES", 3 * 2)
    pts = np.random.default_rng(rows).random((2 * rows + 1, 3))
    it = tmp_path / "it.txt"
    it.write_text("".join(" ".join(map(repr, p.tolist())) + "\n" for p in pts))
    energies = zigzag_energy(pts, 2)
    want = "block_start_k,energy\n" + "".join(
        f"{2 * b},{float(e)!r}\n" for b, e in enumerate(energies)
    ) + f"# mean,{float(np.mean(energies))!r}\n"
    assert len(energies) == rows
    assert main(["zigzag", "--iterates", str(it), "--window", "2"]) == 0
    assert capsys.readouterr().out == want
    assert main(["zigzag", "--iterates", str(it), "--window", "2",
                 "--out", str(tmp_path / "zz.csv")]) == 0
    assert (tmp_path / "zz.csv").read_bytes() == want.encode()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("rows", ROWS_AROUND_BLOCKS[1:])  # a reference needs one step
def test_tae_out_and_stdout_across_block_boundaries(tmp_path, monkeypatch, capsys, rows):
    monkeypatch.setattr(rkfw.harness, "_BLOCK_VALUES", 3 * 2)
    p = make_triangle()
    traj = run(p, SolverConfig(tableau=resolve_tableau("rk44"), delta=0.1,
                               max_iters=rows - 1, record_iterates=True))
    errs = total_accumulation_error(traj, reference_trajectory(p, 2.0, 0.01,
                                                               t_end=(rows - 1) * 0.1))
    want = "t,epsilon\n" + "".join(f"{t!r},{eps!r}\n"
                                   for t, eps in zip(traj.ts.tolist(), errs.tolist()))
    flags = ["tae", "--problem", "triangle", "--tableau", "rk44", "--delta", "0.1",
             "--iters", str(rows - 1), "--ref-delta", "0.01"]
    assert main(flags) == 0
    assert capsys.readouterr().out == want
    assert main([*flags, "--out", str(tmp_path / "tae.csv")]) == 0
    assert (tmp_path / "tae.csv").read_bytes() == want.encode()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("out", [None, "tae.csv"])
def test_tae_failed_reference_writes_nothing(tmp_path, monkeypatch, capsys, out):
    def failing_reference(*args, **kwargs):
        raise ArithmeticError("reference failed")

    monkeypatch.setattr(rkfw.harness, "reference_trajectory", failing_reference)
    monkeypatch.chdir(tmp_path)
    flags = ["tae", "--problem", "triangle", "--iters", "20", "--delta", "0.1",
             "--ref-delta", "0.01"]
    assert main([*flags, *(["--out", out] if out else [])]) == 1
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_repeated_window_exits_1_before_any_run(tmp_path, capsys):
    assert main(["solve", "--problem", "triangle", "--windows", "5,20,5",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert "two windows would share the file zigzag_w5.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    cfgfile.write_text(base + "jobs = 1\n")  # as manifests written before it went have
    assert main(["sweep", "--config", str(cfgfile)]) == 0
    cfgfile.write_text(base.replace("out\n", "out2\n") + "jobs = 2\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 1
    assert capsys.readouterr().err == (
        "error: jobs is no longer a setting; only jobs = 1 is accepted\n")
    assert not (tmp_path / "out2").exists()


# a manifest as written while jobs was a key, verbatim
JOBS_MANIFEST = """# rkfw 0.1.0
problem = sensing
tableau = rk44
variant = plain
c = 2.0
delta = 1.0
iters = 25
seed = 0
windows = 5,20
record_iterates = false
out_dir = runs
jobs = 1
x_star = 0.2,0.3
epsilon = 0.5
m = 20
n = 5
sparsity = 0.1
noise_sd = 0.05
alpha = 4.0
rho = 10.0
"""


def test_manifest_with_retired_jobs_reruns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.txt").write_text(JOBS_MANIFEST)
    assert main(["sweep", "--config", "old.txt"]) == 0
    run_dir = tmp_path / "runs" / "rk44_plain"
    rerun = (run_dir / "traj.csv").read_text()
    assert (run_dir / "manifest.txt").read_text() == JOBS_MANIFEST.replace("jobs = 1\n", "")
    assert main(["solve", "--problem", "sensing", "--m", "20", "--n", "5", "--alpha", "4",
                 "--iters", "25", "--tableau", "rk44"]) == 0
    fresh = (run_dir / "traj.csv").read_text()
    assert ([row.rsplit(",", 1)[0] for row in rerun.splitlines()]
            == [row.rsplit(",", 1)[0] for row in fresh.splitlines()])


def test_sweep_bad_config(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("tableu = rk44\n")
    assert main(["sweep", "--config", str(cfgfile)]) == 1
    assert "unknown key: tableu" in capsys.readouterr().err


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])
