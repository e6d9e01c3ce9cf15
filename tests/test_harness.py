import dataclasses
import os

import numpy as np
import pytest

import rkfw
import rkfw.harness
from rkfw.harness import (ExperimentConfig, build_problem, load_movielens,
                          load_svmlight, parse_config, render, run_experiment)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_parse_defaults():
    cfg = parse_config("problem = triangle\n")
    assert cfg.problem == "triangle"
    assert cfg.tableau == ("euler",)
    assert cfg.variant == "plain"
    assert cfg.c == 2.0 and cfg.delta == 1.0
    assert cfg.windows == (5, 20)


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key: tableu"):
        parse_config("problem = triangle\ntableu = rk44\n")


def test_parse_rejects_malformed_value():
    with pytest.raises(ValueError, match="line 2.*malformed value for iters"):
        parse_config("problem = triangle\niters = soon\n")
    with pytest.raises(ValueError, match="line 2.*malformed value for windows"):
        parse_config("problem = triangle\nwindows = 5,,20\n")


def test_parse_requires_problem():
    with pytest.raises(ValueError, match="missing required key: problem"):
        parse_config("c = 2\n")


def test_parse_rejects_duplicates_and_junk_lines():
    with pytest.raises(ValueError, match="duplicate key"):
        parse_config("problem = triangle\nproblem = triangle\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("problem triangle\n")


def test_parse_comments_blanks_and_types():
    text = """
    # a sweep over two schemes
    problem = sensing     # inline comment
    tableau = euler, rk44
    windows = 4,8
    c = 3.5
    seed = 7
    record_iterates = true
    """
    cfg = parse_config(text)
    assert cfg.tableau == ("euler", "rk44")
    assert cfg.windows == (4, 8)
    assert cfg.c == 3.5 and cfg.seed == 7
    assert cfg.record_iterates is True
    assert parse_config(text) == cfg  # determinism
    # a blank name between commas is a stray separator
    assert parse_config("problem = t\ntableau = euler,, rk44,\n").tableau == (
        "euler", "rk44")


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(problem="triangle"),
    ExperimentConfig(problem="sensing", tableau=("euler", "midpoint", "rk44"),
                     c=1.5, delta=0.25, iters=42, seed=9, windows=(3,),
                     ref_delta=0.01, record_iterates=True, m=60, n=12,
                     sparsity=0.3, noise_sd=0.1, alpha=17.0),
    ExperimentConfig(problem="completion", data="ratings.tsv", rho=2.5,
                     x_star=(0.15, 0.25), jobs=4),
    ExperimentConfig(problem="triangle", windows=()),
])
def test_render_parse_round_trip(cfg):
    assert parse_config(render(cfg)) == cfg


@pytest.mark.parametrize("key, value", [
    ("out_dir", "runs#2"), ("data", "a#b.svm"), ("out_dir", "runs\nb"),
    ("out_dir", " runs"), ("tableau", ("rk44 ",)),
])
def test_unreadable_string_fails_before_any_run(tmp_path, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = ExperimentConfig(problem="logistic", **{key: value})
    with pytest.raises(ValueError, match=f"^{key} = "):
        render(cfg)
    with pytest.raises(ValueError, match=f"^{key} = "):
        run_experiment(cfg)
    assert list(tmp_path.iterdir()) == []


def test_svmlight_frozen_example(tmp_path):
    p = tmp_path / "a.svm"
    p.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n")
    feats, labels = load_svmlight(p)
    assert np.array_equal(feats, [[0.5, 0.0, 2.0], [0.0, 1.0, 0.0]])
    assert labels == pytest.approx([1.0, -1.0])


def test_svmlight_bundled_fixture():
    feats, labels = load_svmlight(os.path.join(FIXTURES, "tiny.svmlight"))
    assert feats.shape == (2, 3)
    assert labels.tolist() == [1.0, -1.0]


def test_svmlight_zero_labels_map_to_minus_one(tmp_path):
    p = tmp_path / "a.svm"
    p.write_text("0 1:1.0\n1 2:1.0\n")
    _, labels = load_svmlight(p)
    assert labels.tolist() == [-1.0, 1.0]


def test_svmlight_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "a.svm"
    p.write_text("1 0:1.0\n")
    with pytest.raises(ValueError, match="line 1: index must be >= 1"):
        load_svmlight(p)
    p.write_text("1 1:0.5\n2 1:0.5\n")
    with pytest.raises(ValueError, match="line 2: label"):
        load_svmlight(p)
    p.write_text("1 1:0.5\n-1 x:0.5\n")
    with pytest.raises(ValueError, match="line 2: non-numeric index"):
        load_svmlight(p)
    p.write_text("1 1:zz\n")
    with pytest.raises(ValueError, match="line 1: non-numeric value"):
        load_svmlight(p)
    p.write_text("1 1\n")
    with pytest.raises(ValueError, match="line 1: expected idx:val"):
        load_svmlight(p)
    p.write_text("-1 2:1.0\n1 3:1.0 3:2.0\n")
    with pytest.raises(ValueError, match="line 2: duplicate index 3"):
        load_svmlight(p)


def test_svmlight_empty_file_warns(tmp_path):
    p = tmp_path / "a.svm"
    p.write_text("")
    with pytest.warns(UserWarning, match="empty"):
        feats, labels = load_svmlight(p)
    assert feats.shape == (0, 0) and labels.shape == (0,)


def test_movielens_frozen_example(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t2\t5\t874965758\n")
    assert load_movielens(p) == [(0, 1, 5.0)]


def test_movielens_bundled_fixture():
    triples = load_movielens(os.path.join(FIXTURES, "ratings20.tsv"))
    assert len(triples) == 20
    assert all(1.0 <= r <= 5.0 for _, _, r in triples)
    assert max(u for u, _, _ in triples) <= 7  # users drawn from 1..8
    assert max(i for _, i, _ in triples) <= 11


def test_movielens_errors(tmp_path):
    p = tmp_path / "u.data"
    p.write_text("1\t2\t5\t874965758\n1\t2\t3\t874965999\n")
    with pytest.raises(ValueError, match=r"line 2: duplicate.*user 1, item 2"):
        load_movielens(p)
    p.write_text("1\t2\t9\t874965758\n")
    with pytest.raises(ValueError, match=r"line 1: rating 9.0 outside"):
        load_movielens(p)
    p.write_text("1\t2\t5\n")
    with pytest.raises(ValueError, match="line 1: expected 4"):
        load_movielens(p)
    p.write_text("0\t2\t5\t874965758\n")
    with pytest.raises(ValueError, match="line 1: ids are 1-based"):
        load_movielens(p)
    p.write_text("a\t2\t5\t874965758\n")
    with pytest.raises(ValueError, match="line 1: non-numeric"):
        load_movielens(p)


def test_build_problem_each_kind(tmp_path):
    assert build_problem(ExperimentConfig(problem="triangle")).label == "triangle"
    assert build_problem(ExperimentConfig(problem="scalar_huber")).f_star == 0.0
    small = ExperimentConfig(problem="sensing", m=20, n=5, alpha=3.0)
    assert build_problem(small).objective.g.shape == (20, 5)
    lg = dataclasses.replace(small, problem="sensing_logistic")
    assert build_problem(lg).objective.features.shape == (20, 5)
    svm = tmp_path / "d.svm"
    svm.write_text("1 1:0.5 3:2.0\n-1 2:1.0\n")
    p = build_problem(ExperimentConfig(problem="logistic", data=str(svm), alpha=2.0))
    assert p.x0.shape == (3,)
    p = build_problem(ExperimentConfig(
        problem="completion", data=os.path.join(FIXTURES, "ratings20.tsv"),
        alpha=5.0, rho=1.0))
    assert p.x0.ndim == 2


def test_build_problem_errors():
    with pytest.raises(ValueError, match="unknown problem"):
        build_problem(ExperimentConfig(problem="sudoku"))
    with pytest.raises(ValueError, match="needs data"):
        build_problem(ExperimentConfig(problem="logistic"))
    with pytest.raises(ValueError, match="needs data"):
        build_problem(ExperimentConfig(problem="completion"))


def test_run_experiment_row_count(tmp_path):
    cfg = ExperimentConfig(problem="triangle", iters=1000,
                           out_dir=str(tmp_path))
    assert run_experiment(cfg) == 0
    rows = (tmp_path / "euler_plain" / "traj.csv").read_text().splitlines()
    assert len(rows) == 1002  # header + k = 0..1000


def test_run_experiment_fan_out_and_summary(tmp_path):
    cfg = ExperimentConfig(problem="sensing", m=25, n=6, alpha=4.0, iters=30,
                           tableau=("euler", "midpoint", "rk44"),
                           out_dir=str(tmp_path))
    run_experiment(cfg)
    for name in ("euler", "midpoint", "rk44"):
        assert (tmp_path / f"{name}_plain" / "traj.csv").exists()
        assert (tmp_path / f"{name}_plain" / "manifest.txt").exists()
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("#") and "proxy" in summary[0]
    assert summary[1].split(",")[-1] == "f_star_proxy"
    assert len(summary) == 5
    proxies = {ln.split(",")[-1] for ln in summary[2:]}
    assert len(proxies) == 1  # shared min over the sweep


def test_run_experiment_momentum_tableau_clash_fails_before_compute(tmp_path):
    cfg = ExperimentConfig(problem="logistic", data="does_not_exist.svm",
                           variant="momentum", tableau=("rk44",),
                           out_dir=str(tmp_path))
    # method validation must fire before the data file is even considered
    with pytest.raises(ValueError, match="one-stage"):
        run_experiment(cfg)
    assert not (tmp_path / "rk44_momentum").exists()


def test_run_experiment_short_window_fails_before_compute(tmp_path):
    cfg = ExperimentConfig(problem="logistic", data="does_not_exist.svm",
                           windows=(5, 1), out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="window must be >= 2"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()


def test_run_experiment_missing_data_file(tmp_path):
    cfg = ExperimentConfig(problem="logistic", data="does_not_exist.svm",
                           out_dir=str(tmp_path))
    with pytest.raises(FileNotFoundError):
        run_experiment(cfg)


def test_run_experiment_zigzag_tae_and_iterates(tmp_path):
    cfg = ExperimentConfig(problem="triangle", iters=40, delta=0.1,
                           windows=(5, 100), ref_delta=0.01,
                           record_iterates=True, out_dir=str(tmp_path))
    run_experiment(cfg)
    d = tmp_path / "euler_plain"
    assert (d / "zigzag_w5.csv").exists()
    assert not (d / "zigzag_w100.csv").exists()  # window exceeds run length
    assert (d / "iterates.txt").exists()
    tae = (d / "tae.csv").read_text().splitlines()
    assert tae[0] == "t,epsilon"
    assert len(tae) == 42


@pytest.mark.parametrize("keys, recorded", [
    ("windows =", False),
    ("windows =\nrecord_iterates = true", True),
    ("windows = 5", True),
    ("windows =\nref_delta = 0.01", True),
])
def test_run_records_iterates_only_when_read(tmp_path, monkeypatch, keys, recorded):
    seen = []
    real_run = rkfw.harness.run

    def spy(problem, cfg):
        seen.append(cfg.record_iterates)
        return real_run(problem, cfg)

    monkeypatch.setattr(rkfw.harness, "run", spy)
    run_experiment(parse_config(
        "problem = triangle\ndelta = 0.1\niters = 20\ntableau = euler, rk44\n"
        f"out_dir = {tmp_path}\n{keys}\n"))
    assert seen == [recorded, recorded]


def test_manifest_names_the_package_version(tmp_path):
    run_experiment(ExperimentConfig(problem="triangle", iters=3, out_dir=str(tmp_path)))
    manifest = (tmp_path / "euler_plain" / "manifest.txt").read_text()
    assert manifest.startswith(f"# rkfw {rkfw.__version__}\n")


def test_failed_reference_leaves_no_tae_csv(tmp_path, monkeypatch):
    def failing_reference(*args, **kwargs):
        raise ArithmeticError("reference failed")

    monkeypatch.setattr(rkfw.harness, "reference_trajectory", failing_reference)
    cfg = ExperimentConfig(problem="triangle", iters=20, delta=0.1, ref_delta=0.01,
                           out_dir=str(tmp_path))
    with pytest.raises(ArithmeticError, match="reference failed"):
        run_experiment(cfg)
    assert (tmp_path / "euler_plain" / "traj.csv").exists()
    assert not (tmp_path / "euler_plain" / "tae.csv").exists()


def test_manifest_rerun_reproduces_csvs(tmp_path):
    out1 = tmp_path / "first"
    cfg = ExperimentConfig(problem="sensing", m=20, n=5, alpha=4.0, iters=25,
                           seed=3, windows=(5,), record_iterates=True,
                           out_dir=str(out1))
    run_experiment(cfg)
    d = out1 / "euler_plain"
    manifest = (d / "manifest.txt").read_text()
    first_traj = (d / "traj.csv").read_text()
    first_zz = (d / "zigzag_w5.csv").read_text()
    first_it = (d / "iterates.txt").read_text()

    rerun_cfg = parse_config(manifest)
    run_experiment(rerun_cfg)

    def strip_wall(text):
        return ["," .join(ln.split(",")[:6]) for ln in text.splitlines()]

    assert strip_wall((d / "traj.csv").read_text()) == strip_wall(first_traj)
    assert (d / "zigzag_w5.csv").read_text() == first_zz
    assert (d / "iterates.txt").read_text() == first_it


def test_completion_end_to_end(tmp_path):
    """euler and rk44 through the nuclear-norm oracle on the bundled ratings."""
    run_experiment(ExperimentConfig(
        problem="completion", data=os.path.join(FIXTURES, "ratings20.tsv"),
        tableau=("euler", "rk44"), iters=30, out_dir=str(tmp_path)))
    for name in ("euler_plain", "rk44_plain"):
        rows = np.loadtxt(tmp_path / name / "traj.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        assert rows.shape == (31, 7) and np.all(np.isfinite(rows))
    last = (tmp_path / "rk44_plain" / "traj.csv").read_text().splitlines()[-1]
    assert last.split(",")[:3] == ["30", "30.0", "88.51943267324933"]
