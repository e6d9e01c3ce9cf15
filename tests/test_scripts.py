import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rkfw import TABLEAU_NAMES, SolverConfig, make_tableau, run, zigzag_energy

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # each script runs main() only as __main__
    return module


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports(path):
    assert callable(_load(path).main)


def test_certificate_table_prints_every_tableau(monkeypatch, capsys):
    script = _load(SCRIPTS / "certificate_table.py")
    monkeypatch.setattr(sys, "argv", ["certificate_table.py", "--k-max", "2"])
    script.main()
    out = capsys.readouterr().out
    for name in TABLEAU_NAMES:
        assert f"{name}  (q=" in out


def test_variant_study_counts_value_calls(monkeypatch, capsys):
    script = _load(SCRIPTS / "variant_study.py")
    monkeypatch.setattr(sys, "argv", ["variant_study.py", "--iters", "5"])
    script.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.endswith("value calls/iter")
    assert len(rows) == 7
    calls = {tuple(row.split()[:2]): float(row.split()[-1]) for row in rows}
    # plain and momentum runs evaluate f once per row: 6 rows over 5 iterations
    assert calls[("euler", "plain")] == calls[("euler", "momentum")] == 6 / 5
    assert calls[("euler", "line_search")] > 0


def test_zigzag_study_streams_the_recorded_table(monkeypatch, capsys):
    script = _load(SCRIPTS / "zigzag_study.py")
    monkeypatch.setattr(sys, "argv", ["zigzag_study.py", "--horizon", "20"])
    script.main()
    streamed = capsys.readouterr().out
    assert len(streamed.splitlines()) == 8

    def recorded(problem, name, delta, horizon):
        cfg = SolverConfig(tableau=make_tableau(name), c=2.0, delta=delta,
                           max_iters=int(round(horizon / delta)), record_iterates=True)
        traj = run(problem, cfg)
        return tuple(zigzag_energy(traj.iterates, w).mean() for w in (5, 20))

    monkeypatch.setattr(script, "energies", recorded)
    script.main()
    assert capsys.readouterr().out == streamed


def test_linecov_lists_the_lines_no_test_ran(tmp_path):
    lib = tmp_path / "lib"
    lib.mkdir()
    tiny = lib / "tiny.py"
    tiny.write_text('"""A sign."""\n\n\ndef sign(x):\n'
                    "    if x < 0:\n        return -1\n    return 1\n")
    (tmp_path / "test_tiny.py").write_text(
        "import tiny\n\n\ndef test_positive():\n    assert tiny.sign(2) == 1\n")
    # pytest runs in the script's own process, as the traced run must
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "linecov.py"), "--src", str(lib), "-q",
         "-p", "no:cacheprovider", "test_tiny.py"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(lib)),
        capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-3:] == [
        f"{tiny.resolve()}: 1 of 5 lines not run",
        "  6: return -1",
        "total: 1 of 5 lines not run; pytest exit code 0",
    ]


def test_percall_prints_every_call_on_both_rows(monkeypatch, capsys):
    script = _load(SCRIPTS / "percall.py")
    monkeypatch.setattr(sys, "argv", ["percall.py", "--procs", "2", "--repeats", "1",
                                      "--number", "1"])
    script.main()
    header, columns, *rows = capsys.readouterr().out.splitlines()
    assert header.startswith("us per call")
    assert columns.endswith("max proc")
    assert len(rows) == len(script.ROWS) * len(script.CALLS) + 1
    # the line search is timed on both rows, after the row's value call, and
    # without its model on the triangle row
    searches = [(row[:22].rstrip(), row[23:45].rstrip()) for row in rows
                if row[23:].startswith("line search")]
    assert searches == [(script.ROWS[0], "line search"), (script.ROWS[0], script.MODEL_LESS),
                        (script.ROWS[1], "line search")]
    for row in rows:
        # the tree's minimum over both processes, then the larger process minimum
        lowest, largest = map(float, row.split()[-2:])
        assert 0.0 < lowest <= largest


def _peak_rss_rows(tmp_path, monkeypatch, capsys, srcs):
    """(iters, tree) of each row peak_rss.py prints for `srcs` (none: the
    default tree), after checking each row's numbers."""
    script = _load(SCRIPTS / "peak_rss.py")
    config = tmp_path / "sweep.cfg"
    config.write_text("problem = triangle\ntableau = euler, rk44\nwindows = 5\n")
    monkeypatch.chdir(tmp_path)
    script.main(["--config", str(config), "--iters", "5",
                 *(arg for src in srcs for arg in ("--src", str(src)))])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:2] == ["iters", "tree"]
    for row in rows:
        imported, peak, grown, file, anon = map(float, row.split()[2:])
        assert 0.0 < imported <= peak
        assert grown == pytest.approx(peak - imported, abs=0.011)
        # the resident pages at the end of the sweep, file-backed and
        # anonymous, are at most the peak and hold the interpreter's code
        assert 0.0 < file and 0.0 < anon and file + anon <= peak + 0.011
    return [(int(row.split()[0]), row.split()[1]) for row in rows], script.DEFAULT_SRC


def test_peak_rss_prints_a_row_per_length(tmp_path, monkeypatch, capsys):
    rows, default = _peak_rss_rows(tmp_path, monkeypatch, capsys, [])
    assert rows == [(n, str(default)[-24:]) for n in (5, 20, 80)]
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.cfg"]  # out_dir was temporary


def test_peak_rss_alternates_trees_at_each_length(tmp_path, monkeypatch, capsys):
    # a second tree: this package under another path, given first
    other = tmp_path / "other" / "src"
    other.parent.mkdir()
    other.symlink_to(_load(SCRIPTS / "peak_rss.py").DEFAULT_SRC)
    srcs = [other, other.resolve()]
    rows, _ = _peak_rss_rows(tmp_path, monkeypatch, capsys, srcs)
    assert rows == [(n, str(src)[-24:]) for n in (5, 20, 80) for src in srcs]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other", "sweep.cfg"]
