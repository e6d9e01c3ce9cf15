import importlib.util
import sys
from pathlib import Path

import pytest

from rkfw import TABLEAU_NAMES

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
