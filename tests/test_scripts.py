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
