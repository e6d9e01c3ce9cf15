import importlib
import pkgutil
from pathlib import Path

import pytest

import rkfw

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(rkfw.__path__))


@pytest.mark.parametrize("module", ["rkfw", *(f"rkfw.{m}" for m in SUBMODULES)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = mod.__all__
    assert len(names) == len(set(names)), f"{module}.__all__ repeats a name"
    stale = [n for n in names if not hasattr(mod, n)]
    assert stale == [], f"{module}.__all__ names what it does not define: {stale}"


def test_package_exports_are_the_submodules_exports():
    # each submodule's __all__ is its public API, stated once; cli is the front end
    parts = [importlib.import_module(f"rkfw.{m}").__all__ for m in SUBMODULES if m != "cli"]
    assert len(parts) == 8
    assert rkfw.__all__ == [name for part in parts for name in part]


@pytest.mark.parametrize("module, name", [
    ("tableau", "validate_schedule"), ("flow", "reference_steps"),
    ("flow", "check_reference"), ("problems", "TRIANGLE_VERTICES"),
    ("harness", "VALUE_PARSERS"), ("harness", "solver_configs"),
    ("harness", "tae_csv"), ("harness", "PROBLEM_NAMES"), ("harness", "traj_csv"),
    ("harness", "iterates_txt"), ("harness", "zigzag_csv"),
])
def test_internal_names_live_only_in_their_module(module, name):
    assert hasattr(importlib.import_module(f"rkfw.{module}"), name)
    assert not hasattr(rkfw, name)


def test_submodules_are_found():
    assert {"solvers", "harness", "tableau", "geometry"} <= set(SUBMODULES)


def test_pyproject_version_is_the_package_version():
    # manifests name rkfw.__version__; the two are stated separately
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == rkfw.__version__
