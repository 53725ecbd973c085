import pathlib

import pytest

import mplindex


def test_public_names_resolve_and_are_unique():
    names = mplindex.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mplindex, name)] == []


def test_dense_design_oracles_are_not_exported():
    for name in ("build_design_system", "ols_fit", "transition_matrix"):
        assert not hasattr(mplindex, name)


def test_runtime_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    test_extra = project["optional-dependencies"]["test"]
    assert {"pytest>=7", "hypothesis", "scipy>=1.10"} <= set(test_extra)
