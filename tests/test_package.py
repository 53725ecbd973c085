import argparse
import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re

import numpy as np
import pytest

import mplindex
from mplindex.cli import build_parser


def test_public_names_resolve_and_are_unique():
    names = mplindex.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(mplindex, name)] == []


def test_dense_design_oracles_are_not_exported():
    for name in ("build_design_system", "ols_fit", "transition_matrix",
                 "quadratic_form_index", "classical_form_matrix", "convex_weights",
                 "convex_weights_from_values", "emit_panel"):
        assert not hasattr(mplindex, name)


def test_runtime_depends_on_numpy_only():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(path.read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    test_extra = project["optional-dependencies"]["test"]
    assert {"pytest>=7", "hypothesis", "scipy>=1.10"} <= set(test_extra)


def _perfbench_spans():
    """perfbench/spans.py, loaded from its file without installing anything."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tmp_path):
    # a rename here would leave the benchmark's --trace 1 pass without spans
    spans = _perfbench_spans()
    for layer, func, _ in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"mplindex.{layer}"), func, None)), \
            f"mplindex.{layer}.{func}"
    # the CLI must reach the traced functions through the rebound names
    src = tmp_path / "panel.csv"
    src.write_text("item_id,unit_id,value,quantity\na,t1,1,1\nb,t1,2,1\na,t2,2,1\nb,t2,3,1\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = importlib.import_module("mplindex.cli").run_cli(
            ["mpl", "--input", str(src), "--output", str(tmp_path / "out.json")])
    finally:
        tracer.remove()
    assert code == 0
    assert {"cli.run", "panel.load", "estimator.fit", "estimator.series",
            "cli.emit"} <= {span["name"] for span in tracer.spans}


def test_estimator_does_not_depend_on_the_dummy_module():
    # the MPL module reads connectivity from panel and owns the result type
    # the dummy fit extends, so it imports nothing from dummy
    path = pathlib.Path(mplindex.__file__).resolve().parent / "estimator.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not [name for name in imported if "dummy" in name.split(".")]
    assert mplindex.estimator.require_connected.__module__ == "mplindex.panel"
    assert mplindex.dummy.presence_components is mplindex.panel.presence_components


def test_both_fits_are_index_fits():
    # one result type: sigma2 is derived, never stored, and the dummy fit
    # states its variance method as a field
    fields = {f.name for f in dataclasses.fields(mplindex.IndexFit)}
    assert fields == {"units", "items", "base_unit", "mode", "indexes", "se", "ssr",
                      "dof", "variance_method"}
    for cls in (mplindex.DeflatorEstimate, mplindex.DummyFit):
        assert issubclass(cls, mplindex.IndexFit)
    fit = mplindex.fit_dummy_index(_small_panel(), weighted=True)
    assert fit.variance_method == "dummy_wls"
    assert not hasattr(fit, "weighted")
    assert fit.sigma2 == fit.ssr / fit.dof


def _package_trees():
    """(file name, parsed module) for every module of the package."""
    package = pathlib.Path(mplindex.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_only_algebra_touches_the_factor():
    # the triangular inverse and its kit stay inside algebra: other modules
    # use only a factor's solve and unit_variances
    kit = {"_tri_inv", "_first_failed_minor", "_inv", "_chol_solve"}
    for name, tree in _package_trees():
        if name == "algebra.py":
            continue
        used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not used & kit, (name, sorted(used & kit))


def _raised(tree):
    """(line, name) of each raise in a module; None for a bare re-raise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, getattr(exc, "id", getattr(exc, "attr", None))


def test_the_factor_refuses_only_singular_systems():
    # callers hand algebra bounded blocks, so no magnitude is refused there
    raised = dict(_package_trees())["algebra.py"]
    assert [(line, name) for line, name in _raised(raised)
            if name != "SingularSystem"] == []


def test_every_error_type_is_raised_by_the_package():
    trees = dict(_package_trees())
    declared = {node.name for node in ast.walk(trees["errors.py"])
                if isinstance(node, ast.ClassDef)}
    raised = {name for tree in trees.values() for _, name in _raised(tree)}
    assert declared - raised == {"MplIndexError"}


def _error_types(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("mplindex"):
            yield sub
            yield from _error_types(sub)


def test_the_cli_handlers_cover_every_refusal():
    # every package error is a ValidationError (exit 1) or an
    # EstimationError (exit 2), so run_cli needs no other handler for one
    run_cli = next(node for node in ast.walk(dict(_package_trees())["cli.py"])
                   if isinstance(node, ast.FunctionDef) and node.name == "run_cli")
    handled = [handler.type.id for node in ast.walk(run_cli) if isinstance(node, ast.Try)
               for handler in node.handlers]
    assert handled == ["_UsageError", "ValidationError", "EstimationError", "OSError"]
    covered = (mplindex.ValidationError, mplindex.EstimationError)
    assert [cls.__name__ for cls in _error_types(mplindex.MplIndexError)
            if not issubclass(cls, covered)] == []


def test_only_estimator_scales_a_fit():
    # both MPL fits run on the scaling estimator owns: updating takes no
    # binary exponent and undoes no scale of its own
    path = pathlib.Path(mplindex.__file__).resolve().parent / "updating.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {node.func.attr for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not called & {"frexp", "ldexp"}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "estimator"
                for alias in node.names}
    assert not [name for name in imported
                if any(word in name.lower() for word in ("exponent", "unscale", "rescale"))]


def test_only_the_cli_writes_to_stderr_and_every_note_is_logged_on_mplindex():
    # notes go through the "mplindex" logger, and only the CLI decides
    # where they and the error lines are written
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if name != "cli.py":
                assert not (isinstance(node, ast.Attribute) and node.attr == "stderr"), \
                    (name, node.lineno)
                assert not (isinstance(node, ast.ImportFrom) and node.module == "sys"
                            and "stderr" in {alias.name for alias in node.names}), name
                assert not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                            and node.func.id == "print"), (name, node.lineno)
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "attr", None) == "getLogger"
                    or getattr(node.func, "id", None) == "getLogger"):
                assert [getattr(arg, "value", None) for arg in node.args] == ["mplindex"], \
                    (name, node.lineno)


def _builds_a_panel(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ("Panel", "replace")
    return isinstance(func, ast.Attribute) and (
        func.attr == "Panel"
        or (func.attr == "replace" and isinstance(func.value, ast.Name)
            and func.value.id == "dataclasses"))


def test_panel_derives_presence_from_its_values():
    # one constructor with no mask argument, and no module hands it a mask
    assert "present" not in inspect.signature(mplindex.Panel).parameters
    assert not hasattr(mplindex.Panel, "from_arrays")
    for name, tree in _package_trees():
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and _builds_a_panel(call)):
                continue
            args = call.args + [keyword.value for keyword in call.keywords]
            read = {node.attr for arg in args for node in ast.walk(arg)
                    if isinstance(node, ast.Attribute)}
            read |= {node.id for arg in args for node in ast.walk(arg)
                     if isinstance(node, ast.Name)}
            assert "present" not in read | {k.arg for k in call.keywords}, \
                (name, call.lineno)


def _small_panel(n_units=3):
    values = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 5.0], [3.0, 4.0, 2.0]])[:, :n_units]
    return mplindex.Panel(("a", "b", "c"), ("t1", "t2", "t3")[:n_units], values,
                          np.ones_like(values))


_SIMULATION = mplindex.SimulationConfig(replications=2, noise_sd_max=0.01, estimators=("mpl",))

# one build of each public dataclass; each call makes a new object with the
# same contents
_DATACLASSES = {
    "Panel": _small_panel,
    "BasketReport": lambda: mplindex.build_reference_basket(_small_panel())[1],
    "DeflatorEstimate": lambda: mplindex.estimate_deflators(_small_panel()),
    "IndexSeries": lambda: mplindex.to_index_series(mplindex.estimate_deflators(_small_panel())),
    "DummyFit": lambda: mplindex.fit_dummy_index(_small_panel()),
    "BilateralInput": lambda: mplindex.bilateral_from_panel(_small_panel(2)),
    "GramBlocks": lambda: mplindex.gram_blocks(_small_panel()),
    "EstimatorSummary": lambda: mplindex.simulate(_small_panel(), _SIMULATION).summaries["mpl"],
    "SimulationReport": lambda: mplindex.simulate(_small_panel(), _SIMULATION),
    "SimulationConfig": lambda: mplindex.SimulationConfig(seed=4),
}


@pytest.mark.parametrize("name", sorted(_DATACLASSES))
def test_dataclasses_holding_arrays_compare_and_hash_by_identity(name):
    # a generated __eq__ or __hash__ would compare or hash the arrays and
    # raise numpy's ambiguous-truth ValueError or TypeError; SimulationConfig
    # holds no array and keeps value equality
    first, second = _DATACLASSES[name](), _DATACLASSES[name]()
    assert type(first).__name__ == name
    by_value = name == "SimulationConfig"
    assert first == first and (first == second) == by_value
    assert len({first, second}) == (1 if by_value else 2)


def test_every_cli_option_is_documented_in_the_readme():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    missing = {(command, option)
               for command, parser in subparsers.choices.items()
               for action in parser._actions if not isinstance(action, argparse._HelpAction)
               for option in action.option_strings
               if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)}
    assert missing == set()
