"""The package root: its public names, and numpy loaded only on first use
of the sampling layers."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kscolour
from kscolour import colouring, montecarlo

ROOT = Path(__file__).resolve().parents[1]

# The root's names that colouring and montecarlo provide; they are bound
# on first access instead of at import.
LAZY = [name for name in kscolour.__all__ if name in colouring.__all__ or name in montecarlo.__all__]


def _detach_lazy_names(monkeypatch):
    for name in LAZY:
        monkeypatch.delattr(kscolour, name, raising=False)
    assert not set(LAZY) & set(vars(kscolour))


def test_import_leaves_numpy_unloaded():
    # dataclasses would load inspect, ast, dis and tokenize, so the records
    # every command imports are named tuples.
    modules = ("numpy", "kscolour.colouring", "kscolour.montecarlo", "dataclasses", "inspect", "ast", "dis", "tokenize")
    code = f"import sys, kscolour, kscolour.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_lazy_names_are_the_sampling_layers_public_names():
    assert set(LAZY) == {
        "Colour",
        "ColouringParams",
        "OrthonormalBasis",
        "classify_basis",
        "ks_satisfied",
        "Estimate",
        "ViolationReport",
        "estimate_basis_fraction",
        "estimate_vector_fractions",
        "sample_basis",
        "verify_constraints",
    }


def test_every_public_name_resolves(monkeypatch):
    _detach_lazy_names(monkeypatch)
    assert set(kscolour.__all__) <= set(dir(kscolour))
    for name in kscolour.__all__:
        assert getattr(kscolour, name) is not None
    namespace: dict = {}
    exec("from kscolour import *", namespace)
    assert set(kscolour.__all__) <= set(namespace)


def test_first_access_binds_every_lazy_name(monkeypatch):
    _detach_lazy_names(monkeypatch)
    assert kscolour.Colour is colouring.Colour
    for name in LAZY:
        source = colouring if name in colouring.__all__ else montecarlo
        assert vars(kscolour)[name] is getattr(source, name)


def test_unknown_and_private_names_raise_attribute_error(monkeypatch):
    _detach_lazy_names(monkeypatch)
    # colour_masks is public in colouring but not re-exported by the root;
    # the last three are test helpers now, not library names.
    for name in ("no_such_name", "colour_masks", "is_fully_coloured", "sample_unit_vector", "axis_component_samples"):
        with pytest.raises(AttributeError, match=name):
            getattr(kscolour, name)
    assert not hasattr(colouring, "is_fully_coloured")
    assert not hasattr(montecarlo, "sample_unit_vector")
    assert not hasattr(montecarlo, "axis_component_samples")


def test_benchmark_tracer_wraps_lazy_names_once_and_restores_them(monkeypatch):
    # The in-process benchmark touches a lazy name in its warm-up request,
    # then wraps every public function wherever kscolour holds it.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    _detach_lazy_names(monkeypatch)
    kscolour.estimate_basis_fraction
    before = {name: getattr(kscolour, name) for name in kscolour.__all__}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = kscolour.ks_satisfied
        assert wrapped is not before["ks_satisfied"]
        assert wrapped.__wrapped__ is before["ks_satisfied"]
        assert wrapped(colouring.OrthonormalBasis(np.eye(3)), colouring.ColouringParams(dim=3))
        assert tracer.calls["colouring.ks_satisfied"] == 1
    finally:
        tracer.uninstall()
    assert {name: vars(kscolour)[name] for name in kscolour.__all__} == before


def test_readme_library_sketch_imports_only_public_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    start = readme.index("from kscolour import (")
    block = readme[start : readme.index(")", start) + 1]
    (node,) = ast.parse(block).body
    names = [alias.name for alias in node.names]
    assert len(names) > 5
    assert set(names) <= set(kscolour.__all__)


def test_import_leaves_the_environment_unchanged():
    code = "import os; env = dict(os.environ); import kscolour, kscolour.cli; print(dict(os.environ) == env)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "True"


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, so no source may use
    # newer syntax, whichever interpreter runs the suite.
    paths = sorted(path for top in ("src", "tests", "benchmarks", "perfbench") for path in (ROOT / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
