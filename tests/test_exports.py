"""Every name a module declares public exists and the package re-exports it."""

import importlib
import os
import pkgutil
import sys

import pytest

import frsense

#: The console entry point; its ``main`` is not library API.
ENTRY_POINT = "frsense.cli"

MODULES = sorted(info.name for info in pkgutil.walk_packages(frsense.__path__, "frsense."))

#: Names that only tests called; their oracles live in ``tests/_oracles.py``.
REMOVED = (
    "tangent_project",
    "exp_map",
    "measure_triple",
    "crp_expected_clusters",
    "griffin_steel_pdf",
    "smoothed_centering_measure",
    "sweep_grid_presets",
    "GRID_POINTS",
)


def test_every_module_is_found():
    assert {ENTRY_POINT, "frsense.measures", "frsense.samplers.griffin"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_declared_exports_resolve_and_are_reexported(name):
    module = importlib.import_module(name)
    for export in module.__all__:
        assert hasattr(module, export), f"{name}.__all__ names a missing {export!r}"
        if name != ENTRY_POINT:
            assert getattr(frsense, export, None) is getattr(module, export), (
                f"frsense does not re-export {name}.{export}"
            )


def test_test_only_names_are_gone():
    for name in MODULES:
        module = importlib.import_module(name)
        assert not [n for n in REMOVED if hasattr(module, n)], name
    assert not hasattr(frsense.TangentVector, "scaled")
    assert not hasattr(frsense.UniformBase, "density")
    assert not hasattr(frsense.BetaBase, "density")
    assert not hasattr(frsense.Srd, "allclose")
    assert not hasattr(frsense.SweepSpec, "baseline_index")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == frsense.__version__
