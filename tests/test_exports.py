"""Every name a module declares public exists and the package re-exports it."""

import importlib
import pkgutil

import pytest

import frsense

#: The console entry point; its ``main`` is not library API.
ENTRY_POINT = "frsense.cli"

MODULES = sorted(info.name for info in pkgutil.walk_packages(frsense.__path__, "frsense."))


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
