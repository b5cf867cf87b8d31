"""Every exported name of the package and its submodules resolves."""

import importlib
import pkgutil

import pytest

import medialcover

MODULES = ["medialcover"] + [f"medialcover.{m.name}" for m in pkgutil.iter_modules(medialcover.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
