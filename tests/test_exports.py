"""Every exported name resolves: a deletion must not leave a stale entry in an ``__all__``."""

import importlib
import pkgutil

import pytest

import mminfenv

MODULES = ["mminfenv"] + [f"mminfenv.{info.name}" for info in pkgutil.iter_modules(mminfenv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == [], f"{name}.__all__ names {missing}, which {name} does not define"
