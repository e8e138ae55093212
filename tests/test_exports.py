"""Every exported name resolves, and the package builds its verdicts in one module."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mminfenv

MODULES = ["mminfenv"] + [f"mminfenv.{info.name}" for info in pkgutil.iter_modules(mminfenv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == [], f"{name}.__all__ names {missing}, which {name} does not define"


def test_verdicts_are_built_only_in_checks():
    # one home for the checks: the CLI and the rest of the library report
    # the verdicts of mminfenv.checks and construct none of their own
    modules = set()
    for path in sorted(Path(mminfenv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == "CheckVerdict" or getattr(func, "attr", None) == "CheckVerdict":
                    modules.add(path.name)
    assert modules == {"checks.py"}
