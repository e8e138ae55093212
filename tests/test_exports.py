"""Every exported name resolves, and the package builds its verdicts and its chain statics each in one place."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mminfenv
import mminfenv.cli

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


def test_statics_are_built_only_by_the_table_pipeline_and_the_verbs():
    # one place computes the chain's derived quantities, and each verb
    # hands them down: no library function rebuilds them for itself
    callers = set()
    for path in sorted(Path(mminfenv.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and "chain_statics" in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None),
                    ):
                        callers.add(f"{path.stem}.{function.name}")
    verbs = {f"cli.{command.__name__}" for command in mminfenv.cli.COMMANDS.values()}
    assert "moments.compute_moment_table" in callers
    assert callers - verbs == {"moments.compute_moment_table"}
