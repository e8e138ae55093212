"""Every exported name resolves, verdicts and chain statics are each built in one place, every CLI option has a caller."""

import argparse
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


def test_statics_are_built_only_by_the_model():
    # one place computes the chain's derived quantities, the model's
    # construction, and every layer reads them there: nothing rebuilds them
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
    assert callers == {"environment.__post_init__"}


PACKAGE = Path(mminfenv.__file__).parent
ROOT = PACKAGE.parent.parent

# public methods that no verb, demo or benchmark calls, each with the reason it stays
ONLY_TESTED = {
    # SojournDistribution.residual_laplace, with its overrides: the identity
    # check planned for the residual weights,
    # sum_j C(j, i) w*_k[n, j] = C(n, i) tau*_k(i mu_k), reads it
    "residual_laplace",
}

# module-level functions that the interpreter calls by protocol, never by
# name: a module's __getattr__ and __dir__ (PEP 562)
PROTOCOL_FUNCTIONS = {"__getattr__", "__dir__"}


def _mentions(node, names) -> bool:
    return any(
        getattr(sub, "id", None) in names or getattr(sub, "attr", None) in names for sub in ast.walk(node)
    )


def _division_sites(tree, stem) -> set:
    """Qualified names of the functions that divide arrival rates by service rates.

    A local name bound to an expression that reads either array counts as
    that array, so ``lam = model.arrival_rates; lam / model.service_rates``
    is found too.
    """
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}")
            elif isinstance(child, ast.FunctionDef):
                check(child, f"{scope}.{child.name}")
                visit(child, f"{scope}.{child.name}")

    def check(function, scope):
        arrivals, services = {"arrival_rates"}, {"service_rates"}
        assigns = [node for node in ast.walk(function) if isinstance(node, ast.Assign)]
        for node in sorted(assigns, key=lambda node: node.lineno):
            names = {target.id for target in node.targets if isinstance(target, ast.Name)}
            if _mentions(node.value, arrivals):
                arrivals |= names
            if _mentions(node.value, services):
                services |= names
        for node in ast.walk(function):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                pair = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                pair = (node.target, node.value)
            elif isinstance(node, ast.Call) and _mentions(node.func, {"divide", "true_divide"}) and len(node.args) >= 2:
                pair = tuple(node.args[:2])
            else:
                continue
            if _mentions(pair[0], arrivals) and _mentions(pair[1], services):
                sites.add(scope)

    visit(tree, stem)
    return sites


def test_offered_loads_are_computed_in_one_place():
    # rho_k = lambda_k / (beta_k mu) is a field of the model, computed once
    # when it is built; every layer reads model.offered_loads
    sites = set()
    for path in sorted(PACKAGE.glob("*.py")):
        sites |= _division_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sites == {"environment.EnvironmentModel.__post_init__"}


def test_sign_rule_is_applied_in_one_place():
    # one home for the sign rule: the Palm and stationary checks and the
    # scalar moments all call _require_nonnegative, and nothing else,
    # in a function or at module level, reads its floor
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                # ast.walk goes outside in, so a nested function's name wins
                scopes.update({id(node): function.name for node in ast.walk(function)})
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "_NEGATIVITY_FLOOR" and not isinstance(node.ctx, ast.Store):
                readers.add(f"{path.stem}.{scopes.get(id(node), '<module>')}")
    assert readers == {"moments._require_nonnegative"}


def test_every_package_function_has_a_caller_outside_the_tests():
    # package code is code a verb, a demo or the benchmark runs: a function
    # or public method read only by tests is dead weight, or belongs in them
    referenced = set()
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                if node.name not in referenced | PROTOCOL_FUNCTIONS:
                    unused.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    public = isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    if public and item.name not in referenced | ONLY_TESTED:
                        unused.append(f"{path.stem}.{node.name}.{item.name}")
    assert unused == []


# every option of each verb, with its reason to exist: a required input, a
# deployment setting, or the caller outside the tests (a benchmark workload
# or a demo) that sets a value other than the default.  A new flag needs a
# line here, and so a caller
VERB_OPTIONS = {
    "moments": {
        "--model": "required input",
        "--order": "perfbench shipped-moments sets 20",
        "--out": "deployment setting: the path of the JSON report",
        "--weighting": "perfbench shipped-moments passes it; it goes with a benchmark change (ROADMAP item 5)",
    },
    "simulate": {
        "--model": "required input",
        "--order": "shared with compare, which perfbench simulate runs at order 3",
        "--out": "deployment setting: the path of the JSON report",
        "--seed": "shared with compare, which perfbench simulate runs with a seed per call",
        "--reps": "shared with compare, which perfbench simulate runs at 32 replications",
        "--horizon": "shared with compare, which perfbench simulate runs over 2000 cycles",
        "--warmup": "shared with compare, which perfbench simulate runs with warmup 80",
    },
    "validate": {
        "--model": "required input",
        "--order": "perfbench shipped-validate sets 20",
        "--out": "deployment setting: the path of the JSON report",
    },
    "compare": {
        "--model": "required input",
        "--order": "perfbench simulate sets 3",
        "--out": "perfbench simulate writes the report twice to check it repeats",
        "--seed": "perfbench simulate sets a seed per call",
        "--reps": "perfbench simulate sets 32",
        "--horizon": "perfbench simulate sets 2000 cycles past the warmup",
        "--warmup": "perfbench simulate sets 80",
        "--z-max": "perfbench simulate sets 6",
    },
}


def test_every_option_has_a_stated_caller():
    parser = mminfenv.cli.build_parser()
    (verbs,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    options = {
        verb: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for verb, sub in verbs.choices.items()
    }
    assert options == {verb: set(reasons) for verb, reasons in VERB_OPTIONS.items()}
