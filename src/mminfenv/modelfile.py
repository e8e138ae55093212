"""Reading and writing model files.

A model file is a single YAML document:

    schema_version: 1
    mu: 1.0
    states:
      - lambda: 3.0
        beta: 1.0
        sojourn: {family: gamma, shape: 2.0, rate: 2.0}
      - lambda: 0.4
        beta: 0.5
        sojourn: {family: deterministic, value: 1.5}
    routing:
      - [0.0, 1.0]
      - [1.0, 0.0]

Unknown and repeated keys are rejected anywhere in the tree (fail
closed: YAML would otherwise keep the last of two values), every
numeric field must be an integer or a float (a bool, a string or null
is a ModelError naming the field), and ``schema_version`` must be 1.
Sojourn families and their parameter keys: exponential {rate}, gamma
{shape, rate}, deterministic {value}, hyperexponential {probs, rates}.
"""

import dataclasses
import numbers
from collections.abc import Hashable

import yaml

from .environment import SOJOURN_FAMILIES, EnvironmentModel
from .errors import ModelError

__all__ = ["SCHEMA_VERSION", "load_model", "parse_model", "model_to_dict"]

SCHEMA_VERSION = 1


class _UniqueKeys:
    """Loader mixin: a key repeated within one mapping is a YAML error naming its line."""

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                if isinstance(key, Hashable):
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key!r}", key_node.start_mark,
                        )
                    seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _unique_keys(loader):
    """``loader`` with the repeated-key check, under the same name."""
    return type(loader.__name__, (_UniqueKeys, loader), {})


# libyaml's C parser when PyYAML was built with it (about ten times faster
# on the shipped files); both build the same document tree
_YAML_LOADER = _unique_keys(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _require_keys(mapping: dict, allowed: set, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ModelError(f"{context} must be a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ModelError(f"{context} has unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = allowed - set(mapping)
    if missing:
        raise ModelError(f"{context} is missing field(s) {sorted(missing)}")


def _exponent_hint(value) -> str:
    """A hint for exponent notation that YAML 1.1 left a string, else ''.

    PyYAML reads a float in exponent notation only with a decimal point
    and a signed exponent: ``1.0e-3`` is a number, ``1e-3`` and ``1.0e18``
    are strings.
    """
    if not (isinstance(value, str) and "e" in value.lower()):
        return ""
    try:
        float(value)
    except ValueError:
        return ""
    return (
        " (YAML 1.1 reads exponent notation as a number only with a decimal point"
        " and a signed exponent, such as 1.0e-3 or 1.0e+18)"
    )


def _number(value, context: str) -> float:
    """A numeric field as a float: any real number but a bool, else ModelError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{context} must be a number, got {value!r}{_exponent_hint(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ModelError(f"{context} = {value!r} is out of range: {exc}") from exc


def _numbers(values, context: str) -> list:
    if not isinstance(values, (list, tuple)):
        raise ModelError(f"{context} must be a list of numbers, got {values!r}")
    return [_number(value, f"{context}[{index}]") for index, value in enumerate(values)]


def _parse_sojourn(node: dict, context: str):
    if not isinstance(node, dict) or "family" not in node:
        raise ModelError(f"{context} must be a mapping with a 'family' field")
    family = node["family"]
    if family not in SOJOURN_FAMILIES:
        raise ModelError(
            f"{context}: unknown family {family!r}; expected one of {sorted(SOJOURN_FAMILIES)}"
        )
    law = SOJOURN_FAMILIES[family]
    fields = {field.name: field.type for field in dataclasses.fields(law)}
    _require_keys(node, set(fields) | {"family"}, context)
    params = {}
    for key in sorted(fields):
        parse = _numbers if fields[key] is tuple else _number
        params[key] = parse(node[key], f"{context}.{key}")
    return law(**params)


def parse_model(document: dict) -> EnvironmentModel:
    """Build an EnvironmentModel from a parsed document tree.

    A structurally invalid model raises the model's own ModelError,
    which lists every violation.
    """
    _require_keys(document, {"schema_version", "mu", "states", "routing"}, "model document")
    version = document["schema_version"]
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ModelError(
            f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION}"
        )
    states = document["states"]
    if not isinstance(states, list) or not states:
        raise ModelError("'states' must be a nonempty list")
    arrival_rates = []
    speeds = []
    sojourns = []
    for index, state in enumerate(states):
        context = f"states[{index}]"
        _require_keys(state, {"lambda", "beta", "sojourn"}, context)
        arrival_rates.append(_number(state["lambda"], f"{context}.lambda"))
        speeds.append(_number(state["beta"], f"{context}.beta"))
        sojourns.append(_parse_sojourn(state["sojourn"], f"{context}.sojourn"))
    routing = document["routing"]
    if not isinstance(routing, list):
        raise ModelError("'routing' must be a list of rows")
    routing = [_numbers(row, f"routing[{index}]") for index, row in enumerate(routing)]
    try:
        return EnvironmentModel(
            arrival_rates=arrival_rates,
            speeds=speeds,
            sojourns=tuple(sojourns),
            mu=_number(document["mu"], "mu"),
            routing=routing,
        )
    except ModelError:
        raise
    except (TypeError, ValueError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc


def load_model(path) -> EnvironmentModel:
    """Parse the model file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = yaml.load(handle, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ModelError(f"model file {path} is not valid YAML: {exc}") from exc
    if not isinstance(document, dict):
        raise ModelError(f"model file {path} must contain a mapping at the top level")
    return parse_model(document)


def _sojourn_to_dict(dist) -> dict:
    family = next(name for name, law in SOJOURN_FAMILIES.items() if isinstance(dist, law))
    node = {"family": family}
    for field in dataclasses.fields(dist):
        value = getattr(dist, field.name)
        node[field.name] = list(value) if field.type is tuple else value
    return node


def model_to_dict(model: EnvironmentModel) -> dict:
    """Canonical document tree for echoing a model into reports."""
    return {
        "schema_version": SCHEMA_VERSION,
        "mu": model.mu,
        "states": [
            {
                "lambda": float(model.arrival_rates[k]),
                "beta": float(model.speeds[k]),
                "sojourn": _sojourn_to_dict(model.sojourns[k]),
            }
            for k in range(model.num_states)
        ],
        "routing": [[float(x) for x in row] for row in model.routing],
    }
