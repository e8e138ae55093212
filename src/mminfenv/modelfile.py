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

Unknown keys are rejected anywhere in the tree (fail closed), and
``schema_version`` must be 1.  Sojourn families and their parameter
keys: exponential {rate}, gamma {shape, rate}, deterministic {value},
hyperexponential {probs, rates}.
"""

import yaml

from .distributions import Deterministic, Exponential, Gamma, HyperExponential
from .environment import EnvironmentModel
from .errors import ModelError

__all__ = ["SCHEMA_VERSION", "load_model", "parse_model", "model_to_dict"]

SCHEMA_VERSION = 1

# libyaml's C parser when PyYAML was built with it (about ten times faster
# on the shipped files); both build the same document tree
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_FAMILY_KEYS = {
    "exponential": {"rate"},
    "gamma": {"shape", "rate"},
    "deterministic": {"value"},
    "hyperexponential": {"probs", "rates"},
}


def _require_keys(mapping: dict, allowed: set, context: str) -> None:
    if not isinstance(mapping, dict):
        raise ModelError(f"{context} must be a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - allowed
    if unknown:
        raise ModelError(f"{context} has unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}")
    missing = allowed - set(mapping)
    if missing:
        raise ModelError(f"{context} is missing field(s) {sorted(missing)}")


def _parse_sojourn(node: dict, context: str):
    if not isinstance(node, dict) or "family" not in node:
        raise ModelError(f"{context} must be a mapping with a 'family' field")
    family = node["family"]
    if family not in _FAMILY_KEYS:
        raise ModelError(
            f"{context}: unknown family {family!r}; expected one of {sorted(_FAMILY_KEYS)}"
        )
    _require_keys(node, _FAMILY_KEYS[family] | {"family"}, context)
    if family == "exponential":
        return Exponential(rate=float(node["rate"]))
    if family == "gamma":
        return Gamma(shape=float(node["shape"]), rate=float(node["rate"]))
    if family == "deterministic":
        return Deterministic(value=float(node["value"]))
    return HyperExponential(probs=tuple(node["probs"]), rates=tuple(node["rates"]))


def parse_model(document: dict) -> EnvironmentModel:
    """Build an EnvironmentModel from a parsed document tree."""
    _require_keys(document, {"schema_version", "mu", "states", "routing"}, "model document")
    if document["schema_version"] != SCHEMA_VERSION:
        raise ModelError(
            f"unsupported schema_version {document['schema_version']!r}; expected {SCHEMA_VERSION}"
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
        arrival_rates.append(float(state["lambda"]))
        speeds.append(float(state["beta"]))
        sojourns.append(_parse_sojourn(state["sojourn"], f"{context}.sojourn"))
    routing = document["routing"]
    if not isinstance(routing, list):
        raise ModelError("'routing' must be a list of rows")
    try:
        return EnvironmentModel(
            arrival_rates=arrival_rates,
            speeds=speeds,
            sojourns=tuple(sojourns),
            mu=float(document["mu"]),
            routing=routing,
        )
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
    if isinstance(dist, Exponential):
        return {"family": "exponential", "rate": dist.rate}
    if isinstance(dist, Gamma):
        return {"family": "gamma", "shape": dist.shape, "rate": dist.rate}
    if isinstance(dist, Deterministic):
        return {"family": "deterministic", "value": dist.value}
    if isinstance(dist, HyperExponential):
        return {"family": "hyperexponential", "probs": list(dist.probs), "rates": list(dist.rates)}
    raise ModelError(f"sojourn family {type(dist).__name__} has no file representation")


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
