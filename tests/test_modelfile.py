import math

import numpy as np
import pytest
import yaml

from mminfenv import (
    Deterministic,
    Exponential,
    Gamma,
    HyperExponential,
    ModelError,
    load_model,
    model_to_dict,
    parse_model,
)
from mminfenv import environment, modelfile
from mminfenv.cli import main

from conftest import MODELS_DIR

LOADERS = [
    modelfile._unique_keys(loader)
    for loader in [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
]

# a valid two-state model file, then the same file with one key repeated:
# (text, the repeated key, the line of its second occurrence)
TWO_STATE_YAML = """\
schema_version: 1
mu: 1.0
states:
  - lambda: 1.0
    beta: 1.0
    sojourn: {family: exponential, rate: 2.0}
  - lambda: 0.5
    beta: 0.5
    sojourn: {family: exponential, rate: 2.0}
routing:
  - [0.0, 1.0]
  - [1.0, 0.0]
"""
DUPLICATE_KEYS = {
    "top-level": (TWO_STATE_YAML.replace("mu: 1.0\n", "mu: 1.0\nmu: 2.0\n"), "mu", 3),
    "nested": (TWO_STATE_YAML.replace("rate: 2.0}\nrouting", "rate: 2.0, rate: 3.0}\nrouting"), "rate", 9),
}


def minimal_document():
    return {
        "schema_version": 1,
        "mu": 1.0,
        "states": [
            {"lambda": 1.0, "beta": 1.0, "sojourn": {"family": "exponential", "rate": 2.0}},
            {"lambda": 0.5, "beta": 0.5, "sojourn": {"family": "deterministic", "value": 1.0}},
        ],
        "routing": [[0.0, 1.0], [1.0, 0.0]],
    }


# one invalid field of the minimal document: (edit in place, the message naming it)
INVALID_FIELDS = {
    "state-not-mapping": (
        lambda doc: doc.update(states=[5, doc["states"][1]]),
        "states[0] must be a mapping, got int",
    ),
    "integer-too-large": (
        lambda doc: doc["states"][0].update({"lambda": 10**400}),
        "states[0].lambda = 1" + "0" * 400 + " is out of range",
    ),
    "sojourn-without-family": (
        lambda doc: doc["states"][0]["sojourn"].pop("family"),
        "states[0].sojourn must be a mapping with a 'family' field",
    ),
    "empty-states": (lambda doc: doc.update(states=[]), "'states' must be a nonempty list"),
    "routing-not-list": (lambda doc: doc.update(routing="alternate"), "'routing' must be a list of rows"),
    "speed-above-1": (lambda doc: doc["states"][0].update(beta=1.5), "speeds must lie in [0, 1]"),
    "infinite-routing": (
        lambda doc: doc.update(routing=[[0.0, math.inf], [1.0, 0.0]]),
        "routing entries must be finite",
    ),
    "routing-above-1": (
        lambda doc: doc.update(routing=[[0.0, 1.5], [1.0, 0.0]]),
        "routing entries must lie in [0, 1]",
    ),
    "negative-branch-probability": (
        lambda doc: doc["states"][0].update(
            sojourn={"family": "hyperexponential", "probs": [-0.2, 1.2], "rates": [1.0, 2.0]}
        ),
        "HyperExponential branch probabilities must be nonnegative",
    ),
}


class TestShippedModels:
    @pytest.mark.parametrize(
        "name,k_count",
        [
            ("k3_mixed.yaml", 3),
            ("k3_exponential.yaml", 3),
            ("k2_gamma_exp.yaml", 2),
            ("k2_exponential.yaml", 2),
            ("identical.yaml", 3),
        ],
    )
    def test_loads_and_validates(self, name, k_count, monkeypatch):
        # loading builds the model, and building it runs every structural check
        reports = []
        original = environment._violations
        monkeypatch.setattr(environment, "_violations", lambda model: reports.append(original(model)) or reports[-1])
        model = load_model(MODELS_DIR / name)
        assert model.num_states == k_count
        assert reports == [[]]

    @pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.yaml")), ids=lambda path: path.stem)
    def test_loaders_agree(self, path, monkeypatch):
        models = []
        for loader in LOADERS:
            monkeypatch.setattr(modelfile, "_YAML_LOADER", loader)
            models.append(load_model(path))
        for model in models[1:]:
            assert np.array_equal(model.arrival_rates, models[0].arrival_rates)
            assert np.array_equal(model.speeds, models[0].speeds)
            assert np.array_equal(model.routing, models[0].routing)
            assert model.mu == models[0].mu
            assert model.sojourns == models[0].sojourns

    @pytest.mark.parametrize("case", sorted(DUPLICATE_KEYS))
    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_duplicate_key_rejected(self, loader, case, tmp_path, monkeypatch, capsys):
        # YAML alone would keep the last value and load mu = 2.0 or rate = 3.0
        monkeypatch.setattr(modelfile, "_YAML_LOADER", loader)
        text, key, line = DUPLICATE_KEYS[case]
        path = tmp_path / "duplicate.yaml"
        path.write_text(text)
        with pytest.raises(ModelError, match=rf"duplicate key '{key}'\n  in .*, line {line},"):
            load_model(path)
        assert main(["moments", "--model", str(path)]) == 2
        assert f"duplicate key '{key}'" in capsys.readouterr().err
        path.write_text(TWO_STATE_YAML)
        assert load_model(path).mu == 1.0

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_merge_key_may_be_overridden(self, loader, tmp_path, monkeypatch):
        # a key that overrides one merged in with << is not a repeated key
        monkeypatch.setattr(modelfile, "_YAML_LOADER", loader)
        path = tmp_path / "merge.yaml"
        path.write_text(
            TWO_STATE_YAML.replace("sojourn: {", "sojourn: &law {", 1)
            .replace("{family: exponential, rate: 2.0}\nrouting", "{<<: *law, rate: 3.0}\nrouting")
        )
        assert load_model(path).sojourns == (Exponential(2.0), Exponential(3.0))

    def test_default_loader_rejects_duplicate_keys(self):
        assert issubclass(modelfile._YAML_LOADER, modelfile._UniqueKeys)

    def test_k3_mixed_families(self):
        model = load_model(MODELS_DIR / "k3_mixed.yaml")
        assert isinstance(model.sojourns[0], Gamma)
        assert isinstance(model.sojourns[1], Deterministic)
        assert isinstance(model.sojourns[2], Exponential)


class TestSchema:
    def test_minimal_document_parses(self):
        model = parse_model(minimal_document())
        assert model.num_states == 2
        assert model.arrival_rates == pytest.approx([1.0, 0.5])

    def test_unknown_top_level_field_rejected(self):
        document = minimal_document()
        document["comment"] = "nope"
        with pytest.raises(ModelError, match="unknown field"):
            parse_model(document)

    def test_unknown_state_field_rejected(self):
        document = minimal_document()
        document["states"][0]["weight"] = 2.0
        with pytest.raises(ModelError, match="unknown field"):
            parse_model(document)

    def test_unknown_sojourn_param_rejected(self):
        document = minimal_document()
        document["states"][0]["sojourn"]["scale"] = 1.0
        with pytest.raises(ModelError, match="unknown field"):
            parse_model(document)

    def test_missing_field_rejected(self):
        document = minimal_document()
        del document["mu"]
        with pytest.raises(ModelError, match="missing"):
            parse_model(document)

    def test_wrong_schema_version_rejected(self):
        document = minimal_document()
        document["schema_version"] = 2
        with pytest.raises(ModelError, match="schema_version"):
            parse_model(document)

    @pytest.mark.parametrize("version", [True, "1", None])
    def test_non_integer_schema_version_rejected(self, version):
        # true == 1 in Python, but a bool is not a version number
        document = minimal_document()
        document["schema_version"] = version
        with pytest.raises(ModelError, match="schema_version"):
            parse_model(document)

    def test_invalid_model_error_passes_through(self):
        document = minimal_document()
        document["routing"] = [[0.5, 0.5], [1.0, 0.0]]
        with pytest.raises(ModelError, match=r"^invalid model: routing diagonal entry p\[0,0\] = 0.5 must be 0$"):
            parse_model(document)

    def test_ragged_routing_is_a_malformed_document(self):
        document = minimal_document()
        document["routing"] = [[0.0, 1.0], [1.0]]
        with pytest.raises(ModelError, match="malformed model document"):
            parse_model(document)

    def test_unknown_family_rejected(self):
        document = minimal_document()
        document["states"][0]["sojourn"] = {"family": "weibull", "rate": 1.0}
        with pytest.raises(ModelError, match="family"):
            parse_model(document)

    def test_hyperexponential_round_trip(self):
        document = minimal_document()
        document["states"][1]["sojourn"] = {
            "family": "hyperexponential",
            "probs": [0.4, 0.6],
            "rates": [0.5, 2.0],
        }
        model = parse_model(document)
        assert isinstance(model.sojourns[1], HyperExponential)
        again = parse_model(model_to_dict(model))
        assert again.sojourns[1].probs == model.sojourns[1].probs

    def test_bad_yaml_and_missing_file(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("{{{not yaml")
        with pytest.raises(ModelError):
            load_model(path)
        with pytest.raises(ModelError):
            load_model(tmp_path / "missing.yaml")

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_malformed_yaml_exits_2(self, loader, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(modelfile, "_YAML_LOADER", loader)
        path = tmp_path / "broken.yaml"
        path.write_text("mu: [1.0\nstates: {\n")
        with pytest.raises(ModelError, match="not valid YAML"):
            load_model(path)
        assert main(["moments", "--model", str(path)]) == 2
        assert "not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(INVALID_FIELDS))
    def test_invalid_field_exits_2(self, case, tmp_path, capsys):
        edit, message = INVALID_FIELDS[case]
        document = minimal_document()
        edit(document)
        with pytest.raises(ModelError) as info:
            parse_model(document)
        assert message in str(info.value)
        path = tmp_path / f"{case}.yaml"
        path.write_text(yaml.safe_dump(document))
        assert main(["moments", "--model", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ModelError, match="mapping"):
            load_model(path)

    EXPONENT_HINT = "with a decimal point and a signed exponent, such as 1.0e-3"

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("text", ["1e-3", "1e+18", "1.0e18", "2E5"])
    def test_unsigned_exponent_is_a_string_with_a_hint(self, loader, text, tmp_path, monkeypatch, capsys):
        # YAML 1.1 reads these as strings; the error says how to write them
        monkeypatch.setattr(modelfile, "_YAML_LOADER", loader)
        path = tmp_path / "exponent.yaml"
        path.write_text(TWO_STATE_YAML.replace("lambda: 0.5", f"lambda: {text}"))
        with pytest.raises(ModelError) as info:
            load_model(path)
        assert str(info.value).startswith(f"states[1].lambda must be a number, got '{text}' (YAML 1.1")
        assert self.EXPONENT_HINT in str(info.value)
        assert main(["moments", "--model", str(path)]) == 2
        assert self.EXPONENT_HINT in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1.0e-3", "1.0e+18"])
    def test_signed_exponent_with_a_point_is_a_number(self, text):
        document = yaml.load(TWO_STATE_YAML.replace("lambda: 0.5", f"lambda: {text}"), Loader=LOADERS[0])
        assert parse_model(document).arrival_rates[1] == float(text)

    @pytest.mark.parametrize("value", ["fast", "0.8", "inf"])
    def test_other_strings_get_no_hint(self, value):
        document = minimal_document()
        document["states"][0]["lambda"] = value
        with pytest.raises(ModelError) as info:
            parse_model(document)
        assert str(info.value) == f"states[0].lambda must be a number, got {value!r}"


def test_round_trip_preserves_model():
    model = parse_model(minimal_document())
    document = model_to_dict(model)
    again = parse_model(document)
    assert np.array_equal(again.arrival_rates, model.arrival_rates)
    assert np.array_equal(again.speeds, model.speeds)
    assert np.array_equal(again.routing, model.routing)
    assert again.mu == model.mu
    assert again.sojourns == model.sojourns
