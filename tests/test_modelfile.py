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
    validate_model,
)
from mminfenv import modelfile
from mminfenv.cli import main

from conftest import MODELS_DIR

LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


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
    def test_loads_and_validates(self, name, k_count):
        model = load_model(MODELS_DIR / name)
        assert model.num_states == k_count
        assert validate_model(model) == []

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

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ModelError, match="mapping"):
            load_model(path)


def test_round_trip_preserves_model():
    model = parse_model(minimal_document())
    document = model_to_dict(model)
    again = parse_model(document)
    assert np.array_equal(again.arrival_rates, model.arrival_rates)
    assert np.array_equal(again.speeds, model.speeds)
    assert np.array_equal(again.routing, model.routing)
    assert again.mu == model.mu
    assert again.sojourns == model.sojourns
