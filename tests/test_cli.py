import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mminfenv
from mminfenv import closedform, compute_moment_table, load_model, model_to_dict
from mminfenv.checks import TOLERANCES, CheckVerdict, structural_checks
from mminfenv.cli import build_parser, main

from conftest import MODELS_DIR, random_exponential_model, ring_model

ROOT = MODELS_DIR.parent
SHIPPED = sorted(str(path) for path in MODELS_DIR.glob("*.yaml"))

IDENTICAL = str(MODELS_DIR / "identical.yaml")
K3_MIXED = str(MODELS_DIR / "k3_mixed.yaml")
K3_EXP = str(MODELS_DIR / "k3_exponential.yaml")
K2_GAMMA = str(MODELS_DIR / "k2_gamma_exp.yaml")
K2_EXP = str(MODELS_DIR / "k2_exponential.yaml")
# a simulate or compare run of a fraction of a second
SHORT_SIMULATION = ["--reps", "3", "--warmup", "5", "--horizon", "50"]


# (place in the document, malformed value, field the error must name)
MALFORMED_NUMBERS = [
    (("states", 0, "lambda"), None, "states[0].lambda"),
    (("states", 0, "lambda"), True, "states[0].lambda"),
    (("states", 0, "beta"), "0.8", "states[0].beta"),
    (("states", 0, "sojourn", "rate"), [4.0], "states[0].sojourn.rate"),
    (("states", 0, "sojourn", "rate"), "fast", "states[0].sojourn.rate"),
    (("states", 1, "sojourn", "shape"), None, "states[1].sojourn.shape"),
    (("states", 2, "sojourn", "value"), False, "states[2].sojourn.value"),
    (("states", 3, "sojourn", "probs", 0), "0.4", "states[3].sojourn.probs[0]"),
    (("states", 3, "sojourn", "rates"), 2.0, "states[3].sojourn.rates"),
    (("mu",), True, "mu"),
    (("mu",), [1.0], "mu"),
    (("routing", 0, 1), True, "routing[0][1]"),
    (("routing", 1, 0), None, "routing[1][0]"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoments:
    def test_identical_state_table(self, capsys):
        code, out, _ = run(capsys, "moments", "--model", IDENTICAL, "--order", "4")
        assert code == 0
        lines = [line for line in out.splitlines() if line and line[0].isdigit()]
        # factorial column is rho^n with rho = 2 under both weightings
        for n, line in enumerate(lines):
            cells = line.split()
            assert float(cells[1]) == pytest.approx(2.0 ** n, rel=1e-9)
            assert float(cells[2]) == pytest.approx(2.0 ** n, rel=1e-9)

    def test_identical_state_table_to_the_order_cap(self, capsys):
        # the count is exactly Poisson(2): the printed f_N is 2^n at every order
        code, out, _ = run(capsys, "moments", "--model", IDENTICAL, "--order", "20")
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line and line[0].isdigit()]
        assert [(row[1], row[2]) for row in rows] == [(str(2 ** n), str(2 ** n)) for n in range(21)]

    def test_order_zero_single_row(self, capsys):
        code, out, _ = run(capsys, "moments", "--model", IDENTICAL, "--order", "0",
                           "--weighting", "occupancy")
        assert code == 0
        rows = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert len(rows) == 1
        assert rows[0].split()[1:] == ["1", "1"]

    def test_single_weighting_column(self, capsys):
        code, out, _ = run(capsys, "moments", "--model", K3_MIXED, "--order", "2",
                           "--weighting", "embedded")
        assert code == 0
        assert "f_N[embedded]" in out and "occupancy" not in out

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda path: Path(path).stem)
    def test_single_weighting_rows_are_columns_of_both(self, capsys, path):
        # one weighting prints the order, f_N and m_N columns of --weighting both, cell for cell
        def rows(weighting):
            code, out, _ = run(capsys, "moments", "--model", path, "--order", "20", "--weighting", weighting)
            assert code == 0
            return [line.split() for line in out.splitlines() if line and line[0].isdigit()]

        both = rows("both")
        table = compute_moment_table(load_model(path), n_max=20)
        shown = ("embedded", "occupancy")
        assert both == [
            [str(n)] + [f"{table.aggregated[w][n]:.12g}" for w in shown] + [f"{table.raw[w][n]:.12g}" for w in shown]
            for n in range(21)
        ]
        for weighting, f_column, m_column in (("embedded", 1, 3), ("occupancy", 2, 4)):
            assert rows(weighting) == [[row[0], row[f_column], row[m_column]] for row in both]

    def test_out_report_is_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "moments", "--model", K3_MIXED, "--order", "3",
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "moments"
        assert payload["model"]["schema_version"] == 1
        assert len(payload["table"]["factorial"]["occupancy"]) == 4
        residuals = payload["table"]["conservation_residuals"]
        assert len(residuals) == 4 and max(residuals) <= 1e-14
        assert "identity_residuals" not in payload["table"]

    def test_out_reports_the_solver_of_each_order(self, capsys, tmp_path):
        # palm_steps[n]: 0 for an LU order, else the products of its series;
        # statics_steps likewise for pi
        ring = ring_model(64, np.random.default_rng(64), mu=800.0)
        model_path = tmp_path / "ring.yaml"
        model_path.write_text(yaml.safe_dump(model_to_dict(ring)))
        for verb, model, steps in (
            ("moments", str(model_path), compute_moment_table(load_model(model_path), n_max=20).palm_steps),
            ("validate", K3_MIXED, [0] * 21),
        ):
            out_path = tmp_path / f"{verb}.json"
            run(capsys, verb, "--model", model, "--order", "20", "--out", str(out_path))
            table = json.loads(out_path.read_text())["table"]
            reported = table["palm_steps"]
            assert reported == list(steps)
            assert all(isinstance(count, int) for count in reported)
            assert table["statics_steps"] == load_model(model).statics.steps == 0
        assert reported == [0] * 21
        assert json.loads((tmp_path / "moments.json").read_text())["table"]["palm_steps"][1:6] == [6, 5, 5, 5, 4]

    def test_out_reports_the_series_steps_of_pi(self, capsys, tmp_path):
        # a dense K = 120 chain takes the series for pi (a JSON file is YAML)
        dense = random_exponential_model(120, np.random.default_rng(120))
        model_path = tmp_path / "dense.yaml"
        model_path.write_text(json.dumps(model_to_dict(dense)))
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "moments", "--model", str(model_path), "--order", "2", "--out", str(out_path))
        assert code == 0
        steps = json.loads(out_path.read_text())["table"]["statics_steps"]
        assert steps == load_model(model_path).statics.steps > 0

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "moments", "--model", K2_EXP, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("input error:")
        assert not target.exists()

    def test_invalid_model_exits_2(self, capsys, tmp_path):
        document = yaml.safe_load(open(IDENTICAL))
        document["routing"][0][0] = 0.5
        document["routing"][0][1] = 0.2
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(document))
        code, _, err = run(capsys, "moments", "--model", str(bad))
        assert code == 2
        assert "diagonal" in err

    def test_overflowing_offered_load_exits_2(self, capsys, tmp_path):
        path = tmp_path / "subnormal.yaml"
        path.write_text(
            "schema_version: 1\nmu: 1.0\nstates:\n"
            "  - {lambda: 1.0, beta: 1.0e-310, sojourn: {family: exponential, rate: 1.0}}\n"
            "  - {lambda: 1.0, beta: 1.0, sojourn: {family: exponential, rate: 1.0}}\n"
            "routing: [[0.0, 1.0], [1.0, 0.0]]\n"
        )
        code, out, err = run(capsys, "moments", "--model", str(path))
        assert (code, out) == (2, "")
        assert err == "input error: invalid model: state 0 has an offered load (1.0 / 1e-310) beyond double precision\n"

    @pytest.mark.parametrize("verb", ["moments", "validate", "simulate", "compare"])
    def test_near_singular_chain_exits_3(self, capsys, tmp_path, verb):
        # two 2-state blocks joined by 1e-13 links: loading the model fails
        # to certify its stationary law, before any verb runs
        eps = 1e-13
        path = tmp_path / "weak.yaml"
        path.write_text(yaml.safe_dump({
            "schema_version": 1, "mu": 1.0,
            "states": [{"lambda": 1.0, "beta": 1.0, "sojourn": {"family": "exponential", "rate": 1.0}} for _ in range(4)],
            "routing": [
                [0.0, 1.0 - eps, eps, 0.0],
                [1.0 - eps, 0.0, 0.0, eps],
                [eps, 0.0, 0.0, 1.0 - eps],
                [0.0, eps, 1.0 - eps, 0.0],
            ],
        }))
        code, out, err = run(capsys, verb, "--model", str(path))
        assert (code, out) == (3, "")
        assert err == "numeric error: embedded balance system is near-singular (condition 1.999e+13 > 1e12)\n"

    @pytest.mark.parametrize("verb", ["moments", "validate"])
    @pytest.mark.parametrize("shape, rate, beta", [(307.6, 272.1, 0.3035), (80.3, 229.2, 0.2286), (46.19, 1.0, 0.01)])
    def test_large_gamma_shape_exits_0(self, capsys, tmp_path, verb, shape, rate, beta):
        # a non-integer gamma of large shape is Gamma(s - floor(s)) * Erlang(floor(s)):
        # its moments are printed, and validate passes every verdict
        path = tmp_path / "gamma.yaml"
        path.write_text(yaml.safe_dump({
            "schema_version": 1, "mu": 1.0,
            "states": [
                {"lambda": 1.0, "beta": beta, "sojourn": {"family": "gamma", "shape": shape, "rate": rate}},
                {"lambda": 2.0, "beta": 1.0, "sojourn": {"family": "exponential", "rate": 1.0}},
            ],
            "routing": [[0.0, 1.0], [1.0, 0.0]],
        }))
        code, out, err = run(capsys, verb, "--model", str(path), "--order", "20")
        assert (code, err) == (0, "")
        assert out

    def test_unknown_field_exits_2(self, capsys, tmp_path):
        document = yaml.safe_load(open(IDENTICAL))
        document["extra"] = 1
        bad = tmp_path / "extra.yaml"
        bad.write_text(yaml.safe_dump(document))
        code, _, err = run(capsys, "moments", "--model", str(bad))
        assert code == 2
        assert "unknown field" in err

    @pytest.mark.parametrize(
        "path, value, field",
        MALFORMED_NUMBERS,
        ids=[f"{field}={value!r}" for _, value, field in MALFORMED_NUMBERS],
    )
    def test_malformed_number_exits_2_naming_the_field(self, capsys, tmp_path, path, value, field):
        document = {
            "schema_version": 1,
            "mu": 1,
            "states": [
                {"lambda": 1.0, "beta": 1, "sojourn": {"family": "exponential", "rate": 4.0}},
                {"lambda": 0.5, "beta": 0.5, "sojourn": {"family": "gamma", "shape": 2, "rate": 1.5}},
                {"lambda": 2, "beta": 0.8, "sojourn": {"family": "deterministic", "value": 1.5}},
                {"lambda": 0.0, "beta": 0.7,
                 "sojourn": {"family": "hyperexponential", "probs": [0.4, 0.6], "rates": [0.5, 2]}},
            ],
            "routing": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
        }
        good = tmp_path / "good.yaml"
        good.write_text(yaml.safe_dump(document))
        assert run(capsys, "moments", "--model", str(good), "--order", "2")[0] == 0
        node = document
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(document))
        code, _, err = run(capsys, "moments", "--model", str(bad), "--order", "2")
        assert code == 2
        assert f"{field} must be a" in err

    def test_numeric_failure_exits_3(self, capsys, tmp_path):
        # deterministic sojourn so long that the transform underflows: the
        # weight form still gives the moments, but the two-state closed form
        # of validate needs 1 / tau_1(2 mu) = e^1000
        document = {
            "schema_version": 1,
            "mu": 1.0,
            "states": [
                {"lambda": 1.0, "beta": 1.0,
                 "sojourn": {"family": "deterministic", "value": 500.0}},
                {"lambda": 1.0, "beta": 1.0,
                 "sojourn": {"family": "exponential", "rate": 1.0}},
            ],
            "routing": [[0.0, 1.0], [1.0, 0.0]],
        }
        bad = tmp_path / "underflow.yaml"
        bad.write_text(yaml.safe_dump(document))
        code, _, _ = run(capsys, "moments", "--model", str(bad), "--order", "8")
        assert code == 0
        code, _, err = run(capsys, "validate", "--model", str(bad), "--order", "8")
        assert code == 3
        assert "underflowed to 0 at order 2" in err

    # a valid model served at speed 1e-15 in both states: every tau_k is
    # within 1e-14 of 1, so the order-2 Palm matrix is singular to working
    # precision and its back-substitution check fails
    SLOW_SERVICE = {
        "schema_version": 1,
        "mu": 1.0,
        "states": [
            {"lambda": 1e-16, "beta": 1e-15, "sojourn": {"family": "gamma", "shape": 2.5, "rate": 1.0}},
            {"lambda": 1.0, "beta": 1e-15, "sojourn": {"family": "exponential", "rate": 1.0}},
        ],
        "routing": [[0.0, 1.0], [1.0, 0.0]],
    }
    SLOW_SERVICE_ERROR = (
        "numeric error: order-2 solve is ill-conditioned: relative residual 1.074e-02 "
        "exceeds 1e-08 (condition 6.551e+14)\n"
    )
    # the order-2 solve is garbage whose digits follow the last bits of its
    # weights, which depend on the order the table is built at: these are
    # the verbs' default orders, 5 and 6 (SLOW_SERVICE_ERROR is order 20)
    SLOW_SERVICE_DEFAULT_ORDER_ERRORS = {
        "moments": (
            "numeric error: order-2 solve is ill-conditioned: relative residual 8.789e-03 "
            "exceeds 1e-08 (condition 5.906e+14)\n"
        ),
        "validate": (
            "numeric error: order-2 solve is ill-conditioned: relative residual 1.172e-02 "
            "exceeds 1e-08 (condition 6.005e+14)\n"
        ),
    }

    @pytest.mark.parametrize("verb", ["moments", "validate"])
    def test_ill_conditioned_solve_exits_3(self, capsys, tmp_path, verb):
        path = tmp_path / "slow.yaml"
        path.write_text(yaml.safe_dump(self.SLOW_SERVICE))
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, verb, "--model", str(path), "--out", str(out_path))
        assert (code, out) == (3, "")
        assert err == self.SLOW_SERVICE_DEFAULT_ORDER_ERRORS[verb]
        assert not out_path.exists()

    @pytest.mark.parametrize("verb", ["moments", "validate"])
    def test_ill_conditioned_solve_prints_only_its_error(self, tmp_path, verb):
        # every order is solved before any is checked, so orders 3-20 run on
        # the garbage of order 2; pytest turns a RuntimeWarning into an
        # error, so only a fresh interpreter shows one printed from them
        path = tmp_path / "slow.yaml"
        path.write_text(yaml.safe_dump(self.SLOW_SERVICE))
        result = run_python("-m", "mminfenv.cli", verb, "--model", str(path), "--order", "20", check=False)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == self.SLOW_SERVICE_ERROR

    @pytest.mark.parametrize("verb", ["moments", "validate"])
    def test_overflowing_load_power_prints_only_its_error(self, tmp_path, verb):
        # lambda_1 = 1e18 is a valid model whose order-18 load power is
        # infinite: the power itself must not warn before the check fails
        document = model_to_dict(load_model(K3_MIXED))
        document["states"][0]["lambda"] = 1.0e18
        path = tmp_path / "huge.yaml"
        path.write_text(yaml.safe_dump(document))
        result = run_python("-m", "mminfenv.cli", verb, "--model", str(path), "--order", "20", check=False)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == (
            "numeric error: palm moment vector at order 18: non-finite moment entries "
            "array([inf, inf, inf])\n"
        )


class TestValidate:
    @pytest.mark.parametrize("model", [K3_EXP, K2_GAMMA, K2_EXP, K3_MIXED, IDENTICAL])
    def test_shipped_models_pass(self, capsys, model):
        code, out, _ = run(capsys, "validate", "--model", model, "--order", "6")
        assert code == 0, out
        assert "overall: PASS" in out

    def test_long_deterministic_sojourn_passes_at_order_20(self, capsys, tmp_path):
        # tau = exp(-700) at order 20: no check may divide by it
        document = {
            "schema_version": 1,
            "mu": 1.0,
            "states": [
                {"lambda": 1.0, "beta": 1.0,
                 "sojourn": {"family": "deterministic", "value": 35.0}},
                {"lambda": 1.0, "beta": 1.0,
                 "sojourn": {"family": "exponential", "rate": 1.0}},
            ],
            "routing": [[0.0, 1.0], [1.0, 0.0]],
        }
        path = tmp_path / "long.yaml"
        path.write_text(yaml.safe_dump(document))
        code, out, _ = run(capsys, "validate", "--model", str(path), "--order", "20")
        assert code == 0, out
        assert "overall: PASS" in out

    def test_sharply_peaked_gamma_sojourn_passes_at_order_20(self, capsys, tmp_path):
        # Gamma(300, 300): g^shape = 300^300 is beyond double precision, and
        # the gamma-form reference must not need it
        document = {
            "schema_version": 1,
            "mu": 1.0,
            "states": [
                {"lambda": 0.5, "beta": 1.0,
                 "sojourn": {"family": "gamma", "shape": 300.0, "rate": 300.0}},
                {"lambda": 2.0, "beta": 1.0,
                 "sojourn": {"family": "exponential", "rate": 1.0}},
            ],
            "routing": [[0.0, 1.0], [1.0, 0.0]],
        }
        path = tmp_path / "peaked.yaml"
        path.write_text(yaml.safe_dump(document))
        code, out, err = run(capsys, "validate", "--model", str(path), "--order", "20")
        assert code == 0, out + err
        assert "gamma-product-formula" in out
        assert "overall: PASS" in out

    def test_applicable_checks_listed(self, capsys):
        # one identity check, on every model
        for model in SHIPPED:
            code, out, _ = run(capsys, "validate", "--model", model)
            assert code == 0
            assert "rate-conservation" in out
            assert "forward-relation" not in out and "markovian-identity" not in out
        code, out, _ = run(capsys, "validate", "--model", K3_EXP)
        # the stationary vectors copy the Palm ones here: no check compares them
        assert "exponential-palm-match" not in out
        code, out, _ = run(capsys, "validate", "--model", K2_GAMMA)
        assert code == 0
        assert "two-state-closed-form" in out
        assert "gamma-product-formula" in out
        code, out, _ = run(capsys, "validate", "--model", K2_EXP)
        assert code == 0
        assert "kummer-sequence" in out

    def test_every_verdict_has_a_number(self, capsys, tmp_path):
        out_path = tmp_path / "validate.json"
        code, _, _ = run(capsys, "validate", "--model", K2_GAMMA, "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["verdicts"]
        for verdict in payload["verdicts"]:
            assert isinstance(verdict["residual"], float)
            assert isinstance(verdict["tolerance"], float)

    @pytest.mark.parametrize("model", SHIPPED, ids=lambda path: Path(path).name)
    def test_library_checks_match_the_report(self, capsys, tmp_path, model):
        out_path = tmp_path / "validate.json"
        run(capsys, "validate", "--model", model, "--order", "6", "--out", str(out_path))
        reported = json.loads(out_path.read_text())["verdicts"]
        environment = load_model(model)
        table = compute_moment_table(environment, n_max=6)
        assert [v.to_dict() for v in structural_checks(environment, table)] == reported

    def test_out_reports_the_tolerances_the_verb_reads(self, capsys, tmp_path):
        # validate reads the fixed tol_* gates and compare only z_max; neither echoes the other's
        out_path = tmp_path / "validate.json"
        run(capsys, "validate", "--model", K3_MIXED, "--out", str(out_path))
        config = json.loads(out_path.read_text())["config"]
        assert config["tolerances"] == {
            "tol_identity": 1e-9, "tol_closedform": 1e-8, "tol_kummer": 1e-9,
            "tol_gamma": 1e-10, "tol_solve": 1e-10,
        }
        out_path = tmp_path / "compare.json"
        run(capsys, "compare", "--model", IDENTICAL, "--order", "1", "--reps", "2",
            "--warmup", "5", "--horizon", "50", "--z-max", "4", "--out", str(out_path))
        config = json.loads(out_path.read_text())["config"]
        assert config["z_max"] == 4.0
        assert not any(key.startswith("tol") for key in config)

    def test_closed_form_evaluated_once(self, capsys, monkeypatch):
        calls = []
        original = closedform.shifted_palm_moments
        monkeypatch.setattr(
            closedform, "shifted_palm_moments", lambda *args: calls.append(args) or original(*args)
        )
        for model in (K2_EXP, K2_GAMMA):
            run(capsys, "validate", "--model", model, "--order", "20")
        assert len(calls) == 2

    def test_nan_residual_prints_a_dash_and_fails(self, capsys, monkeypatch, tmp_path):
        # no check of a valid model reads NaN: stand in one that does
        monkeypatch.setattr(mminfenv.cli, "structural_checks",
                            lambda *args: [CheckVerdict("rate-conservation", float("nan"), 1e-9)])
        out_path = tmp_path / "validate.json"
        code, out, _ = run(capsys, "validate", "--model", K3_EXP, "--out", str(out_path))
        assert code == 1
        assert out.splitlines()[-2:] == ["rate-conservation  -         1e-09      FAIL", "overall: FAIL"]
        assert json.loads(out_path.read_text())["verdicts"][0]["residual"] is None


@pytest.mark.parametrize("verb, flag", [("compare", "--z-max")])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_tolerance_out_of_range_exits_2(capsys, verb, flag, value):
    # a compare that got past its flags would simulate: keep that run short
    code, out, err = run(capsys, verb, "--model", IDENTICAL, "--order", "2",
                         "--reps", "2", "--warmup", "5", "--horizon", "50", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"input error: {flag} must be finite and nonnegative, got {float(value)}\n"


class TestSimulate:
    def test_deterministic_output(self, capsys, tmp_path):
        args = ["simulate", "--model", IDENTICAL, "--seed", "777", "--reps", "3",
                "--warmup", "10", "--horizon", "160", "--order", "2"]
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        code_a, text_a, _ = run(capsys, *args, "--out", str(out_a))
        code_b, text_b, _ = run(capsys, *args, "--out", str(out_b))
        assert code_a == code_b == 0
        assert text_a == text_b
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_estimate_near_poisson_mean(self, capsys):
        code, out, _ = run(capsys, "simulate", "--model", IDENTICAL, "--seed", "5",
                           "--reps", "6", "--warmup", "20", "--horizon", "620",
                           "--order", "1")
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line and line[0].isdigit()]
        estimate, se = float(rows[1][1]), float(rows[1][2])
        assert abs(estimate - 2.0) <= 3.0 * se

    def test_single_replication_exits_2(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", IDENTICAL, "--reps", "1",
                           "--warmup", "5", "--horizon", "50")
        assert code == 2
        assert "input error" in err and "replication" in err

    @pytest.mark.parametrize("verb", ["simulate", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (["--warmup", "-5"], "warmup"),
        (["--horizon", "10", "--warmup", "20"], "exceed warmup"),
        (["--reps", "1"], "replication"),
        (["--seed", "-3"], "64 bits"),
        (["--seed", str(2**64)], "64 bits"),
        # the samples are one mean cycle (3.66) apart: one fits in (5, 10)
        (["--warmup", "5", "--horizon", "10"], "fewer than 2 samples"),
    ])
    def test_flag_out_of_range_exits_2(self, capsys, verb, flags, message):
        code, out, err = run(capsys, verb, "--model", IDENTICAL, "--reps", "2", *flags)
        assert code == 2
        assert out == ""
        assert "input error" in err and message in err

    @pytest.mark.parametrize("verb", ["simulate", "compare"])
    def test_horizon_beyond_memory_exits_2(self, capsys, verb):
        # 2e14 sample times a mean cycle (5.06) apart: 1.4 PiB, more than the
        # address space, so the request fails without touching memory; from
        # 1e19 on numpy cannot even represent the array's length
        for horizon in ["1e15", "1e19", "1e300"]:
            code, out, err = run(capsys, verb, "--model", K3_MIXED, "--horizon", horizon, "--reps", "2")
            assert (code, out) == (2, ""), horizon
            assert err.startswith(f"input error: horizon {float(horizon)} ")
            assert err.count("\n") == 1 and err.endswith("shorten the horizon\n")

    @pytest.mark.parametrize("verb", ["simulate", "compare"])
    def test_non_finite_estimate_exits_3(self, capsys, monkeypatch, verb):
        # falling factorials of counts stay finite: stand in replications that are not
        monkeypatch.setattr(mminfenv.sim, "_falling_factorial_means", lambda counts, n_est: np.full(n_est + 1, np.nan))
        code, out, err = run(capsys, verb, "--model", IDENTICAL, "--order", "1", *SHORT_SIMULATION)
        assert (code, out) == (3, "")
        assert err == "estimation error: estimates or standard errors are not finite\n"

    def test_record_contains_seeds_and_config(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, _, _ = run(capsys, "simulate", "--model", IDENTICAL, "--seed", "99",
                         "--reps", "3", "--warmup", "10", "--horizon", "160",
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        config, record = payload["config"], payload["simulation"]
        assert (config["seed"], config["replications"], config["horizon"]) == (99, 3, 160.0)
        assert len(record["estimates"]) == len(record["standard_errors"])


class TestCompare:
    def test_identical_state_both_weightings_consistent(self, capsys):
        code, out, _ = run(capsys, "compare", "--model", IDENTICAL, "--order", "2",
                           "--seed", "3", "--reps", "32", "--warmup", "20",
                           "--horizon", "520")
        assert code == 0
        assert "consistent weighting(s): embedded, occupancy" in out

    def test_mixed_model_occupancy_consistent(self, capsys):
        code, out, _ = run(capsys, "compare", "--model", K3_MIXED, "--order", "2",
                           "--seed", "3", "--reps", "8", "--warmup", "80",
                           "--horizon", "2080")
        assert code == 0
        assert "occupancy" in out.splitlines()[-1]

    def test_inconsistent_occupancy_fails_even_when_embedded_is_consistent(self, capsys, monkeypatch):
        # the simulation samples at fixed times, so only the occupancy
        # weighting decides; scaled occupancy moments must fail while the
        # embedded ones, unchanged, stay consistent
        def scaled_occupancy(*args, **kwargs):
            table = compute_moment_table(*args, **kwargs)
            table.aggregated["occupancy"] = table.aggregated["occupancy"] * 1.5
            return table

        monkeypatch.setattr(mminfenv.cli, "compute_moment_table", scaled_occupancy)
        code, out, _ = run(capsys, "compare", "--model", IDENTICAL, "--order", "2",
                           "--seed", "3", "--reps", "32", "--warmup", "20",
                           "--horizon", "520")
        assert code == 1
        assert "consistent weighting(s): embedded" in out
        assert "occupancy weighting is not consistent" in out.splitlines()[-1]

    def test_order_above_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "--model", IDENTICAL, "--order", "7")
        assert code == 2
        assert "at most 6" in err


class TestOrderCap:
    def test_moments_order_beyond_precision_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "moments", "--model", IDENTICAL, "--order", "25")
        assert code == 2
        assert "extended precision" in err

    def test_negative_order_exits_2(self, capsys):
        code, _, err = run(capsys, "moments", "--model", IDENTICAL, "--order", "-2")
        assert code == 2
        assert "nonnegative" in err

    @pytest.mark.parametrize("verb", ["simulate", "compare"])
    @pytest.mark.parametrize("order", ["0", "-1", "7"])
    def test_simulation_order_out_of_range_exits_2(self, capsys, verb, order):
        code, out, err = run(capsys, verb, "--model", IDENTICAL, "--order", order)
        assert code == 2
        assert out == ""
        assert err == f"input error: {verb} needs --order from 1 to at most 6 (simulation cap), got {order}\n"


# every run setting a report may state, under each name it has carried
SETTING_NAMES = {
    "order", "n_max", "n_est", "orders", "weighting", "tolerances", "z_max", "seed", "master_seed",
    "replications", "warmup", "horizon", "sampling_interval", "config", *TOLERANCES,
}


def mapping_keys(value) -> set:
    """Every key of every mapping nested in a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*(mapping_keys(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(mapping_keys(v) for v in value))
    return set()


@pytest.mark.parametrize("argv", [
    ["moments", "--model", K3_MIXED],
    ["validate", "--model", K2_GAMMA],
    ["simulate", "--model", IDENTICAL, "--order", "1", *SHORT_SIMULATION],
    ["compare", "--model", IDENTICAL, "--order", "1", *SHORT_SIMULATION],
], ids=lambda argv: argv[0])
def test_out_states_each_setting_once(capsys, tmp_path, argv):
    # a setting lives in the top-level config alone, resolved: no None;
    # a verdict's ``tolerance`` is the gate of that verdict, a result
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    config = payload.pop("config")
    assert set(config) <= SETTING_NAMES
    assert None not in config.values()
    assert not mapping_keys(payload) & SETTING_NAMES


@pytest.mark.parametrize("verb", ["simulate", "compare"])
def test_out_states_the_sampling_interval_used(capsys, tmp_path, verb):
    out_path = tmp_path / "report.json"
    cycle = load_model(IDENTICAL).statics.cycle_length
    run(capsys, verb, "--model", IDENTICAL, "--order", "1", *SHORT_SIMULATION, "--out", str(out_path))
    assert json.loads(out_path.read_text())["config"]["sampling_interval"] == cycle


# each flag dropped from the CLI, with the verbs that had it
REMOVED_FLAGS = [
    ("validate", "--tol-palm-match"),
    *(("validate", f"--tol-{gate}") for gate in ("identity", "closedform", "kummer", "gamma", "solve")),
    ("simulate", "--interval"),
    ("compare", "--interval"),
]


@pytest.mark.parametrize("verb, flag", REMOVED_FLAGS)
def test_removed_flag_exits_2(capsys, verb, flag):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--model", IDENTICAL, flag, "1e-12"])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


def run_python(*args, check=True, cwd=None):
    """Run a fresh interpreter on the package source tree."""
    source_root = str(Path(mminfenv.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=check,
        env={**os.environ, "PYTHONPATH": source_root}, cwd=cwd,
    )


@pytest.mark.parametrize("demo", sorted(ROOT.glob("demos/*.py")), ids=lambda path: path.name)
def test_demo_runs(demo):
    result = run_python(str(demo), check=False, cwd=ROOT)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("package", ["scipy", "mpmath"])
def test_cli_import_loads_no_scipy(package):
    # scipy and mpmath serve only the test suite; the package must not pay
    # for them at startup
    code = f"import sys, mminfenv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    assert run_python("-c", code).stdout.strip() == "[]"


# modules that cost start-up time and that only some verbs run
LAZY_MODULES = ["json", "mminfenv.closedform", "mminfenv.sim", "numpy.random"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(["moments"], [], id="moments"),
        pytest.param(["validate"], ["mminfenv.closedform"], id="validate"),
        pytest.param(["simulate", "--order", "1", *SHORT_SIMULATION], ["mminfenv.sim", "numpy.random"], id="simulate"),
    ],
)
def test_a_verb_imports_only_the_code_it_runs(argv, loaded):
    # a fresh interpreter, so that nothing the suite imported counts
    code = (
        "import sys, mminfenv.cli\n"
        f"code = mminfenv.cli.main({[*argv, '--model', K3_MIXED]!r})\n"
        f"print(code, [m for m in {LAZY_MODULES!r} if m in sys.modules])"
    )
    assert run_python("-c", code).stdout.splitlines()[-1] == f"0 {loaded}"


def test_lazy_names_resolve_in_a_fresh_interpreter():
    # every exported name and every submodule but the CLI is an attribute
    # of the package, the lazy ones included, and a star import binds them
    code = (
        "import pkgutil, mminfenv\n"
        "modules = [info.name for info in pkgutil.iter_modules(mminfenv.__path__) if info.name != 'cli']\n"
        "print([name for name in mminfenv.__all__ + modules if not hasattr(mminfenv, name)],"
        " hasattr(mminfenv, 'no_such_name'))"
    )
    assert run_python("-c", code).stdout.strip() == "[] False"
    code = (
        "from mminfenv import *\n"
        "import mminfenv\n"
        "print([name for name in mminfenv.__all__ if name not in globals()],"
        " kummer_reference.__module__, simulate_queue.__module__)"
    )
    assert run_python("-c", code).stdout.strip() == "[] mminfenv.closedform mminfenv.sim"


def test_library_checks_load_no_cli():
    # checking a moment table is library work: it must not import the CLI
    code = "import sys, mminfenv; mminfenv.structural_checks; print('mminfenv.cli' in sys.modules)"
    assert run_python("-c", code).stdout.strip() == "False"


def test_module_invocation_runs_the_verb(tmp_path):
    out_path = tmp_path / "report.json"
    result = run_python("-m", "mminfenv.cli", "moments", "--model", K2_EXP,
                        "--order", "3", "--out", str(out_path))
    assert "moments of the customer count (orders 0..3)" in result.stdout
    assert len([line for line in result.stdout.splitlines() if line[:1].isdigit()]) == 4
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "moments"
    assert len(payload["table"]["factorial"]["occupancy"]) == 4

    document = yaml.safe_load(open(IDENTICAL))
    document["routing"][0][0] = 0.5
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(document))
    result = run_python("-m", "mminfenv.cli", "moments", "--model", str(bad), check=False)
    assert result.returncode == 2
    assert "input error" in result.stderr


def test_main_is_reentrant_with_its_shared_parser(capsys, tmp_path):
    # main parses with one parser per process: a usage error or a flag given
    # to one call must leave nothing behind for the next
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--model", K2_GAMMA, "--no-such-flag"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    short = tmp_path / "a.json"
    assert run(capsys, "validate", "--model", K2_GAMMA, "--order", "3", "--out", str(short))[0] == 0
    assert json.loads(short.read_text())["config"]["order"] == 3
    in_process = tmp_path / "b.json"
    code, out, err = run(capsys, "validate", "--model", K2_GAMMA, "--out", str(in_process))

    fresh = tmp_path / "c.json"
    result = run_python("-m", "mminfenv.cli", "validate", "--model", K2_GAMMA,
                        "--out", str(fresh), check=False)
    assert (code, out, err) == (result.returncode, result.stdout, result.stderr)
    assert in_process.read_bytes() == fresh.read_bytes()


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("verb", ["moments", "simulate", "validate", "compare"])
def test_help_exits_0_on_every_call(capsys, verb):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert f"usage: mminfenv {verb}" in texts[0]
