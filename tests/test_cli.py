import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import mminfenv
from mminfenv import closedform, compute_moment_table, load_model
from mminfenv.cli import main, structural_checks

from conftest import MODELS_DIR

ROOT = MODELS_DIR.parent
SHIPPED = sorted(str(path) for path in MODELS_DIR.glob("*.yaml"))

IDENTICAL = str(MODELS_DIR / "identical.yaml")
K3_MIXED = str(MODELS_DIR / "k3_mixed.yaml")
K3_EXP = str(MODELS_DIR / "k3_exponential.yaml")
K2_GAMMA = str(MODELS_DIR / "k2_gamma_exp.yaml")
K2_EXP = str(MODELS_DIR / "k2_exponential.yaml")


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

    def test_out_report_is_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "moments", "--model", K3_MIXED, "--order", "3",
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["command"] == "moments"
        assert payload["model"]["schema_version"] == 1
        assert len(payload["table"]["factorial"]["occupancy"]) == 4

    def test_invalid_model_exits_2(self, capsys, tmp_path):
        document = yaml.safe_load(open(IDENTICAL))
        document["routing"][0][0] = 0.5
        document["routing"][0][1] = 0.2
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(document))
        code, _, err = run(capsys, "moments", "--model", str(bad))
        assert code == 2
        assert "diagonal" in err

    def test_unknown_field_exits_2(self, capsys, tmp_path):
        document = yaml.safe_load(open(IDENTICAL))
        document["extra"] = 1
        bad = tmp_path / "extra.yaml"
        bad.write_text(yaml.safe_dump(document))
        code, _, err = run(capsys, "moments", "--model", str(bad))
        assert code == 2
        assert "unknown field" in err

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


class TestValidate:
    @pytest.mark.parametrize("model", [K3_EXP, K2_GAMMA, K2_EXP, K3_MIXED, IDENTICAL])
    def test_shipped_models_pass(self, capsys, model):
        code, out, _ = run(capsys, "validate", "--model", model, "--order", "6")
        assert code == 0, out
        assert "overall: PASS" in out

    def test_long_deterministic_sojourn_passes_at_order_20(self, capsys, tmp_path):
        # the forward relation at order 20 needs tau = exp(-700), not 1/tau
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

    def test_applicable_checks_listed(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", K3_EXP)
        assert code == 0
        assert "markovian-identity" in out
        assert "exponential-palm-match" in out
        assert "forward-relation" in out
        code, out, _ = run(capsys, "validate", "--model", K2_GAMMA)
        assert code == 0
        assert "two-state-closed-form" in out
        assert "gamma-product-formula" in out
        assert "markovian-identity" not in out
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

    def test_closed_form_evaluated_once(self, capsys, monkeypatch):
        calls = []
        original = closedform.shifted_palm_moments
        monkeypatch.setattr(
            closedform, "shifted_palm_moments", lambda *args: calls.append(args) or original(*args)
        )
        for model in (K2_EXP, K2_GAMMA):
            run(capsys, "validate", "--model", model, "--order", "20")
        assert len(calls) == 2

    def test_tolerance_flags_can_force_failure(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", K2_GAMMA,
                           "--tol-closedform", "1e-30")
        assert code == 1
        assert "FAIL" in out


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

    def test_single_replication_exits_3(self, capsys):
        code, _, err = run(capsys, "simulate", "--model", IDENTICAL, "--reps", "1",
                           "--warmup", "5", "--horizon", "50")
        assert code == 3
        assert "replication" in err

    def test_record_contains_seeds_and_config(self, capsys, tmp_path):
        out_path = tmp_path / "sim.json"
        code, _, _ = run(capsys, "simulate", "--model", IDENTICAL, "--seed", "99",
                         "--reps", "3", "--warmup", "10", "--horizon", "160",
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        record = payload["simulation"]
        assert record["master_seed"] == 99
        assert record["replications"] == 3
        assert record["config"]["horizon"] == 160.0
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


def test_cli_import_loads_no_scipy():
    # scipy serves only the test suite; the package must not pay for it at startup
    code = "import sys, mminfenv.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_python("-c", code).stdout.strip() == "[]"


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
