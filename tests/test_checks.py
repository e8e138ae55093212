import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mminfenv import (
    EnvironmentModel,
    Exponential,
    Gamma,
    SimulationConfig,
    assemble_moment_table,
    compute_moment_table,
    estimate_factorial_moments,
    load_model,
    moments,
    palm_moment_vectors,
    stationary_moment_vectors,
    structural_checks,
)
from mminfenv.checks import simulation_checks
from mminfenv.cli import main

from conftest import MODELS_DIR

SHIPPED = sorted(MODELS_DIR.glob("*.yaml"))

# the verdicts that read the Palm or stationary vectors of the table (the
# two-state closed form only up to order 8)
READS_VECTORS = {"rate-conservation", "two-state-closed-form"}


def verdicts_of(model, palm):
    """The verdicts of the table that the pipeline builds from these Palm vectors."""
    stationary = stationary_moment_vectors(model, palm)
    table = assemble_moment_table(model, palm, stationary)
    return {v.name: v for v in structural_checks(model, table)}


def perturbed_verdicts(model, order):
    """The verdicts after a relative error of 1e-6 in the order-n Palm vector, all passing before it.

    The error is carried into the stationary vectors; the table has order 20.
    """
    palm = palm_moment_vectors(model, 20)
    assert all(v.passed for v in verdicts_of(model, palm).values())
    vectors = list(palm.vectors)
    vectors[order] = vectors[order] * (1.0 + 1e-6)
    return verdicts_of(model, dataclasses.replace(palm, vectors=tuple(vectors)))


def light_two_state_model(lam):
    """A Gamma state and an exponential one, arrivals lam and lam / 2: order-n moments scale as lam^n."""
    return EnvironmentModel(
        arrival_rates=[lam, lam / 2.0],
        speeds=[1.0, 0.6],
        sojourns=(Gamma(2.0, 1.5), Exponential(0.8)),
        mu=1.2,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: Path(path).stem)
def test_perturbed_order_2_fails_every_verdict_that_reads_it(path):
    # every check that reads the vectors must fail, and the others pass
    verdicts = perturbed_verdicts(load_model(path), 2)
    assert "rate-conservation" in verdicts
    for name, verdict in verdicts.items():
        assert verdict.passed == (name not in READS_VECTORS), (name, verdict.residual)


@pytest.mark.parametrize("lam", [1.0, 1e-3])
def test_perturbed_closed_form_depth_fails_at_any_load(lam):
    # at lam = 1e-3 the order-8 moments are ~1e-24: the closed-form gap
    # must read the relative error, not an absolute one below 1e-12
    verdicts = perturbed_verdicts(light_two_state_model(lam), 8)
    assert verdicts["two-state-closed-form"].residual == pytest.approx(1e-6, rel=1e-3)
    for name, verdict in verdicts.items():
        assert verdict.passed == (name not in READS_VECTORS), (name, verdict.residual)


@pytest.mark.parametrize("order", [10, 20])
@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: Path(path).stem)
def test_perturbed_high_order_fails_rate_conservation(path, order):
    # above the closed form's depth only rate conservation reads the
    # vectors, and its sensitivity must not decay with the order
    verdicts = perturbed_verdicts(load_model(path), order)
    conservation = verdicts.pop("rate-conservation")
    assert not conservation.passed, conservation.residual
    assert all(v.passed for v in verdicts.values()), verdicts


@pytest.mark.parametrize("name", ["k2_gamma_exp", "k3_mixed"])
def test_stationary_update_with_palm_weights_fails_rate_conservation(name, monkeypatch):
    # the stationary update must read the residual weights: built with the
    # Palm weights it is wrong wherever a sojourn is not exponential, and
    # only rate conservation ties it to the Palm solve.  (On identical.yaml
    # every table of weights that sums to one gives the exact rho^n, so
    # that fault changes no number there.)
    model = load_model(MODELS_DIR / f"{name}.yaml")
    palm = palm_moment_vectors(model, 20)
    original = moments._weights
    monkeypatch.setattr(
        moments, "_weights", lambda sojourns, service, n_max, residual=False: original(sojourns, service, n_max)
    )
    verdicts = verdicts_of(model, palm)
    assert not verdicts["rate-conservation"].passed, verdicts["rate-conservation"].residual
    assert verdicts["solve-backsubstitution"].passed


# a short simulation, and the compare flags that give the same one
SHORT_RUN = {"warmup": 5.0, "horizon": 55.0, "replications": 2, "master_seed": 7}
SHORT_FLAGS = ["--warmup", "5", "--horizon", "55", "--reps", "2", "--seed", "7"]


def short_estimate(model, n_est):
    return estimate_factorial_moments(model, SimulationConfig(**SHORT_RUN, n_est=n_est))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_condition_fails_the_solve_verdict(bad):
    # a finite residual with a non-finite condition estimate at any order
    # must not pass: the verdict reads inf, reported as a null residual
    model = load_model(MODELS_DIR / "k3_mixed.yaml")
    table = compute_moment_table(model, n_max=4)
    condition = table.bn_condition.copy()
    condition[3] = bad
    verdicts = {v.name: v for v in structural_checks(model, dataclasses.replace(table, bn_condition=condition))}
    verdict = verdicts["solve-backsubstitution"]
    assert verdict.residual == np.inf and not verdict.passed
    record = json.loads(json.dumps(verdict.to_dict()))
    assert record == {"name": "solve-backsubstitution", "residual": None, "tolerance": 1e-10, "passed": False}


def test_zero_standard_error_reads_zero_or_inf():
    # order 1 agrees with the occupancy moment within 1e-12, order 2 does
    # not, both with no standard error; order 3 keeps a real one
    model = load_model(MODELS_DIR / "k3_mixed.yaml")
    table = compute_moment_table(model, n_max=3)
    estimate = short_estimate(model, 3)
    occupancy = table.aggregated["occupancy"]
    estimates = estimate.estimates.copy()
    estimates[1] = occupancy[1] + 5e-13
    estimates[2] = occupancy[2] * (1.0 + 1e-6)
    errors = estimate.standard_errors.copy()
    errors[1:3] = 0.0
    estimate = dataclasses.replace(estimate, estimates=estimates, standard_errors=errors)
    verdicts, z_scores = simulation_checks(table, estimate)
    z_3 = abs(occupancy[3] - estimates[3]) / errors[3]
    assert z_scores["occupancy"].tolist() == [0.0, np.inf, z_3]
    # the embedded moments differ from the estimate at both orders
    assert z_scores["embedded"][:2].tolist() == [np.inf, np.inf]
    assert [v.residual for v in verdicts] == [np.inf, np.inf]
    assert not any(v.passed for v in verdicts)


def test_verdicts_follow_the_table_weightings():
    # one verdict per weighting, in the table's order, each the largest z
    # over the estimated orders, which may stop below the table's
    model = load_model(MODELS_DIR / "k3_mixed.yaml")
    table = compute_moment_table(model, n_max=6)
    verdicts, z_scores = simulation_checks(table, short_estimate(model, 3), z_max=1.5)
    assert list(z_scores) == list(table.aggregated) == ["embedded", "occupancy"]
    assert [v.name for v in verdicts] == ["weighting-embedded-consistent", "weighting-occupancy-consistent"]
    for verdict, z in zip(verdicts, z_scores.values()):
        assert z.shape == (3,)
        assert verdict.residual == np.max(z)
        assert verdict.tolerance == 1.5
    assert [v.tolerance for v in simulation_checks(table, short_estimate(model, 1))[0]] == [3.0, 3.0]


@pytest.mark.parametrize("path", SHIPPED, ids=lambda path: Path(path).stem)
def test_compare_reports_the_library_verdicts(path, tmp_path, capsys):
    out_path = tmp_path / "compare.json"
    main(["compare", "--model", str(path), "--order", "2", *SHORT_FLAGS, "--out", str(out_path)])
    capsys.readouterr()
    model = load_model(path)
    verdicts, _ = simulation_checks(compute_moment_table(model, n_max=2), short_estimate(model, 2))
    assert [v.to_dict() for v in verdicts] == json.loads(out_path.read_text())["verdicts"]
