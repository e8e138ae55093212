import dataclasses
from pathlib import Path

import pytest

from mminfenv import (
    EnvironmentModel,
    Exponential,
    Gamma,
    assemble_moment_table,
    chain_statics,
    load_model,
    moments,
    palm_moment_vectors,
    stationary_moment_vectors,
    structural_checks,
)

from conftest import MODELS_DIR

SHIPPED = sorted(MODELS_DIR.glob("*.yaml"))

# the verdicts that read the Palm or stationary vectors of the table (the
# two-state closed form only up to order 8)
READS_VECTORS = {"rate-conservation", "two-state-closed-form"}


def verdicts_of(model, statics, palm):
    """The verdicts of the table that the pipeline builds from these Palm vectors."""
    stationary = stationary_moment_vectors(model, statics, palm)
    table = assemble_moment_table(model, statics, palm, stationary)
    return {v.name: v for v in structural_checks(model, table)}


def perturbed_verdicts(model, order):
    """The verdicts after a relative error of 1e-6 in the order-n Palm vector, all passing before it.

    The error is carried into the stationary vectors; the table has order 20.
    """
    statics = chain_statics(model)
    palm = palm_moment_vectors(model, statics, 20)
    assert all(v.passed for v in verdicts_of(model, statics, palm).values())
    vectors = list(palm.vectors)
    vectors[order] = vectors[order] * (1.0 + 1e-6)
    return verdicts_of(model, statics, dataclasses.replace(palm, vectors=tuple(vectors)))


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
    statics = chain_statics(model)
    palm = palm_moment_vectors(model, statics, 20)
    original = moments._weights
    monkeypatch.setattr(
        moments, "_weights", lambda sojourns, service, n_max, residual=False: original(sojourns, service, n_max)
    )
    verdicts = verdicts_of(model, statics, palm)
    assert not verdicts["rate-conservation"].passed, verdicts["rate-conservation"].residual
    assert verdicts["solve-backsubstitution"].passed
