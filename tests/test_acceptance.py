"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here, not configurable, so a green run means
the package meets its contract end to end.
"""

import json
import math
import time

import numpy as np

from mminfenv import (
    Gamma,
    SimulationConfig,
    StirlingTables,
    chain_statics,
    compute_moment_table,
    estimate_factorial_moments,
    kummer_reference,
    load_model,
    mean_cycle_length,
    offered_loads,
    palm_moment_vectors,
    rate_conservation_residuals,
    stationary_moment_vectors,
)
from mminfenv.checks import _relative_gap as max_relative_gap, simulation_checks
from mminfenv.closedform import gamma_sojourn_reference, palm_moments, shifted_palm_moments
from mminfenv.cli import main
from mminfenv.sim import _replication_estimate, _sampling_grid

from conftest import (
    MODELS_DIR,
    identical_state_model,
    kummer_parameters,
    random_exponential_model,
    random_mixed_model,
    random_two_state_model,
    two_state_model,
)


def worse(worst: float, gap: float) -> float:
    """The larger of two gaps, NaN if either is: a NaN moment must fail its criterion."""
    return float(np.maximum(worst, gap))


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_poisson_reduction():
    # identical rates and speeds: f_N^(n) = (lambda/(beta mu))^n exactly,
    # whatever the sojourn families and routing
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(1001)
    cases = [identical_state_model(rho=2.0), identical_state_model(rho=0.5)]
    for _ in range(4):
        template = random_mixed_model(int(rng.integers(2, 5)), rng)
        lam = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(0.4, 1.0))
        cases.append(
            type(template)(
                arrival_rates=np.full(template.num_states, lam),
                speeds=np.full(template.num_states, beta),
                sojourns=template.sojourns,
                mu=template.mu,
                routing=template.routing,
            )
        )
    for model in cases:
        rho = float(model.arrival_rates[0] / (model.speeds[0] * model.mu))
        table = compute_moment_table(model, n_max=8)
        expected = rho ** np.arange(9)
        for weighting in ("embedded", "occupancy"):
            worst = worse(worst, max_relative_gap(table.aggregated[weighting], expected))
    elapsed = time.perf_counter() - start
    report(
        "poisson-reduction",
        worst <= 1e-9 and elapsed < 1.0,
        f"max rel err {worst:.3e} (tol 1e-9), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_2_markovian_identity():
    # exponential sojourns: rate conservation is the Markov generator identity
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst_identity = 0.0
    worst_equality = 0.0
    for index in range(20):
        k_count = (2, 3, 5)[index % 3]
        model = random_exponential_model(k_count, rng)
        statics = chain_statics(model)
        palm = palm_moment_vectors(model, statics, n_max=6)
        stationary = stationary_moment_vectors(model, statics, palm)
        residuals = rate_conservation_residuals(model, statics, palm, stationary)
        worst_identity = worse(worst_identity, float(np.max(residuals)))
        gap = float(np.max([np.max(np.abs(a - b)) for a, b in zip(palm.vectors, stationary)]))
        worst_equality = worse(worst_equality, gap)
    elapsed = time.perf_counter() - start
    report(
        "markovian-identity",
        worst_identity <= 1e-9 and worst_equality <= 1e-12 and elapsed < 5.0,
        f"identity residual {worst_identity:.3e} (tol 1e-9), palm/stationary gap "
        f"{worst_equality:.3e} (tol 1e-12), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_3_two_state_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    families = ("gamma", "deterministic", "hyperexponential")
    worst_closed = 0.0
    for index in range(20):
        model = random_two_state_model(rng, families[index % 3])
        reference = palm_moments(model, 8)
        general = np.array(palm_moment_vectors(model, n_max=8).vectors).T
        worst_closed = worse(worst_closed, max_relative_gap(general, reference))
    worst_kummer = 0.0
    for _ in range(8):
        model = random_two_state_model(rng, "exponential")
        kummer_shifted = kummer_reference(**kummer_parameters(model), n_max=8)
        # closed form against the Kummer sequence
        shifted_1 = shifted_palm_moments(model, 8)[0]
        worst_kummer = worse(worst_kummer, max_relative_gap(shifted_1, kummer_shifted))
        # general recursion against the Kummer sequence, through the load shift
        general = palm_moment_vectors(model, n_max=8)
        computed_1 = np.array([v[0] for v in general.vectors])
        rho_1 = offered_loads(model)[0]
        from_kummer = np.array(
            [
                sum(
                    math.comb(n, j) * rho_1 ** (n - j) * kummer_shifted[j]
                    for j in range(n + 1)
                )
                for n in range(9)
            ]
        )
        worst_kummer = worse(worst_kummer, max_relative_gap(computed_1, from_kummer))
    elapsed = time.perf_counter() - start
    report(
        "two-state-closed-form",
        worst_closed <= 1e-8 and worst_kummer <= 1e-9 and elapsed < 5.0,
        f"closed-form gap {worst_closed:.3e} (tol 1e-8), kummer gap {worst_kummer:.3e} "
        f"(tol 1e-9), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_4_gamma_reference():
    start = time.perf_counter()
    rng = np.random.default_rng(4004)
    worst = 0.0
    worst_collapse = 0.0
    for shape in (0.5, 1.0, 2.0, 3.0):
        for _ in range(3):
            base = random_two_state_model(rng, "gamma")
            sojourn_1 = Gamma(shape=shape, rate=base.sojourns[0].rate)
            model = two_state_model(base.arrival_rates, base.speeds, (sojourn_1, base.sojourns[1]))
            direct = gamma_sojourn_reference(model, 8)
            product = shifted_palm_moments(model, 8)
            worst = worse(worst, max_relative_gap(direct, product))
            if shape == 1.0:
                kummer = kummer_reference(**kummer_parameters(model), n_max=8)
                worst_collapse = worse(worst_collapse, max_relative_gap(direct[0], kummer))
    elapsed = time.perf_counter() - start
    report(
        "gamma-reference",
        worst <= 1e-10 and worst_collapse <= 1e-10 and elapsed < 1.0,
        f"gamma-form gap {worst:.3e} (tol 1e-10), unit-shape collapse "
        f"{worst_collapse:.3e}, {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_5_simulation_adjudication(k3_mixed_model):
    start = time.perf_counter()
    model = k3_mixed_model
    statics = chain_statics(model)
    cycle = mean_cycle_length(model, statics)
    warmup = 80.0
    config = SimulationConfig(
        warmup=warmup,
        horizon=warmup + 2000.0 * cycle,
        replications=32,
        master_seed=20260810,
        n_est=3,
    )
    assert config.horizon - config.warmup >= 2000.0 * cycle
    table = compute_moment_table(model, n_max=3, statics=statics)
    estimate = estimate_factorial_moments(model, config)
    verdicts = {v.name: v for v in simulation_checks(table, estimate)[0]}
    embedded = verdicts["weighting-embedded-consistent"]
    occupancy = verdicts["weighting-occupancy-consistent"]
    elapsed = time.perf_counter() - start
    consistent = [name for name, v in verdicts.items() if v.passed]
    # the simulation samples at fixed times, so occupancy is the law it
    # observes and the verdict that compare gates on
    report(
        "simulation-adjudication",
        occupancy.passed and elapsed < 180.0,
        f"z embedded {embedded.residual:.2f}, z occupancy {occupancy.residual:.2f} "
        f"(limit {occupancy.tolerance:g}), consistent: {consistent or 'none'}, {elapsed:.1f}s (limit 180s)",
    )


def test_criterion_6_stirling_integrity(k3_mixed_model):
    start = time.perf_counter()
    tables = StirlingTables(20)
    composition = tables.compose()
    exact = all(
        composition[l][m] == (1 if l == m else 0)
        for l in range(21)
        for m in range(l + 1)
    )
    worst = 0.0
    for model in (k3_mixed_model, identical_state_model(rho=2.0)):
        table = compute_moment_table(model, n_max=8)
        small = StirlingTables(8)
        for weighting in ("embedded", "occupancy"):
            back = small.factorial_from_raw(table.raw[weighting])
            worst = worse(worst, max_relative_gap(back, table.aggregated[weighting]))
    elapsed = time.perf_counter() - start
    report(
        "stirling-integrity",
        exact and worst <= 1e-10 and elapsed < 1.0,
        f"integer inverses {'exact' if exact else 'BROKEN'}, round-trip gap "
        f"{worst:.3e} (tol 1e-10), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_7_invertibility_observability(
    k3_mixed_model, k3_exponential_model, k2_gamma_exp_model
):
    start = time.perf_counter()
    models = [
        k3_mixed_model,
        k3_exponential_model,
        k2_gamma_exp_model,
        load_model(MODELS_DIR / "k2_exponential.yaml"),
        load_model(MODELS_DIR / "identical.yaml"),
    ]
    rng = np.random.default_rng(7007)
    models.extend(random_mixed_model(int(rng.integers(2, 6)), rng) for _ in range(10))
    worst_residual = 0.0
    all_finite = True
    for model in models:
        palm = palm_moment_vectors(model, n_max=10)
        worst_residual = worse(worst_residual, float(np.nanmax(palm.solve_residual)))
        all_finite = all_finite and bool(np.all(np.isfinite(palm.condition[1:])))
    elapsed = time.perf_counter() - start
    report(
        "invertibility-observability",
        worst_residual <= 1e-10 and all_finite and elapsed < 1.0,
        f"max solve residual {worst_residual:.3e} (tol 1e-10), conditions "
        f"{'finite' if all_finite else 'NOT finite'}, {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    model_path = str(MODELS_DIR / "identical.yaml")
    args = [
        "simulate", "--model", model_path, "--seed", "424242", "--reps", "4",
        "--warmup", "10", "--horizon", "310", "--order", "3",
    ]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = main(args + ["--out", str(out_a)])
    text_a = capsys.readouterr().out
    code_b = main(args + ["--out", str(out_b)])
    text_b = capsys.readouterr().out
    bytes_equal = out_a.read_bytes() == out_b.read_bytes()

    # schedule independence: replications computed out of order reduce to
    # the same estimate as the sequential run
    model = load_model(model_path)
    statics = chain_statics(model)
    config = SimulationConfig(
        warmup=10.0, horizon=310.0, replications=4, master_seed=424242, n_est=3
    )
    grid = _sampling_grid(config, config.resolved_interval(model, statics))
    sequential = estimate_factorial_moments(model, config)
    out_of_order = {
        rep: _replication_estimate(model, config, statics, grid, rep)[0]
        for rep in (3, 1, 0, 2)
    }
    reduced = np.stack([out_of_order[rep] for rep in range(4)]).mean(axis=0)
    schedule_free = bool(np.array_equal(reduced, sequential.estimates))

    payload = json.loads(out_a.read_text())
    passed = (
        code_a == code_b == 0
        and text_a == text_b
        and bytes_equal
        and schedule_free
        and payload["simulation"]["master_seed"] == 424242
    )
    report(
        "determinism",
        passed,
        f"stdout identical {text_a == text_b}, report bytes identical {bytes_equal}, "
        f"schedule-independent {schedule_free}",
    )
