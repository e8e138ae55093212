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
    compute_moment_table,
    estimate_factorial_moments,
    kummer_reference,
    load_model,
)
from mminfenv.checks import _relative_gap as max_relative_gap, simulation_checks, structural_checks
from mminfenv.closedform import gamma_sojourn_reference, shifted_palm_moments
from mminfenv.cli import main
from mminfenv.moments import _second_kind
from mminfenv.sim import _replication_estimate, _sampling_grid, _Workspace

from conftest import (
    MODELS_DIR,
    identical_state_model,
    kummer_parameters,
    random_exponential_model,
    random_mixed_model,
    random_two_state_model,
    shrinking_replication_order,
    stirling_sums,
    stirling_triangle,
    two_state_model,
)


def worse(worst: float, gap: float) -> float:
    """The larger of two gaps, NaN if either is: a NaN moment must fail its criterion."""
    return float(np.maximum(worst, gap))


def check_residuals(model, table, names) -> dict:
    """The residuals of the named ``validate`` verdicts on a table; each name must be reported."""
    residuals = {v.name: v.residual for v in structural_checks(model, table)}
    missing = sorted(set(names) - set(residuals))
    assert not missing, f"validate reports no {missing}"
    return residuals


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
    # exponential sojourns: rate conservation is the Markov generator
    # identity, read off the validate verdict; Palm and stationary vectors
    # must then be equal
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst_identity = 0.0
    worst_equality = 0.0
    for index in range(20):
        k_count = (2, 3, 5)[index % 3]
        model = random_exponential_model(k_count, rng)
        table = compute_moment_table(model, n_max=6)
        residuals = check_residuals(model, table, ["rate-conservation"])
        worst_identity = worse(worst_identity, residuals["rate-conservation"])
        gap = float(np.max([np.max(np.abs(a - b)) for a, b in zip(table.palm, table.stationary)]))
        worst_equality = worse(worst_equality, gap)
    elapsed = time.perf_counter() - start
    report(
        "markovian-identity",
        worst_identity <= 1e-9 and worst_equality <= 1e-12 and elapsed < 5.0,
        f"identity residual {worst_identity:.3e} (tol 1e-9), palm/stationary gap "
        f"{worst_equality:.3e} (tol 1e-12), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_3_two_state_closed_form():
    # the closed-form and Kummer gaps are the validate verdicts; the load
    # shift of the Kummer sequence into the general recursion is done here
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    families = ("gamma", "deterministic", "hyperexponential")
    worst_closed = 0.0
    for index in range(20):
        model = random_two_state_model(rng, families[index % 3])
        residuals = check_residuals(model, compute_moment_table(model, n_max=8), ["two-state-closed-form"])
        worst_closed = worse(worst_closed, residuals["two-state-closed-form"])
    worst_kummer = 0.0
    for _ in range(8):
        model = random_two_state_model(rng, "exponential")
        table = compute_moment_table(model, n_max=8)
        # closed form against the Kummer sequence
        residuals = check_residuals(model, table, ["kummer-sequence"])
        worst_kummer = worse(worst_kummer, residuals["kummer-sequence"])
        # general recursion against the Kummer sequence, through the load shift
        kummer_shifted = kummer_reference(**kummer_parameters(model), n_max=8)
        computed_1 = np.array([v[0] for v in table.palm])
        rho_1 = model.offered_loads[0]
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
    statics = model.statics
    cycle = statics.cycle_length
    warmup = 80.0
    config = SimulationConfig(
        warmup=warmup,
        horizon=warmup + 2000.0 * cycle,
        replications=32,
        master_seed=20260810,
        n_est=3,
    )
    assert config.horizon - config.warmup >= 2000.0 * cycle
    table = compute_moment_table(model, n_max=3)
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
    # the raw moments against an independent reference: mpmath's
    # second-kind triangle, summed over the factorial moments at 40 digits;
    # the library's float triangle holds every entry exactly (all below 2^53)
    start = time.perf_counter()
    exact = _second_kind().tolist() == [row + [0] * (20 - l) for l, row in enumerate(stirling_triangle(2, 20))]
    reference = stirling_triangle(2, 8)
    worst = 0.0
    for model in (k3_mixed_model, identical_state_model(rho=2.0)):
        table = compute_moment_table(model, n_max=8)
        for weighting in ("embedded", "occupancy"):
            forward = stirling_sums(reference, table.aggregated[weighting])
            worst = worse(worst, max_relative_gap(table.raw[weighting], forward))
    elapsed = time.perf_counter() - start
    report(
        "stirling-integrity",
        exact and worst <= 1e-10 and elapsed < 1.0,
        f"triangle {'exact' if exact else 'BROKEN'} through order 20, raw-moment gap "
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
    # the validate verdict: the largest solve residual, inf where an
    # order's condition estimate is not finite
    worst_residual = 0.0
    for model in models:
        residuals = check_residuals(model, compute_moment_table(model, n_max=10), ["solve-backsubstitution"])
        worst_residual = worse(worst_residual, residuals["solve-backsubstitution"])
    elapsed = time.perf_counter() - start
    report(
        "invertibility-observability",
        worst_residual <= 1e-10 and elapsed < 1.0,
        f"max solve residual {worst_residual:.3e} (tol 1e-10; inf if a condition is not finite), "
        f"{elapsed:.2f}s (limit 1s)",
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
    statics = model.statics
    config = SimulationConfig(
        warmup=10.0, horizon=310.0, replications=4, master_seed=424242, n_est=3
    )
    sequential = estimate_factorial_moments(model, config)
    # the run's own config and grid, one mean cycle apart
    grid = _sampling_grid(sequential.config, statics.cycle_length)
    # one shared workspace, a replication of more customers before one of fewer
    order = shrinking_replication_order(model, sequential.config)
    workspace = _Workspace(model)
    out_of_order = {
        rep: _replication_estimate(model, sequential.config, grid, rep, workspace)[0]
        for rep in order
    }
    reduced = np.stack([out_of_order[rep] for rep in range(4)]).mean(axis=0)
    schedule_free = bool(np.array_equal(reduced, sequential.estimates))

    payload = json.loads(out_a.read_text())
    passed = (
        code_a == code_b == 0
        and text_a == text_b
        and bytes_equal
        and schedule_free
        and payload["config"]["seed"] == 424242
    )
    report(
        "determinism",
        passed,
        f"stdout identical {text_a == text_b}, report bytes identical {bytes_equal}, "
        f"schedule-independent {schedule_free}",
    )
