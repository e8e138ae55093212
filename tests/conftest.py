"""Shared model builders for the test suite."""

from pathlib import Path

import mpmath
import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    EnvironmentModel,
    Exponential,
    Gamma,
    HyperExponential,
    load_model,
    simulate_environment,
)
from mminfenv.sim import replication_rng

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def random_routing(k_count: int, rng: np.random.Generator) -> np.ndarray:
    """Random irreducible row-stochastic matrix with zero diagonal."""
    if k_count == 2:
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    routing = rng.uniform(0.1, 1.0, (k_count, k_count))
    np.fill_diagonal(routing, 0.0)
    return routing / routing.sum(axis=1, keepdims=True)


def random_sojourn(rng: np.random.Generator):
    family = rng.integers(0, 4)
    if family == 0:
        return Exponential(rate=float(rng.uniform(0.5, 2.0)))
    if family == 1:
        return Gamma(shape=float(rng.uniform(0.5, 3.0)), rate=float(rng.uniform(0.5, 2.0)))
    if family == 2:
        return Deterministic(value=float(rng.uniform(0.3, 2.0)))
    probs = rng.uniform(0.2, 1.0, 2)
    probs = probs / probs.sum()
    return HyperExponential(
        probs=tuple(probs), rates=tuple(rng.uniform(0.5, 3.0, 2))
    )


def random_exponential_model(k_count: int, rng: np.random.Generator) -> EnvironmentModel:
    return EnvironmentModel(
        arrival_rates=rng.uniform(0.2, 3.0, k_count),
        speeds=rng.uniform(0.3, 1.0, k_count),
        sojourns=tuple(Exponential(rate=float(r)) for r in rng.uniform(0.5, 2.0, k_count)),
        mu=float(rng.uniform(0.8, 1.5)),
        routing=random_routing(k_count, rng),
    )


def random_mixed_model(k_count: int, rng: np.random.Generator) -> EnvironmentModel:
    return EnvironmentModel(
        arrival_rates=rng.uniform(0.2, 3.0, k_count),
        speeds=rng.uniform(0.3, 1.0, k_count),
        sojourns=tuple(random_sojourn(rng) for _ in range(k_count)),
        mu=float(rng.uniform(0.8, 1.5)),
        routing=random_routing(k_count, rng),
    )


def ring_model(k_count: int, rng: np.random.Generator, mu: float = None) -> EnvironmentModel:
    """All-exponential model on a sparse ring: state k jumps only to k - 1 or k + 1 (mod K).

    Each row of |Q - 1 pi'| then sums to nearly 2, so the deflated Palm
    series is bounded by q_n ~ 2 tau_max, and its grants are longer than
    on dense routing.
    """
    routing = np.zeros((k_count, k_count))
    forward = rng.uniform(0.2, 0.8, k_count)
    states = np.arange(k_count)
    routing[states, (states + 1) % k_count] = forward
    routing[states, (states - 1) % k_count] = 1.0 - forward
    return EnvironmentModel(
        arrival_rates=rng.uniform(0.2, 3.0, k_count),
        speeds=rng.uniform(0.5, 1.0, k_count),
        sojourns=tuple(Exponential(rate=float(r)) for r in rng.uniform(0.5, 2.0, k_count)),
        mu=float(rng.uniform(0.8, 1.5)) if mu is None else mu,
        routing=routing,
    )


def random_two_state_model(rng: np.random.Generator, family: str) -> EnvironmentModel:
    """Random in-scope two-state model: the given family in state 1, an exponential state 2.

    mu is 1, so the drawn speeds are the service rates exactly.
    """
    if family == "gamma":
        sojourn_1 = Gamma(shape=float(rng.uniform(0.5, 3.0)), rate=float(rng.uniform(0.5, 2.0)))
    elif family == "deterministic":
        sojourn_1 = Deterministic(value=float(rng.uniform(0.3, 2.0)))
    elif family == "hyperexponential":
        probs = rng.uniform(0.2, 1.0, 2)
        probs = probs / probs.sum()
        sojourn_1 = HyperExponential(probs=tuple(probs), rates=tuple(rng.uniform(0.5, 3.0, 2)))
    elif family == "exponential":
        sojourn_1 = Exponential(rate=float(rng.uniform(0.5, 2.0)))
    else:
        raise ValueError(family)
    arrival_rates = [float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 3.0))]
    speeds = [float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0))]
    return two_state_model(
        arrival_rates, speeds, (sojourn_1, Exponential(rate=float(rng.uniform(0.5, 2.0))))
    )


def two_state_model(arrival_rates, service_rates, sojourns) -> EnvironmentModel:
    """Two alternating states with the given service rates (at most 1) as speeds, mu = 1."""
    return EnvironmentModel(
        arrival_rates=arrival_rates,
        speeds=service_rates,
        sojourns=tuple(sojourns),
        mu=1.0,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )


def split_state(model: EnvironmentModel, k: int, first, second) -> EnvironmentModel:
    """Split state k in series: it keeps law ``first`` and always jumps to a new state of law ``second``.

    The new state, listed last, has state k's arrival rate and speed and
    leaves as k did.  Where first * second is k's sojourn law, the
    environment's occupancy process is unchanged, and with it the law of
    the customer count.
    """
    k_count = model.num_states
    routing = np.zeros((k_count + 1, k_count + 1))
    routing[:k_count, :k_count] = model.routing
    routing[k_count] = routing[k]
    routing[k] = 0.0
    routing[k, k_count] = 1.0
    sojourns = list(model.sojourns) + [second]
    sojourns[k] = first
    return EnvironmentModel(
        arrival_rates=np.append(model.arrival_rates, model.arrival_rates[k]),
        speeds=np.append(model.speeds, model.speeds[k]),
        sojourns=tuple(sojourns),
        mu=model.mu,
        routing=routing,
    )


def kummer_parameters(model: EnvironmentModel) -> dict:
    """Kummer's a, b and rho_star for a two-state model whose state 1 is listed first.

    a and b are each state's sojourn rate over its service rate, and
    rho_star = rho_2 - rho_1 the offered-load difference.
    """
    a, b = (law.rate / rate for law, rate in zip(model.sojourns, model.service_rates))
    rho = model.offered_loads
    return {"a": a, "b": b, "rho_star": rho[1] - rho[0]}


def identical_state_model(rho: float = 2.0) -> EnvironmentModel:
    """Mixed sojourns and asymmetric routing, but identical rates and speeds."""
    beta, mu = 0.8, 1.25
    lam = rho * beta * mu
    return EnvironmentModel(
        arrival_rates=[lam, lam, lam],
        speeds=[beta, beta, beta],
        sojourns=(
            Gamma(shape=2.0, rate=2.0),
            Deterministic(value=1.5),
            HyperExponential(probs=(0.4, 0.6), rates=(0.5, 2.0)),
        ),
        mu=mu,
        routing=[[0.0, 0.7, 0.3], [0.4, 0.0, 0.6], [0.5, 0.5, 0.0]],
    )


def shrinking_replication_order(model, config) -> list:
    """Replication indices by decreasing customer count, the largest first.

    Run in this order through one workspace, every replication after the
    first reads buffers that an earlier, larger one filled further, so
    stale entries beyond its own customers would show.  Each count
    replays the replication's stream up to its per-segment Poisson draws.
    """
    customers = []
    for rep in range(config.replications):
        rng = replication_rng(config.master_seed, rep)
        path = simulate_environment(model, config.horizon, rng)
        customers.append(int(rng.poisson(model.arrival_rates[path.states] * path.durations).sum()))
    order = sorted(range(config.replications), key=lambda rep: -customers[rep])
    assert customers[order[0]] > customers[order[-1]], customers
    return order


def stirling_triangle(kind: int, n_max: int) -> list:
    """Signed first-kind (kind 1) or second-kind (kind 2) Stirling triangle from mpmath.

    Exact integers: at 40 digits mpmath holds every entry through order
    20 exactly.
    """
    number = {1: mpmath.stirling1, 2: mpmath.stirling2}[kind]
    with mpmath.workdps(40):
        return [[int(number(l, j)) for j in range(l + 1)] for l in range(n_max + 1)]


def stirling_sums(triangle: list, moments) -> np.ndarray:
    """sum_j triangle[l][j] moments[j] for each l, at 40 digits, rounded to float64 once."""
    values = [mpmath.mpf(float(x)) for x in moments]
    with mpmath.workdps(40):
        return np.array(
            [float(mpmath.fsum(c * x for c, x in zip(triangle[l], values))) for l in range(len(values))]
        )


@pytest.fixture(scope="session")
def k3_mixed_model() -> EnvironmentModel:
    return load_model(MODELS_DIR / "k3_mixed.yaml")


@pytest.fixture(scope="session")
def k3_exponential_model() -> EnvironmentModel:
    return load_model(MODELS_DIR / "k3_exponential.yaml")


@pytest.fixture(scope="session")
def k2_gamma_exp_model() -> EnvironmentModel:
    return load_model(MODELS_DIR / "k2_gamma_exp.yaml")
