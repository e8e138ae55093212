"""Inputs of the workloads: the shipped model files and the large-K models.

The large-K models are heterogeneous and all-exponential, drawn from a
generator seeded by ``MODEL_SEED`` and K, never by the workload seed:
every table they give is wrong at order 20 today (a known fault of the
recursion), and a failing operation must fail on inputs that do not move
with the seed, so that its share of the operations stays exact.
"""

from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("identical", "k2_exponential", "k2_gamma_exp", "k3_exponential", "k3_mixed")
MODEL_SEED = 0


def shipped_paths(names=SHIPPED):
    return [str(ROOT / "models" / f"{name}.yaml") for name in names]


def exponential_params(k_count):
    """Parameters of the K-state model as plain numpy arrays."""
    rng = np.random.default_rng([MODEL_SEED, k_count])
    routing = rng.uniform(0.1, 1.0, (k_count, k_count))
    np.fill_diagonal(routing, 0.0)
    routing /= routing.sum(axis=1, keepdims=True)
    return {
        "arrival_rates": rng.uniform(0.2, 3.0, k_count),
        "speeds": rng.uniform(0.3, 1.0, k_count),
        "exit_rates": rng.uniform(0.5, 2.0, k_count),
        "mu": float(rng.uniform(0.8, 1.5)),
        "routing": routing,
    }


def build_model(params):
    """The program's model object for a parameter set."""
    from mminfenv import EnvironmentModel, Exponential

    return EnvironmentModel(
        arrival_rates=params["arrival_rates"],
        speeds=params["speeds"],
        sojourns=tuple(Exponential(rate=float(r)) for r in params["exit_rates"]),
        mu=params["mu"],
        routing=params["routing"],
    )
