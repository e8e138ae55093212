"""Moments of an M/M/inf queue modulated by a semi-Markov environment.

The package computes factorial and raw moments of the stationary number
of customers exactly, via matrix recursions in the moment order, checks
them against built-in structural identities and two-state closed forms,
and estimates them independently by simulating the queue.
"""

from .distributions import (
    Deterministic,
    Exponential,
    Gamma,
    HyperExponential,
    SojournDistribution,
)
from .environment import ChainStatics, EnvironmentModel, chain_statics
from .errors import EstimationError, ModelError, NumericError
from .closedform import kummer_reference
from .checks import CheckVerdict, structural_checks
from .modelfile import load_model, model_to_dict, parse_model
from .moments import (
    MomentTable,
    PalmMoments,
    assemble_moment_table,
    compute_moment_table,
    palm_moment_vectors,
    rate_conservation_residuals,
    raw_from_factorial,
    stationary_moment_vectors,
)
from .sim import (
    EnvironmentPath,
    SimulationConfig,
    SimulationEstimate,
    default_warmup,
    estimate_factorial_moments,
    simulate_environment,
    simulate_queue,
)

__version__ = "0.1.0"

__all__ = [
    "ChainStatics",
    "CheckVerdict",
    "Deterministic",
    "EnvironmentModel",
    "EnvironmentPath",
    "EstimationError",
    "Exponential",
    "Gamma",
    "HyperExponential",
    "ModelError",
    "MomentTable",
    "NumericError",
    "PalmMoments",
    "SimulationConfig",
    "SimulationEstimate",
    "SojournDistribution",
    "assemble_moment_table",
    "chain_statics",
    "compute_moment_table",
    "default_warmup",
    "estimate_factorial_moments",
    "kummer_reference",
    "load_model",
    "model_to_dict",
    "palm_moment_vectors",
    "parse_model",
    "rate_conservation_residuals",
    "raw_from_factorial",
    "simulate_environment",
    "simulate_queue",
    "stationary_moment_vectors",
    "structural_checks",
    "__version__",
]
