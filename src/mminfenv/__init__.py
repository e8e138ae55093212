"""Moments of an M/M/inf queue modulated by a semi-Markov environment.

The package computes factorial and raw moments of the stationary number
of customers exactly, via matrix recursions in the moment order, checks
them against built-in structural identities and two-state closed forms,
and estimates them independently by simulating the queue.

What every verb runs is imported with the package: ``errors``,
``distributions``, ``environment``, ``checks``, ``modelfile`` and
``moments``.  The simulator (``mminfenv.sim`` and the seven names
exported from it) and the two-state closed forms (``mminfenv.closedform``
and ``kummer_reference``) load on first use, through the module
``__getattr__``, and ``numpy.random`` loads with the simulator's first
draw, so a ``moments`` run loads none of them.
"""

import importlib

from .distributions import (
    Deterministic,
    Exponential,
    Gamma,
    HyperExponential,
    SojournDistribution,
)
from .environment import ChainStatics, EnvironmentModel, chain_statics
from .errors import EstimationError, ModelError, NumericError
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

# each name exported from a submodule that loads on first use, with that submodule
_LAZY = {
    "EnvironmentPath": "sim",
    "SimulationConfig": "sim",
    "SimulationEstimate": "sim",
    "default_warmup": "sim",
    "estimate_factorial_moments": "sim",
    "simulate_environment": "sim",
    "simulate_queue": "sim",
    "kummer_reference": "closedform",
}

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


def __getattr__(name):
    """Import ``sim`` or ``closedform`` when it or one of its names is first read (PEP 562)."""
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
