"""Verdicts on a moment table: every structural check that applies to its model.

Each verdict is a named residual against a tolerance, read off a
``MomentTable`` (its solve diagnostics and rate-conservation residuals)
or off the two-state closed forms of ``closedform``.  The ``validate``
verb reports exactly this list.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import closedform
from .distributions import Exponential, Gamma
from .errors import ModelError

__all__ = ["DEFAULT_TOLERANCES", "CheckVerdict", "structural_checks"]

DEFAULT_TOLERANCES = {
    "tol_identity": 1e-9,
    "tol_closedform": 1e-8,
    "tol_kummer": 1e-9,
    "tol_gamma": 1e-10,
    "tol_solve": 1e-10,
    "z_max": 3.0,
}


@dataclass
class CheckVerdict:
    """One named check with its numeric residual; no verdict without a number."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        residual = float(self.residual)
        return {
            "name": self.name,
            "residual": residual if math.isfinite(residual) else None,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _relative_gap(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / scale))


def structural_checks(model, table, tolerances=DEFAULT_TOLERANCES) -> list:
    """Every structural check that applies to the model, read off its moment table.

    The two-state closed forms are checked up to order 8 when the model
    is in their scope.
    """
    verdicts = []
    solve_gap = float(np.nanmax(table.solve_residual)) if table.n_max >= 1 else 0.0
    if table.n_max >= 1 and not np.all(np.isfinite(table.bn_condition[1:])):
        solve_gap = float("inf")
    verdicts.append(CheckVerdict("solve-backsubstitution", solve_gap, tolerances["tol_solve"]))

    conservation = float(np.max(table.conservation_residuals))
    verdicts.append(CheckVerdict("rate-conservation", conservation, tolerances["tol_identity"]))

    try:
        two_state, swapped = closedform.from_environment(model)
    except ModelError:
        return verdicts
    depth = min(table.n_max, 8)
    shifted = closedform.shifted_palm_moments(two_state, depth)
    references = closedform.palm_from_shifted(two_state, shifted)
    computed = np.array(table.palm[: depth + 1]).T
    states = (1, 0) if swapped else (0, 1)
    gap = max(_relative_gap(computed[k], ref) for k, ref in zip(states, references))
    verdicts.append(CheckVerdict("two-state-closed-form", gap, tolerances["tol_closedform"]))

    if isinstance(two_state.sojourn_1, Exponential):
        kummer = closedform.kummer_reference(
            a=two_state.sojourn_1.rate / two_state.service_rate_1,
            b=two_state.exit_rate_2 / two_state.service_rate_2,
            rho_star=two_state.rho_star,
            n_max=depth,
        )
        verdicts.append(
            CheckVerdict("kummer-sequence", _relative_gap(shifted[0], kummer), tolerances["tol_kummer"])
        )
    if isinstance(two_state.sojourn_1, Gamma):
        gamma_form = closedform.gamma_sojourn_reference(two_state, depth)
        verdicts.append(
            CheckVerdict("gamma-product-formula", _relative_gap(shifted[0], gamma_form), tolerances["tol_gamma"])
        )
    return verdicts
