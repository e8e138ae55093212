"""Verdicts on a moment table: its structural checks and its agreement with simulation.

Each verdict is a named residual against a tolerance, read off a
``MomentTable`` (its solve diagnostics and rate-conservation residuals),
off the two-state closed forms of ``closedform``, or off the z-scores of
a simulation estimate.  The ``validate`` verb reports exactly the list
of ``structural_checks``, and ``compare`` that of ``simulation_checks``.
The structural gates are the fixed ``TOLERANCES``, so a PASS means the
same on every run; only the z gate of a simulation takes a value.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Exponential, Gamma
from .errors import ModelError

__all__ = ["TOLERANCES", "Z_MAX", "CheckVerdict", "simulation_checks", "structural_checks"]

TOLERANCES = {
    "tol_identity": 1e-9,
    "tol_closedform": 1e-8,
    "tol_kummer": 1e-9,
    "tol_gamma": 1e-10,
    "tol_solve": 1e-10,
}
Z_MAX = 3.0


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
    """Largest |a - b| / max(|a|, |b|) over the entries, 0 where both are 0.

    No absolute floor: the moments of a lightly loaded model are tiny at
    high orders, and a relative error in them must read as one.  A NaN
    entry gives NaN, which fails every tolerance.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gap = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.divide(gap, scale, out=np.zeros_like(gap), where=scale != 0.0)))


def structural_checks(model, table) -> list:
    """Every structural check that applies to the model, read off its moment table.

    The two-state closed forms are checked up to order 8 when the model
    is in their scope.  Each verdict's gate is its entry of ``TOLERANCES``.
    """
    # imported here, so that a verb that runs no check does not load it
    from . import closedform

    verdicts = []
    solve_gap = float(np.nanmax(table.solve_residual)) if table.n_max >= 1 else 0.0
    if table.n_max >= 1 and not np.all(np.isfinite(table.bn_condition[1:])):
        solve_gap = float("inf")
    verdicts.append(CheckVerdict("solve-backsubstitution", solve_gap, TOLERANCES["tol_solve"]))

    conservation = float(np.max(table.conservation_residuals))
    verdicts.append(CheckVerdict("rate-conservation", conservation, TOLERANCES["tol_identity"]))

    try:
        first, second = closedform.roles(model)
    except ModelError:
        return verdicts
    depth = min(table.n_max, 8)
    shifted = closedform.shifted_palm_moments(model, depth)
    reference = closedform.palm_from_shifted(model, shifted)
    computed = np.array(table.palm[: depth + 1]).T
    gap = _relative_gap(computed, reference)
    verdicts.append(CheckVerdict("two-state-closed-form", gap, TOLERANCES["tol_closedform"]))

    sojourn_1 = model.sojourns[first]
    if isinstance(sojourn_1, Exponential):
        service = model.service_rates
        rho = model.offered_loads
        kummer = closedform.kummer_reference(
            a=sojourn_1.rate / service[first],
            b=model.sojourns[second].rate / service[second],
            rho_star=rho[second] - rho[first],
            n_max=depth,
        )
        verdicts.append(
            CheckVerdict("kummer-sequence", _relative_gap(shifted[first], kummer), TOLERANCES["tol_kummer"])
        )
    if isinstance(sojourn_1, Gamma):
        gamma_form = closedform.gamma_sojourn_reference(model, depth)
        verdicts.append(
            CheckVerdict(
                "gamma-product-formula", _relative_gap(shifted[first], gamma_form[first]), TOLERANCES["tol_gamma"]
            )
        )
    return verdicts


def simulation_checks(table, estimate, z_max=Z_MAX) -> tuple:
    """The ``weighting-<w>-consistent`` verdicts of a simulation estimate, and their z-scores.

    ``z_scores[w][n - 1]`` is |analytic - estimate| / std.err at order n,
    for n = 1..n_est.  Where the standard error is 0, the order reads 0
    if the two agree within 1e-12, and inf otherwise.  Each verdict is
    the largest z of its weighting against ``z_max``, in the table's
    weighting order.  The table must reach order n_est.
    """
    orders = slice(1, len(estimate.estimates))
    errors = estimate.standard_errors[orders]
    z_scores = {}
    for weighting, analytic in table.aggregated.items():
        gap = np.abs(analytic[orders] - estimate.estimates[orders])
        with np.errstate(divide="ignore", invalid="ignore"):
            z_scores[weighting] = np.where(errors > 0.0, gap / errors, np.where(gap < 1e-12, 0.0, np.inf))
    verdicts = [
        CheckVerdict(f"weighting-{w}-consistent", float(np.max(z)), z_max) for w, z in z_scores.items()
    ]
    return verdicts, z_scores
