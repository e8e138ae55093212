"""Explicit two-state formulas, used as independent oracles for the recursion.

When the environment has two states (so routing alternates) with
positive service rates and at least one exponential sojourn, the Palm
moment vectors admit a closed product form.  ``roles`` names the
model's states that play the formula's states 1 and 2; the exponential
one is state 2.  Every function here reads the same ``EnvironmentModel``
the engine reads and returns one row per state, in the model's own
state order.  The product is stated for the shifted variable (the
discounted arrival mass minus the state-1 offered load); a binomial
shift recovers the plain Palm moments.  Two special cases have their
own reference paths: exponential state 1 reduces to the coefficient
sequence of a Kummer confluent-hypergeometric generating function, and
Gamma state 1 has an explicit rational product.  All three paths are
implemented independently so they can cross-check each other and the
general recursion.
"""

import math

import numpy as np

from .distributions import Exponential, Gamma
from .errors import ModelError, NumericError
from .moments import _check_order

__all__ = [
    "roles",
    "shifted_palm_moments",
    "palm_from_shifted",
    "kummer_reference",
    "gamma_sojourn_reference",
]

_DENOMINATOR_FLOOR = 1e-14


def roles(model) -> tuple:
    """The model's states that play the closed form's states 1 and 2, as ``(first, second)``.

    The closed form needs K = 2 (a model's routing then alternates: its
    diagonal is 0 and its rows sum to 1), positive service rates and an
    exponential sojourn in state 2.  That is the model's second state
    when its sojourn is exponential, else its first.  A model outside
    this scope raises ModelError.
    """
    if model.num_states != 2:
        raise ModelError(f"two-state closed form needs K = 2, got K = {model.num_states}")
    if np.any(model.service_rates <= 0.0):
        raise ModelError("two-state closed form needs positive service rates in both states")
    if isinstance(model.sojourns[1], Exponential):
        return 0, 1
    if isinstance(model.sojourns[0], Exponential):
        return 1, 0
    raise ModelError("two-state closed form needs an exponential sojourn in some state")


def _paper_states(model):
    """``roles(model)``, then the service rates and offered loads of states 1 and 2 as floats."""
    first, second = roles(model)
    service = model.service_rates
    rho = model.offered_loads
    return (
        (first, second),
        (float(service[first]), float(service[second])),
        (float(rho[first]), float(rho[second])),
    )


def shifted_palm_moments(model, n_max: int) -> np.ndarray:
    """Moments of the load-shifted discounted mass, as a (2, n_max + 1) array.

    State 1 carries the product form

        prefactor^n * prod_{j=1..n} j / (tau_1(j mu_1)^-1 tau_2(j mu_2)^-1 - 1)
                                      * tau_1((j-1) mu_1)^-1

    with prefactor mu_2 rho_star / (state-2 exit rate) and
    rho_star = rho_2 - rho_1, which may be negative; state 2 is the
    state-1 value times tau_1(n mu_1)^-1.  Every partial product is an
    output, so one that leaves double precision raises NumericError, as
    does a state-1 transform that underflows to 0 (it has no reciprocal).
    A product denominator that is not positive raises ModelError.
    """
    (first, second), (mu_1, mu_2), (rho_1, rho_2) = _paper_states(model)
    n_max = _check_order(n_max)
    sojourn_1, sojourn_2 = model.sojourns[first], model.sojourns[second]
    out = np.ones((2, n_max + 1))
    if n_max == 0:
        return out

    inv_tau_1 = []
    for n in range(n_max + 1):
        tau = sojourn_1.laplace(n * mu_1)
        if tau == 0.0:
            raise NumericError(
                f"state-1 sojourn transform underflowed to 0 at order {n}; "
                "the two-state product form needs its reciprocal"
            )
        inv_tau_1.append(1.0 / tau)
    prefactor = mu_2 * (rho_2 - rho_1) / sojourn_2.rate
    running = 1.0
    for n in range(1, n_max + 1):
        den = inv_tau_1[n] * (1.0 / sojourn_2.laplace(n * mu_2)) - 1.0
        if den <= _DENOMINATOR_FLOOR:
            raise ModelError(
                f"degenerate two-state model: product denominator {den!r} at order {n} "
                "is not positive (requires strictly positive service rates)"
            )
        running *= prefactor * (n * inv_tau_1[n - 1]) / den
        out[first, n] = running
        out[second, n] = running * inv_tau_1[n]
    if not np.all(np.isfinite(out)):
        raise NumericError("two-state shifted moments overflowed double precision")
    return out


def palm_from_shifted(model, shifted) -> np.ndarray:
    """Undo the load shift of ``shifted_palm_moments`` output, row by row.

    m0_k^(n) = sum_j C(n,j) rho_1^(n-j) mtilde_k^(j).

    A moment that leaves double precision raises NumericError.
    """
    _, _, (rho_1, _) = _paper_states(model)
    rows = np.asarray(shifted, dtype=float).tolist()
    out = np.empty((len(rows), len(rows[0])))
    try:
        for n in range(out.shape[1]):
            weights = [math.comb(n, j) * rho_1 ** (n - j) for j in range(n + 1)]
            for k, row in enumerate(rows):
                acc = 0.0
                for weight, value in zip(weights, row):
                    acc += weight * value
                out[k, n] = acc
    except OverflowError as exc:
        raise NumericError("two-state Palm moments overflowed double precision") from exc
    if not np.all(np.isfinite(out)):
        raise NumericError("two-state Palm moments overflowed double precision")
    return out


def kummer_reference(a: float, b: float, rho_star: float, n_max: int) -> np.ndarray:
    """Coefficient sequence rho_star^n (a)_n / (a+b+1)_n, n = 0..n_max.

    With a the ratio of state-1 exit rate to state-1 service rate and b
    the same ratio for state 2, this is the moment sequence of the
    Kummer confluent-hypergeometric generating function
    M(a, a+b+1, rho_star s); it equals the shifted state-1 moments when
    both sojourns are exponential.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"parameters must be positive, got a={a}, b={b}")
    n_max = _check_order(n_max)
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        out[n] = out[n - 1] * rho_star * (a + n - 1.0) / (a + b + n)
    return out


def gamma_sojourn_reference(model, n_max: int) -> np.ndarray:
    """Shifted moments for a Gamma state-1 sojourn, evaluated directly, as a (2, n_max + 1) array.

    For a state-1 sojourn Gamma(shape, rate) the product form reduces to

        n! rho_star^n ((g)_n)^shape
        / prod_{j=1..n} ((g + j)^shape (h + j) - g^shape h)

    with g = rate / mu_1 and h the state-2 exit rate over mu_2; state 2
    is that value times tau_1(n mu_1)^-1 = ((g + n) / g)^shape.  Each
    factor is evaluated over g^shape, as (1 + (j - 1) / g)^shape over
    (1 + j / g)^shape (h + j) - h, so that a large g^shape (a sharply
    peaked sojourn) does not leave double precision.  Kept independent
    of shifted_palm_moments so the two can cross-check.
    """
    (first, second), (mu_1, mu_2), (rho_1, rho_2) = _paper_states(model)
    sojourn_1 = model.sojourns[first]
    if not isinstance(sojourn_1, Gamma):
        raise ModelError(
            f"gamma_sojourn_reference needs a Gamma state-1 sojourn, got "
            f"{type(sojourn_1).__name__}"
        )
    n_max = _check_order(n_max)
    shape = sojourn_1.shape
    g = sojourn_1.rate / mu_1
    h = model.sojourns[second].rate / mu_2
    out = np.ones((2, n_max + 1))
    try:
        for n in range(1, n_max + 1):
            growth = (1.0 + n / g) ** shape
            denominator = growth * (h + n) - h
            if denominator <= _DENOMINATOR_FLOOR:
                raise ModelError(
                    f"degenerate two-state model: gamma-form denominator {denominator!r} "
                    f"at order {n} is not positive"
                )
            out[first, n] = out[first, n - 1] * n * (rho_2 - rho_1) * (1.0 + (n - 1) / g) ** shape / denominator
            out[second, n] = out[first, n] * growth
    except OverflowError as exc:
        raise NumericError("two-state gamma-form moments overflowed double precision") from exc
    return out
