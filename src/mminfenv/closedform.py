"""Explicit two-state formulas, used as independent oracles for the recursion.

When the environment has two states, routing is forced to alternate, and
the second state has an exponential sojourn, the Palm moment vectors
admit a closed product form.  The product is stated for the shifted
variable (the discounted arrival mass minus the state-1 offered load);
a binomial shift recovers the plain Palm moments.  Two special cases
have their own reference paths: exponential state 1 reduces to the
coefficient sequence of a Kummer confluent-hypergeometric generating
function, and Gamma state 1 has an explicit rational product.  All three
paths are implemented independently so they can cross-check each other
and the general recursion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Exponential, Gamma, SojournDistribution
from .environment import EnvironmentModel
from .errors import ModelError, NumericError
from .moments import _check_order

__all__ = [
    "TwoStateModel",
    "shifted_palm_moments",
    "palm_moments",
    "palm_from_shifted",
    "kummer_reference",
    "gamma_sojourn_reference",
    "to_environment",
    "from_environment",
]

_DENOMINATOR_FLOOR = 1e-14

_ALTERNATING = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class TwoStateModel:
    """Two alternating states; state 2 must have an exponential sojourn.

    Service rates are given per state directly (they play the role of
    speed times base rate).  The derived quantities are the per-state
    offered loads and their difference ``rho_star = rho_2 - rho_1``,
    which may be negative; all formulas hold as signed quantities.
    """

    arrival_rate_1: float
    arrival_rate_2: float
    service_rate_1: float
    service_rate_2: float
    sojourn_1: SojournDistribution
    sojourn_2: Exponential

    def __post_init__(self):
        for name in ("arrival_rate_1", "arrival_rate_2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ModelError(f"{name} must be finite and nonnegative, got {value}")
        for name in ("service_rate_1", "service_rate_2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ModelError(f"{name} must be positive, got {value}")
        if not isinstance(self.sojourn_1, SojournDistribution):
            raise ModelError("sojourn_1 must be a SojournDistribution")
        if not isinstance(self.sojourn_2, Exponential):
            raise ModelError(
                "the closed form requires an exponential sojourn in state 2, "
                f"got {type(self.sojourn_2).__name__}"
            )

    @property
    def rho_1(self) -> float:
        return self.arrival_rate_1 / self.service_rate_1

    @property
    def rho_2(self) -> float:
        return self.arrival_rate_2 / self.service_rate_2

    @property
    def rho_star(self) -> float:
        return self.rho_2 - self.rho_1

    @property
    def exit_rate_2(self) -> float:
        """Rate of the exponential state-2 sojourn (reciprocal mean)."""
        return self.sojourn_2.rate


def _product_terms(model: TwoStateModel, n_max: int):
    """Factors of the shifted-moment product: numerators, denominators per order.

    Also returns inv_tau_1[n] = 1 / tau_1(n mu_1), n = 0..n_max; a state-1
    transform that underflows to 0 has no reciprocal and raises
    NumericError naming the order.
    """
    inv_tau_1 = []
    for n in range(n_max + 1):
        tau = model.sojourn_1.laplace(n * model.service_rate_1)
        if tau == 0.0:
            raise NumericError(
                f"state-1 sojourn transform underflowed to 0 at order {n}; "
                "the two-state product form needs its reciprocal"
            )
        inv_tau_1.append(1.0 / tau)
    inv_tau_2 = lambda s: 1.0 / model.sojourn_2.laplace(s)
    mu_2 = model.service_rate_2
    numerators = []
    denominators = []
    for j in range(1, n_max + 1):
        numerators.append(j * inv_tau_1[j - 1])
        den = inv_tau_1[j] * inv_tau_2(j * mu_2) - 1.0
        if den <= _DENOMINATOR_FLOOR:
            raise ModelError(
                f"degenerate two-state model: product denominator {den!r} at order {j} "
                "is not positive (requires strictly positive service rates)"
            )
        denominators.append(den)
    return numerators, denominators, inv_tau_1


def shifted_palm_moments(model: TwoStateModel, n_max: int):
    """Moments of the load-shifted discounted mass, for both states.

    Returns two arrays of length n_max + 1.  State 1 carries the product
    form

        prefactor^n * prod_{j=1..n} j / (tau_1(j mu_1)^-1 tau_2(j mu_2)^-1 - 1)
                                      * tau_1((j-1) mu_1)^-1

    with prefactor mu_2 rho_star / exit_rate_2; state 2 is the state-1
    value times tau_1(n mu_1)^-1.  Every partial product is an output, so
    one that leaves double precision raises NumericError, as does a
    state-1 transform that underflows to 0.
    """
    n_max = _check_order(n_max)
    prefactor = model.service_rate_2 * model.rho_star / model.exit_rate_2
    state_1 = np.empty(n_max + 1)
    state_2 = np.empty(n_max + 1)
    state_1[0] = 1.0
    state_2[0] = 1.0
    if n_max == 0:
        return state_1, state_2

    numerators, denominators, inv_tau_1 = _product_terms(model, n_max)
    running = 1.0
    for n in range(1, n_max + 1):
        running *= prefactor * numerators[n - 1] / denominators[n - 1]
        state_1[n] = running
        state_2[n] = running * inv_tau_1[n]
    if not np.all(np.isfinite(state_1)) or not np.all(np.isfinite(state_2)):
        raise NumericError("two-state shifted moments overflowed double precision")
    return state_1, state_2


def palm_moments(model: TwoStateModel, n_max: int):
    """Plain Palm moments for both states via the binomial load shift."""
    return palm_from_shifted(model, shifted_palm_moments(model, n_max))


def palm_from_shifted(model: TwoStateModel, shifted):
    """Undo the load shift of ``shifted_palm_moments`` output, for both states.

    m0_k^(n) = sum_j C(n,j) rho_1^(n-j) mtilde_k^(j).

    A moment that leaves double precision raises NumericError.
    """
    shifted_1, shifted_2 = shifted
    rho_1 = model.rho_1
    out_1 = np.empty(len(shifted_1))
    out_2 = np.empty(len(shifted_2))
    try:
        for n in range(len(shifted_1)):
            acc_1 = 0.0
            acc_2 = 0.0
            for j in range(n + 1):
                weight = math.comb(n, j) * rho_1 ** (n - j)
                acc_1 += weight * shifted_1[j]
                acc_2 += weight * shifted_2[j]
            out_1[n] = acc_1
            out_2[n] = acc_2
    except OverflowError as exc:
        raise NumericError("two-state Palm moments overflowed double precision") from exc
    if not np.all(np.isfinite(out_1)) or not np.all(np.isfinite(out_2)):
        raise NumericError("two-state Palm moments overflowed double precision")
    return out_1, out_2


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


def gamma_sojourn_reference(model: TwoStateModel, n_max: int) -> np.ndarray:
    """Shifted state-1 moments for a Gamma state-1 sojourn, evaluated directly.

    For sojourn_1 = Gamma(shape, rate) the product form reduces to

        n! rho_star^n ((g)_n)^shape
        / prod_{j=1..n} ((g + j)^shape (h + j) - g^shape h)

    with g = rate / service_rate_1 and h = exit_rate_2 / service_rate_2.
    Kept independent of shifted_palm_moments so the two can cross-check.
    """
    if not isinstance(model.sojourn_1, Gamma):
        raise ModelError(
            f"gamma_sojourn_reference needs a Gamma state-1 sojourn, got "
            f"{type(model.sojourn_1).__name__}"
        )
    n_max = _check_order(n_max)
    shape = model.sojourn_1.shape
    g = model.sojourn_1.rate / model.service_rate_1
    h = model.exit_rate_2 / model.service_rate_2
    out = np.empty(n_max + 1)
    out[0] = 1.0
    for n in range(1, n_max + 1):
        denominator = (g + n) ** shape * (h + n) - g ** shape * h
        if denominator <= _DENOMINATOR_FLOOR:
            raise ModelError(
                f"degenerate two-state model: gamma-form denominator {denominator!r} "
                f"at order {n} is not positive"
            )
        out[n] = out[n - 1] * n * model.rho_star * (g + n - 1.0) ** shape / denominator
    return out


def to_environment(model: TwoStateModel) -> EnvironmentModel:
    """Embed the two-state model in the general representation.

    The base rate is the larger service rate, so both speeds land in
    (0, 1]; routing alternates.
    """
    mu = max(model.service_rate_1, model.service_rate_2)
    return EnvironmentModel(
        arrival_rates=[model.arrival_rate_1, model.arrival_rate_2],
        speeds=[model.service_rate_1 / mu, model.service_rate_2 / mu],
        sojourns=(model.sojourn_1, model.sojourn_2),
        mu=mu,
        routing=_ALTERNATING,
    )


def from_environment(model: EnvironmentModel):
    """Extract a TwoStateModel from a general model, relabeling if needed.

    Requires exactly two states with alternating routing and at least
    one exponential sojourn.  Returns ``(two_state, swapped)`` where
    ``swapped`` records whether the states were relabeled to put the
    exponential sojourn in position 2.
    """
    if model.num_states != 2:
        raise ModelError(f"two-state closed form needs K = 2, got K = {model.num_states}")
    if np.max(np.abs(model.routing - _ALTERNATING)) > 1e-12:
        raise ModelError("two-state closed form needs alternating routing [[0,1],[1,0]]")
    service = model.service_rates
    if np.any(service <= 0.0):
        raise ModelError("two-state closed form needs positive service rates in both states")
    if isinstance(model.sojourns[1], Exponential):
        order = (0, 1)
    elif isinstance(model.sojourns[0], Exponential):
        order = (1, 0)
    else:
        raise ModelError("two-state closed form needs an exponential sojourn in some state")
    first, second = order
    two_state = TwoStateModel(
        arrival_rate_1=float(model.arrival_rates[first]),
        arrival_rate_2=float(model.arrival_rates[second]),
        service_rate_1=float(service[first]),
        service_rate_2=float(service[second]),
        sojourn_1=model.sojourns[first],
        sojourn_2=model.sojourns[second],
    )
    return two_state, order != (0, 1)
