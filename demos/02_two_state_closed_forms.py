"""
Two-state closed forms
======================

With two alternating states and an exponential sojourn in one of them
(the formula's state 2), the Palm moments have an explicit product
form.  Two classical special cases fall out of it: an exponential
state 1 gives the coefficient sequence of a Kummer confluent-
hypergeometric function, and a gamma state 1 gives a rational product.
This script evaluates all three routes on the same ``EnvironmentModel``
the general matrix recursion reads, and pits them against it.
"""

import numpy as np

from mminfenv import (
    EnvironmentModel,
    Exponential,
    Gamma,
    kummer_reference,
    palm_moment_vectors,
)
from mminfenv.closedform import gamma_sojourn_reference, palm_from_shifted, roles, shifted_palm_moments


def two_state(arrival_rates, service_rates, sojourns):
    """Alternating routing, mu = 1, so the speeds are the service rates."""
    return EnvironmentModel(
        arrival_rates=arrival_rates,
        speeds=service_rates,
        sojourns=sojourns,
        mu=1.0,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )


###############################################################################
# Both states exponential: the Kummer route.
# With unit rates and arrivals only in state 2, the shifted moments are
# the rising-factorial ratios (1)_n / (3)_n: 1, 1/3, 1/6, ...

model = two_state([0.0, 1.0], [1.0, 1.0], (Exponential(1.0), Exponential(1.0)))
rho = model.offered_loads
shifted_1 = shifted_palm_moments(model, 6)[0]
kummer = kummer_reference(a=1.0, b=1.0, rho_star=rho[1] - rho[0], n_max=6)
print("shifted state-1 moments:", np.round(shifted_1, 10).tolist())
print("kummer coefficients:    ", np.round(kummer, 10).tolist())

###############################################################################
# Gamma state 1: the rational product, checked against the product form
# and against the general K-state recursion.

model = two_state([0.5, 2.0], [0.8, 1.0], (Gamma(shape=2.0, rate=1.5), Exponential(1.0)))
product = shifted_palm_moments(model, 8)[0]
direct = gamma_sojourn_reference(model, 8)[0]
print("\ngamma model, shifted moments:")
print("  product form :", np.round(product[:5], 8).tolist())
print("  gamma formula:", np.round(direct[:5], 8).tolist())
print("  max relative gap:", np.max(np.abs(direct / product - 1.0)))

plain = palm_from_shifted(model, shifted_palm_moments(model, 8))
recursion = np.array(palm_moment_vectors(model, n_max=8).vectors).T
print("\nplain Palm moments, closed form vs matrix recursion:")
print("  state 1 gap:", np.max(np.abs(recursion[0] / plain[0] - 1.0)))
print("  state 2 gap:", np.max(np.abs(recursion[1] / plain[1] - 1.0)))

# Listing the exponential state first changes nothing but the row order.
relisted = two_state([2.0, 0.5], [1.0, 0.8], (Exponential(1.0), Gamma(shape=2.0, rate=1.5)))
print("  exponential state listed first: roles", roles(relisted),
      "rows exchanged bit for bit:",
      np.array_equal(palm_from_shifted(relisted, shifted_palm_moments(relisted, 8)), plain[::-1]))

###############################################################################
# The load difference may be negative; the formulas are signed.

heavy_first = two_state([3.0, 0.5], [1.0, 1.0], (Exponential(1.0), Exponential(1.0)))
rho = heavy_first.offered_loads
shifted = shifted_palm_moments(heavy_first, 4)[0]
print(f"\nrho_star = {rho[1] - rho[0]} (negative):",
      "shifted moments alternate in sign:", np.round(shifted, 6).tolist())
