"""
Rate conservation in the environment
====================================

Between environment jumps the mixing mass Lambda moves as
dLambda/dt = lambda_k - mu_k Lambda, and it is continuous at the jumps.
Rate conservation for Lambda^n 1{state k} then ties the Palm vectors
(seen at transitions) to the stationary vectors (seen at a stationary
instant) at every order, whatever the sojourn laws:

    n s^(n) M - (r^(n) P - r^(n)) diag(1/mean) = n s^(n-1) Lambda,

with r = m0' diag(pi) and s = m' diag(pi).  When every sojourn is
exponential the two families coincide and this is the generator identity
of the Markov environment.  This script evaluates the identity as
residuals on two model files.
"""

import numpy as np

from mminfenv import (
    load_model,
    palm_moment_vectors,
    rate_conservation_residuals,
    stationary_moment_vectors,
)


def vectors(model, n_max):
    palm = palm_moment_vectors(model, n_max=n_max)
    return palm, stationary_moment_vectors(model, palm)


###############################################################################
# The all-exponential three-state model shipped with the repo.

model = load_model("models/k3_exponential.yaml")
palm, stationary = vectors(model, 6)
print("embedded stationary vector:", np.round(model.statics.pi, 6).tolist())
print("occupancy law:             ", np.round(model.statics.occupancy, 6).tolist())

###############################################################################
# Palm vs stationary: a residual sojourn of an exponential law is the
# law itself, so the two families coincide (here: bit for bit).

gap = max(float(np.max(np.abs(a - b))) for a, b in zip(palm.vectors, stationary))
print(f"\nmax |palm - stationary| over orders 0..6: {gap}")

###############################################################################
# Rate conservation ties order n to order n-1; order 0 is the
# stationarity of the embedded vector.

residuals = rate_conservation_residuals(model, palm, stationary)
print("rate-conservation residuals by order:", ["%.2e" % r for r in residuals])

###############################################################################
# The same identity on the mixed-family model, where the Palm and
# stationary vectors differ.

mixed = load_model("models/k3_mixed.yaml")
mixed_palm, mixed_stationary = vectors(mixed, 6)
gap = max(float(np.max(np.abs(a / b - 1.0))) for a, b in zip(mixed_palm.vectors, mixed_stationary))
print(f"\nmixed-family model, max |palm / stationary - 1|: {gap:.3f}")
mixed_residuals = rate_conservation_residuals(mixed, mixed_palm, mixed_stationary)
print("rate-conservation residuals there:   ", ["%.2e" % r for r in mixed_residuals])
