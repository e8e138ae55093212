"""Extended-precision reference for the moments of every shipped model.

The Palm and stationary vectors are recomputed here from the alternating
binomial form of the recursion,

    B_n m0^(n) = sum_{j<n} (-1)^(n-1-j) C(n,j) R^(n-j) B_n m0^(j),
    B_n = diag(1 / tau_k(n mu_k)) - Q,
    m^(n) = E_n m0^(n) + sum_{j<n} (-1)^(n-1-j) C(n,j) R^(n-j) (m^(j) - E_n m0^(j)),

with E_n the diagonal ratio of residual to plain transforms.  Its
cancellation costs up to ten digits at order 20 on moderate models,
which 50-digit arithmetic absorbs (a transform that underflows double
precision needs as many digits as 1 / tau has); the model's decimals are
read exactly (the shortest repr of each parsed float, which is the
decimal written in the file), and hyperexponential branch probabilities
are normalised in extended precision, so that tau(0) = 1 exactly.  The
double-precision table, computed by the weight form, must match to a
relative 1e-12 at every order and under both weightings.
"""

import mpmath as mp
import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    EnvironmentModel,
    Exponential,
    Gamma,
    HyperExponential,
    compute_moment_table,
    load_model,
)

from conftest import MODELS_DIR, random_mixed_model

DIGITS = 50
ORDER = 20


def exact(value):
    return mp.mpf(repr(float(value)))


def branch_probs(dist):
    probs = [exact(p) for p in dist.probs]
    return [p / mp.fsum(probs) for p in probs]


def transform(dist, s):
    if isinstance(dist, Exponential):
        return exact(dist.rate) / (exact(dist.rate) + s)
    if isinstance(dist, Gamma):
        return (1 + s / exact(dist.rate)) ** (-exact(dist.shape))
    if isinstance(dist, Deterministic):
        return mp.exp(-s * exact(dist.value))
    if isinstance(dist, HyperExponential):
        return mp.fsum(p * exact(r) / (exact(r) + s) for p, r in zip(branch_probs(dist), dist.rates))
    raise TypeError(f"no reference transform for {dist!r}")


def mean(dist):
    if isinstance(dist, Exponential):
        return 1 / exact(dist.rate)
    if isinstance(dist, Gamma):
        return exact(dist.shape) / exact(dist.rate)
    if isinstance(dist, Deterministic):
        return exact(dist.value)
    return mp.fsum(p / exact(r) for p, r in zip(branch_probs(dist), dist.rates))


def residual_transform(dist, s):
    if s == 0:
        return mp.mpf(1)
    return (1 - transform(dist, s)) / (s * mean(dist))


def reference_factorial_moments(model):
    """f_N^(n), n = 0..ORDER, under both weightings, at the working precision."""
    k_count = model.num_states
    routing = mp.matrix([[exact(x) for x in row] for row in model.routing])
    service = [exact(b) * exact(model.mu) for b in model.speeds]
    loads = [exact(lam) / a if lam > 0.0 else mp.mpf(0) for lam, a in zip(model.arrival_rates, service)]

    # embedded stationary law: pi (P - I) = 0 with the last equation replaced by sum(pi) = 1
    system = (routing - mp.eye(k_count)).T
    for j in range(k_count):
        system[k_count - 1, j] = 1
    pi = mp.lu_solve(system, mp.matrix([0] * (k_count - 1) + [1]))
    reversed_routing = mp.matrix(k_count, k_count)
    for i in range(k_count):
        for j in range(k_count):
            reversed_routing[i, j] = pi[j] * routing[j, i] / pi[i]
    means = [mean(d) for d in model.sojourns]
    total = mp.fsum(pi[k] * means[k] for k in range(k_count))
    weights = {
        "embedded": [pi[k] for k in range(k_count)],
        "occupancy": [pi[k] * means[k] / total for k in range(k_count)],
    }

    palm = [mp.matrix([1] * k_count)]
    stationary = [mp.matrix([1] * k_count)]
    for n in range(1, ORDER + 1):
        tau = [transform(d, n * a) for d, a in zip(model.sojourns, service)]
        ratio = [residual_transform(d, n * a) / t for d, a, t in zip(model.sojourns, service, tau)]
        matrix = mp.diag([1 / t for t in tau]) - reversed_routing
        rhs = mp.matrix([0] * k_count)
        update = mp.matrix([0] * k_count)
        for j in range(n):
            coeff = (-1) ** (n - 1 - j) * mp.binomial(n, j)
            routed = matrix * palm[j]
            for k in range(k_count):
                rhs[k] += coeff * loads[k] ** (n - j) * routed[k]
                update[k] += coeff * loads[k] ** (n - j) * (stationary[j][k] - ratio[k] * palm[j][k])
        palm.append(mp.lu_solve(matrix, rhs))
        stationary.append(mp.matrix([ratio[k] * palm[n][k] + update[k] for k in range(k_count)]))
    return {
        name: [mp.fsum(w[k] * vec[k] for k in range(k_count)) for vec in stationary]
        for name, w in weights.items()
    }


def assert_matches_reference(model, digits=DIGITS):
    table = compute_moment_table(model, n_max=ORDER)
    with mp.workdps(digits):
        reference = reference_factorial_moments(model)
    for weighting, values in reference.items():
        for n in range(ORDER + 1):
            assert table.aggregated[weighting][n] == pytest.approx(float(values[n]), rel=1e-12, abs=0.0), (
                weighting,
                n,
            )
    return table


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.yaml")), ids=lambda path: path.stem)
def test_shipped_models_match_extended_precision(path):
    assert_matches_reference(load_model(path))


@pytest.mark.parametrize("k_count", [3, 4, 5, 6, 8, 10])
def test_random_mixed_models_match_extended_precision(k_count):
    # every family, non-integer gamma shapes included, at generic rates
    assert_matches_reference(random_mixed_model(k_count, np.random.default_rng(k_count)))


def test_zero_speed_state_matches_extended_precision():
    # the middle state has neither speed nor arrivals: its weights are the identity
    model = EnvironmentModel(
        arrival_rates=[2.0, 0.0, 1.0],
        speeds=[1.0, 0.0, 0.5],
        sojourns=(
            Gamma(shape=2.5, rate=1.2),
            Deterministic(0.5),
            HyperExponential(probs=(0.3, 0.7), rates=(0.4, 2.5)),
        ),
        mu=1.1,
        routing=[[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.2, 0.8, 0.0]],
    )
    assert_matches_reference(model)


def test_underflowed_transform_matches_extended_precision():
    # tau = exp(-300 n) leaves double precision from order 3 on, so the
    # order matrix has rows e_k there; the alternating reference divides by
    # tau and needs ~2600 digits to absorb its cancellation at order 20
    model = EnvironmentModel(
        arrival_rates=[3.0, 0.2],
        speeds=[1.0, 1.0],
        sojourns=(Deterministic(300.0), Exponential(1.0)),
        mu=1.0,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )
    table = assert_matches_reference(model, digits=3000)
    assert np.max(table.conservation_residuals) <= 1e-12


@pytest.mark.parametrize("rate", [0.5, 2.0])
@pytest.mark.parametrize("shape", [1e-20, 1e-16, 1e-14, 1e-10, 1.000000000000001])
def test_near_zero_gamma_fraction_matches_extended_precision(shape, rate):
    # a fractional part f = s - floor(s) near 1e-15 or below puts nodes of
    # the first graded Beta(f, 1) panel at 0 or just below it: each is the
    # limit B = 0 of the sojourn's time scale, a sojourn of length 0
    model = EnvironmentModel(
        arrival_rates=[2.0, 1.0],
        speeds=[1.0, 0.5],
        sojourns=(Gamma(shape=shape, rate=rate), Exponential(1.0)),
        mu=1.0,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )
    assert_matches_reference(model)
