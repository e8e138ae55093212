"""Correctness references that share no code with ``mminfenv``.

* ``shipped_reference`` evaluates the paper's Palm/stationary recursion for
  a model file in 60-digit mpmath arithmetic, with its own YAML reading,
  sojourn transforms, embedded chain, weightings and Stirling numbers.
  At 60 digits the alternating binomial sums of the recursion lose at most
  ~12 digits by order 20, so the result carries far more than the 1e-9
  relative accuracy the checks ask of the program.
* ``generator_identity_orders`` checks an all-exponential moment table
  against the Markov-environment generator identity in plain numpy.
"""

import math

import mpmath
import numpy as np
import yaml

DIGITS = 60
REL_TOL = 1e-9
MAX_ORDER = 20


def _transform(node, s):
    """Laplace transform E[exp(-s T)] of one sojourn law, in mpmath."""
    family = node["family"]
    if family == "exponential":
        rate = mpmath.mpf(node["rate"])
        return rate / (rate + s)
    if family == "gamma":
        return (1 + s / mpmath.mpf(node["rate"])) ** (-mpmath.mpf(node["shape"]))
    if family == "deterministic":
        return mpmath.exp(-s * mpmath.mpf(node["value"]))
    if family == "hyperexponential":
        return mpmath.fsum(
            mpmath.mpf(p) * mpmath.mpf(r) / (mpmath.mpf(r) + s)
            for p, r in zip(node["probs"], node["rates"])
        )
    raise ValueError(f"no reference transform for sojourn family {family!r}")


def _mean(node):
    family = node["family"]
    if family == "exponential":
        return 1 / mpmath.mpf(node["rate"])
    if family == "gamma":
        return mpmath.mpf(node["shape"]) / mpmath.mpf(node["rate"])
    if family == "deterministic":
        return mpmath.mpf(node["value"])
    if family == "hyperexponential":
        return mpmath.fsum(mpmath.mpf(p) / mpmath.mpf(r) for p, r in zip(node["probs"], node["rates"]))
    raise ValueError(f"no reference mean for sojourn family {family!r}")


def stirling_second_kind(n_max):
    """S(n, k) for 0 <= k <= n <= n_max as exact integers."""
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            table[n][k] = k * table[n - 1][k] + table[n - 1][k - 1]
    return table


def shipped_reference(path, n_max=MAX_ORDER):
    """Factorial and raw moments of N for a model file, both weightings.

    Returns ``{"factorial": {w: [f_0..f_n]}, "raw": {w: [m_0..m_n]},
    "cycle": c}`` as Python floats, for w in ("embedded", "occupancy"),
    with c the mean environment cycle, K times the pi-weighted mean sojourn.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = yaml.safe_load(handle)
    with mpmath.workdps(DIGITS):
        states = doc["states"]
        k_count = len(states)
        mu = mpmath.mpf(doc["mu"])
        lam = [mpmath.mpf(s["lambda"]) for s in states]
        beta = [mpmath.mpf(s["beta"]) for s in states]
        service = [b * mu for b in beta]
        rho = [lam[k] / service[k] if lam[k] > 0 else mpmath.mpf(0) for k in range(k_count)]
        routing = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in doc["routing"]])
        means = [_mean(s["sojourn"]) for s in states]

        # embedded stationary law: pi (P - I) = 0 with one equation swapped for sum(pi) = 1
        system = routing.T - mpmath.eye(k_count)
        for j in range(k_count):
            system[k_count - 1, j] = 1
        rhs = mpmath.matrix([0] * (k_count - 1) + [1])
        pi = mpmath.lu_solve(system, rhs)
        reversed_routing = mpmath.matrix(k_count, k_count)
        for i in range(k_count):
            for j in range(k_count):
                reversed_routing[i, j] = pi[j] * routing[j, i] / pi[i]
        occupancy = [pi[k] * means[k] for k in range(k_count)]
        total = mpmath.fsum(occupancy)
        weights = {
            "embedded": [pi[k] for k in range(k_count)],
            "occupancy": [x / total for x in occupancy],
        }

        palm = [mpmath.matrix([1] * k_count)]
        stationary = [mpmath.matrix([1] * k_count)]
        for n in range(1, n_max + 1):
            tau = [_transform(states[k]["sojourn"], n * service[k]) for k in range(k_count)]
            matrix = -reversed_routing
            for k in range(k_count):
                matrix[k, k] += 1 / tau[k]
            # ratio of the equilibrium-residual transform to the plain one
            ratio = [
                (1 - tau[k]) / (n * service[k] * means[k]) / tau[k] if service[k] > 0 else mpmath.mpf(1)
                for k in range(k_count)
            ]
            rhs = mpmath.matrix(k_count, 1)
            acc = mpmath.matrix(k_count, 1)
            for j in range(n):
                coeff = (-1) ** (n - 1 - j) * math.comb(n, j)
                image = matrix * palm[j]
                for k in range(k_count):
                    load = coeff * rho[k] ** (n - j)
                    rhs[k] += load * image[k]
                    acc[k] += load * (stationary[j][k] - ratio[k] * palm[j][k])
            palm.append(mpmath.lu_solve(matrix, rhs))
            stationary.append(
                mpmath.matrix([ratio[k] * palm[n][k] + acc[k] for k in range(k_count)])
            )

        stirling = stirling_second_kind(n_max)
        factorial = {}
        raw = {}
        for name, w in weights.items():
            f = [mpmath.fsum(w[k] * vec[k] for k in range(k_count)) for vec in stationary]
            factorial[name] = [float(x) for x in f]
            raw[name] = [
                float(mpmath.fsum(stirling[n][j] * f[j] for j in range(n + 1)))
                for n in range(n_max + 1)
            ]
        cycle = float(k_count * mpmath.fsum(pi[k] * means[k] for k in range(k_count)))
    return {"factorial": factorial, "raw": raw, "cycle": cycle}


def self_check_poisson(reference, rho=2.0):
    """The identical-rate model is exactly Poisson(rho): f_n = rho^n."""
    for name, values in reference["factorial"].items():
        for n, value in enumerate(values):
            exact = rho ** n
            if abs(value - exact) > 1e-14 * exact:
                raise AssertionError(
                    f"reference is wrong on the Poisson model: f_{n}[{name}] = {value!r}, exact {exact!r}"
                )


def close(value, reference, tol=REL_TOL):
    return abs(value - reference) <= tol * abs(reference)


def accurate_prefix(per_order_ok):
    """Largest n such that orders 1..n all pass (index 0 of the list is order 1)."""
    n = 0
    for ok in per_order_ok:
        if not ok:
            break
        n += 1
    return n


def generator_identity_orders(params, stationary, tol=REL_TOL):
    """Per-order pass/fail of (n M - H) m^(n) = n Lambda m^(n-1), n >= 1.

    H = diag(q)(Q - I) is the generator of the time-reversed environment,
    with q the exit rates and Q = diag(pi)^-1 P' diag(pi) the reversed
    routing; pi is solved here, from the routing matrix alone.  Each
    component's residual is scaled by the magnitudes of its terms.
    """
    routing = params["routing"]
    k_count = routing.shape[0]
    # pi (P - I) = 0 and sum(pi) = 1, solved as one square system
    system = routing.T - np.eye(k_count)
    system[0, :] = 1.0
    pi = np.linalg.solve(system, np.eye(k_count)[0])
    reversed_routing = routing.T * pi[np.newaxis, :] / pi[:, np.newaxis]
    generator = params["exit_rates"][:, np.newaxis] * (reversed_routing - np.eye(k_count))
    service = params["speeds"] * params["mu"]
    passed = []
    for n in range(1, len(stationary)):
        operator = n * np.diag(service) - generator
        left = operator @ stationary[n]
        right = n * params["arrival_rates"] * stationary[n - 1]
        scale = np.abs(operator) @ np.abs(stationary[n]) + np.abs(right)
        passed.append(bool(np.all(np.abs(left - right) <= tol * scale)))
    return passed, pi
