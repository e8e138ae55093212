"""Weight recursions for the moments of the stationary customer count.

The stationary number of customers N is mixed Poisson: conditionally on
the environment history, N is Poisson with a random parameter Lambda,
the exponentially-discounted arrival mass of the past.  Its factorial
moments therefore equal the raw moments of Lambda.

Two families of vectors are computed, each of length K (one coordinate
per environment state):

* Palm vectors ``m0``: moments conditioned on a transition happening at
  the observation instant, so the look-back starts with a full sojourn.
* Stationary vectors ``m``: moments conditioned on the state occupied at
  a stationary instant, where the look-back starts with a residual
  (equilibrium) sojourn.

One look-back step through a sojourn T in state k is
``Lambda = rho_k (1 - X) + X Lambda'`` with ``X = exp(-mu_k T)`` and
Lambda' the mass at the previous transition, whose state follows the
reversed routing matrix Q.  Expanding the n-th power binomially gives

    m0^(n)_k = sum_{j<=n} w_k[n, j] rho_k^(n-j) (Q m0^(j))_k,
    w_k[n, j] = C(n, j) E[(1 - X)^(n-j) X^j] = E[P(Bin(n, X) = j)],

so every coefficient is a probability and every row of weights sums to
one.  The j = n term carries tau_k = w_k[n, n] = E[exp(-n mu_k T)], so
order n is one dense solve of ``(I - diag(tau) Q) m0^(n) = rhs`` with a
nonnegative right-hand side; the stationary vectors are the same sums
with the residual weights ``w*`` and need no solve.  No term cancels, so
the moments are accurate to roundoff at every order, and tau_k may
underflow to 0 (row k of the matrix is then e_k).

The weights of all orders form one lower-triangular table per call,
``table[k, n, j] = w_k[n, j]``.  Exponential, hyperexponential and gamma
sojourns are all mixtures of Erlang laws and share one builder;
deterministic sojourns follow Pascal's rule; any other law is
differenced exactly; zero speed (X = 1) gives the identity.

The scalar moments of N are contractions of the stationary vectors with
a state-weighting vector; both the embedded-chain weights and the
time-stationary occupancy weights are carried everywhere so they can be
compared (simulation adjudicates; see the README).
"""

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .distributions import Deterministic, Exponential, Gamma, HyperExponential
from .environment import ChainStatics, EnvironmentModel, chain_statics, require_valid
from .errors import ModelError, NumericError
from .stirling import StirlingTables

__all__ = [
    "MAX_ORDER",
    "WEIGHTINGS",
    "offered_loads",
    "recursion_matrix",
    "PalmMoments",
    "palm_moment_vectors",
    "stationary_moment_vectors",
    "MomentTable",
    "assemble_moment_table",
    "compute_moment_table",
    "markovian_identity_residuals",
    "forward_relation_residuals",
]

# the weight form holds far past order 20, but no check bounds the forward
# error of the higher orders yet; keep a hard cap until one does
MAX_ORDER = 20

SOLVE_RESIDUAL_LIMIT = 1e-8
_NEGATIVITY_FLOOR = 1e-10

WEIGHTINGS = ("embedded", "occupancy")


def _check_order(n_max: int) -> int:
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if n_max > MAX_ORDER:
        raise ValueError(
            f"n_max = {n_max} exceeds the supported maximum {MAX_ORDER}; "
            "higher orders need extended precision"
        )
    return n_max


def offered_loads(model: EnvironmentModel) -> np.ndarray:
    """Per-state offered load rho_k = lambda_k / (beta_k mu).

    States with zero arrivals get rho_k = 0 even when their speed is
    zero; a state with positive arrivals and zero speed has divergent
    load and is rejected.
    """
    lam = model.arrival_rates
    service = model.service_rates
    bad = np.flatnonzero((lam > 0.0) & (service == 0.0))
    if bad.size:
        raise ModelError(
            f"state(s) {bad.tolist()} have positive arrivals but zero service speed: "
            "offered load diverges"
        )
    rho = np.zeros(model.num_states)
    active = lam > 0.0
    rho[active] = lam[active] / service[active]
    return rho


def _gauss_beta(a: float, b: float, size: int):
    """Nodes and probabilities of the ``size``-point Gauss rule of the Beta(a, b) law.

    Golub-Welsch on the Jacobi matrix of the Jacobi polynomials with
    weight (1 - x)^(b-1) (1 + x)^(a-1) on [-1, 1], mapped to [0, 1];
    Beta(1, 1) gives the Gauss-Legendre rule.
    """
    alpha, beta = b - 1.0, a - 1.0
    k = np.arange(1.0, size)
    total = 2.0 * k + alpha + beta
    diag = np.empty(size)
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    diag[1:] = (beta**2 - alpha**2) / (total * (total + 2.0))
    off = np.empty(size - 1)
    # k = 1 with the factor 1 + alpha + beta (which may vanish) cancelled
    off[0] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + alpha + beta) ** 2 * (3.0 + alpha + beta))
    k, total = k[1:], total[1:]
    off[1:] = (
        4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
        / (total**2 * (total + 1.0) * (total - 1.0))
    )
    jacobi = np.diag(diag) + np.diag(np.sqrt(off), 1) + np.diag(np.sqrt(off), -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return (nodes + 1.0) / 2.0, vectors[0] ** 2


# Gauss rule sizes: at order 20, 16 nodes per panel of the graded gamma
# rule hold the weights within 2e-15 of extended-precision quadrature for
# service to sojourn rate ratios from 0.02 to 1e8 (12 nodes: 5e-12); the
# Legendre rule integrates (1 - e^-t)^n over [0, 2 H_n] to a few ulps.
_PANEL_NODES = 16
_LEGENDRE_NODES = 40
# Erlang branches whose tables are built at once, about 3.6 MB at order 20
_BRANCH_CHUNK = 1024


def _exponential_weights(rates: np.ndarray, service: np.ndarray, n_max: int) -> np.ndarray:
    """Weight tables of exponential sojourns, one (n_max + 1)-square table per rate.

    X = exp(-a T) is Beta(r / a, 1) for rate r and service rate a, so
    w[n, n] = r / (r + n a), the sojourn transform at n a, and
    w[n, j] = w[n-1, j] n a / (r + n a) for j < n: products of positive
    factors only.
    """
    table = np.zeros((len(rates), n_max + 1, n_max + 1))
    table[:, 0, 0] = 1.0
    for n in range(1, n_max + 1):
        denominator = rates + n * service
        np.multiply(table[:, n - 1, :n], (n * service / denominator)[:, np.newaxis], out=table[:, n, :n])
        table[:, n, n] = rates / denominator
    return table


def _gamma_scale_rule(a: float, b: float, c: float):
    """Graded Gauss rule for B ~ Beta(a, b); B = 1 when b = 0.

    The exponential rows are rational in B with poles at B = -1 / (i c),
    i = 1..n, c = mu_k / rate, which crowd towards the end point 0 as c
    grows.  So [0, 1] is cut at 4^-p < ... < 1/16 < 1/4 with
    4^-p <= 1 / (2 MAX_ORDER c): no pole and no end point singularity of
    the Beta density comes closer to a panel than a third of its width,
    and a fixed rule per panel converges at any c.  The first panel
    carries the B^(a-1) factor of the density in its Gauss weight, the
    last one the (1 - B)^(b-1) factor; the others are Gauss-Legendre.
    """
    if b == 0.0:
        return np.ones(1), np.ones(1)
    panels = max(0, math.ceil(math.log(2 * MAX_ORDER * c, 4)))
    if not panels:
        return _gauss_beta(a, b, _PANEL_NODES)
    # probabilities of the unnormalised density B^(a-1) (1 - B)^(b-1)
    low = 4.0**-panels
    z, p = _gauss_beta(a, 1.0, _PANEL_NODES)
    nodes, probs = [low * z], [p * low**a / a * (1.0 - low * z) ** (b - 1.0)]
    z, p = _gauss_beta(1.0, 1.0, _PANEL_NODES)
    lo = 4.0 ** -np.arange(panels, 1, -1.0)[:, np.newaxis]
    x = lo * (1.0 + 3.0 * z)
    nodes.append(x.ravel())
    probs.append((3.0 * lo * p * x ** (a - 1.0) * (1.0 - x) ** (b - 1.0)).ravel())
    z, p = _gauss_beta(1.0, b, _PANEL_NODES)
    x = 0.25 + 0.75 * z
    nodes.append(x)
    probs.append(p * 0.75**b / b * x ** (a - 1.0))
    probs = np.concatenate(probs)
    return np.concatenate(nodes), probs / probs.sum()


def _erlang_mixture_weights(sojourns, service, n_max, residual):
    """Exponential, hyperexponential and gamma sojourns, as mixtures of Erlang laws.

    Each state lists branches (rate, probability, q), a sojourn that is
    Erlang(q, rate) with that probability:

    * Exponential(r) is the single branch (r, 1, 1), its own residual.
    * HyperExponential has branches (r_i, p_i, 1); its residual reweights
      branch i by its mean p_i / r_i, as its sampler does.
    * Gamma(s, r), with q = ceil(s), is B G for independent
      B ~ Beta(s, q - s) and G ~ Gamma(q, r), so given B = u it is
      Erlang(q, r / u): branches (r / u, P(u), q) over the graded rule for
      B.  The residual is U Gamma(s + 1, r) = B' (U Gamma(q + 1, r)) with
      B' ~ Beta(s + 1, q - s), and U Gamma(q + 1, r) is the residual of
      Erlang(q, r): the equal mixture of Gamma(i, r), i = 1..q.  Integer
      shapes take B = 1 and are exact.

    X of Erlang(q) is a product of q independent exponential factors, so
    its weight table is the q-th power of the exponential one (the
    residual: the mean of the first q powers).
    """
    branches = []
    for dist, a in zip(sojourns, service.tolist()):
        if isinstance(dist, Exponential):
            branches.append(([dist.rate], [1.0], 1))
        elif isinstance(dist, HyperExponential):
            probs = list(dist.probs)
            if residual:
                means = [p / r for p, r in zip(probs, dist.rates)]
                probs = [m / sum(means) for m in means]
            branches.append((list(dist.rates), probs, 1))
        else:
            q = math.ceil(dist.shape)
            nodes, weights = _gamma_scale_rule(dist.shape + residual, q - dist.shape, a / dist.rate)
            branches.append(((dist.rate / nodes).tolist(), weights.tolist(), q))
    # a gamma state may have hundreds of branches: build the branch tables a
    # bounded number at a time, whole states per chunk
    sizes = np.cumsum([len(rates) for rates, _, _ in branches])
    cuts = np.flatnonzero(np.diff(sizes // _BRANCH_CHUNK)) + 1
    if not cuts.size:
        return _mix_erlang_branches(branches, service, n_max, residual)
    bounds = zip([0, *cuts], [*cuts, len(branches)])
    return np.concatenate([
        _mix_erlang_branches(branches[lo:hi], service[lo:hi], n_max, residual) for lo, hi in bounds
    ])


def _mix_erlang_branches(branches, service, n_max, residual):
    """One weight table per state from its Erlang branches (rates, probabilities, q)."""
    rates, probs, powers = zip(*branches)
    counts = [len(branch_rates) for branch_rates in rates]
    flat_rates = np.fromiter(chain.from_iterable(rates), float)
    table = _exponential_weights(flat_rates, np.repeat(service, counts), n_max)
    powers = np.repeat(powers, counts)
    for q in set(powers.tolist()) - {1}:
        chosen = np.flatnonzero(powers == q)
        factor = table[chosen]
        for n in range(n_max + 1):
            # row n of the q-th power (or of the mean of the first q powers)
            # from rows 0..n alone, so that no weight depends on n_max
            power = total = factor[:, n, : n + 1]
            for _ in range(q - 1):
                power = (power[:, np.newaxis, :] @ factor[:, : n + 1, : n + 1])[:, 0]
                total = total + power
            table[chosen, n, : n + 1] = total / q if residual else power
    if len(table) == len(branches):
        return table
    table *= np.fromiter(chain.from_iterable(probs), float)[:, np.newaxis, np.newaxis]
    return np.add.reduceat(table, np.cumsum(counts) - counts, axis=0)


def _integrated_powers(c: np.ndarray, n_max: int) -> np.ndarray:
    """I_n(c) = int_0^c (1 - e^-t)^n dt for n = 0..n_max, one row per entry of c.

    Past c = 2 H_n it is c - sum_{i<=n} (1 - e^-c)^i / i, a difference
    that keeps more than half of c; below, a Gauss-Legendre rule on
    [0, c] (the integrand is entire and varies on a scale of one).
    """
    n = np.arange(n_max + 1)
    harmonic = np.cumsum(np.concatenate(([0.0], 1.0 / n[1:])))
    y = -np.expm1(-c)[:, np.newaxis]
    partial = np.cumsum(np.hstack((np.zeros((len(c), 1)), y ** n[1:] / n[1:])), axis=1)
    closed = c[:, np.newaxis] - partial
    nodes, probs = _gauss_beta(1.0, 1.0, _LEGENDRE_NODES)
    base = -np.expm1(-np.multiply.outer(c, nodes))
    quadrature = c[:, np.newaxis] * (base[:, np.newaxis, :] ** n[:, np.newaxis] * probs).sum(axis=2)
    return np.where(c[:, np.newaxis] >= 2.0 * harmonic, closed, quadrature)


def _deterministic_weights(sojourns, service, n_max, residual):
    """Deterministic sojourns: binomial rows at x = exp(-c), c = mu_k d.

    The rows follow Pascal's rule, w[n, j] = (1 - x) w[n-1, j] + x w[n-1, j-1],
    with positive terms only.  The residual is uniform on [0, d]; for
    j >= 1 its weights are P(Bin(n, x) < j) / (c j), partial sums of the
    Palm row, and w*[n, 0] = I_n(c) / c.
    """
    c = service * np.array([dist.value for dist in sojourns])
    x, y = np.exp(-c)[:, np.newaxis], -np.expm1(-c)[:, np.newaxis]
    table = np.zeros((len(c), n_max + 1, n_max + 1))
    table[:, 0, 0] = 1.0
    for n in range(1, n_max + 1):
        previous = table[:, n - 1, :n]
        table[:, n, :n] = previous * y
        table[:, n, 1 : n + 1] += previous * x
    if not residual:
        return table
    out = np.empty_like(table)
    out[:, :, 0] = _integrated_powers(c, n_max) / c[:, np.newaxis]
    scale = c[:, np.newaxis, np.newaxis] * np.arange(1, n_max + 1)
    out[:, :, 1:] = np.cumsum(table[:, :, :-1], axis=2) / scale
    return np.tril(out)


def _difference_weights(sojourns, service, n_max, residual):
    """Any other law: exact finite differences of its transform values.

    w[n, j] = C(n, j) ((-Delta)^(n-j) tau)(j) with tau(p) the transform
    (or the residual transform (1 - tau) / (s mean)) at s = p mu_k,
    differenced in rational arithmetic so no digit is lost.  A negative
    weight means the values are not completely monotone, i.e. not the
    transform of any law (a tabulated transform too coarse for the order
    asked, say): ModelError.
    """
    # imported here: fractions loads the decimal module, about 0.4 MB that
    # no shipped sojourn family needs
    from fractions import Fraction

    table = np.zeros((len(sojourns), n_max + 1, n_max + 1))
    for k, (dist, a) in enumerate(zip(sojourns, service)):
        values = [Fraction(dist.laplace(p * a)) for p in range(n_max + 1)]
        if residual:
            scale = Fraction(a) * Fraction(dist.mean())
            values = [Fraction(1)] + [(1 - v) / (p * scale) for p, v in enumerate(values) if p]
        for gap in range(n_max + 1):
            for j, diff in enumerate(values):
                if diff < 0:
                    raise ModelError(
                        f"{type(dist).__name__} transform values at multiples of {a!r} are not "
                        f"completely monotone (weight w[{j + gap}, {j}] < 0): no law has them"
                    )
                table[k, j + gap, j] = float(math.comb(j + gap, j) * diff)
            values = [values[j] - values[j + 1] for j in range(len(values) - 1)]
    return table


def _weights(sojourns, service, n_max: int, residual: bool = False) -> np.ndarray:
    """The (K, n_max + 1, n_max + 1) lower-triangular table of weights.

    ``table[k, n, j]`` is w_k[n, j] = E[P(Bin(n, X) = j)], X = exp(-service[k] T)
    and T the sojourn of state k, or its equilibrium residual when
    ``residual``.  Every weight is nonnegative and every row sums to one.
    Zero speed gives X = 1, all the mass on j = n: the identity.
    """
    service = np.asarray(service, dtype=float)
    builders = {}
    for k, (dist, a) in enumerate(zip(sojourns, service.tolist())):
        if a == 0.0:
            builder = None
        elif isinstance(dist, (Exponential, HyperExponential, Gamma)):
            builder = _erlang_mixture_weights
        elif isinstance(dist, Deterministic):
            builder = _deterministic_weights
        else:
            builder = _difference_weights
        builders.setdefault(builder, []).append(k)
    if len(builders) == 1 and None not in builders:
        (builder,) = builders
        return builder(sojourns, service, n_max, residual)
    table = np.empty((len(sojourns), n_max + 1, n_max + 1))
    for builder, states in builders.items():
        if builder is None:
            table[states] = np.eye(n_max + 1)
        else:
            table[states] = builder([sojourns[k] for k in states], service[states], n_max, residual)
    return table


def _order_matrix(routing: np.ndarray, tau: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """The order-n system matrix I - diag(tau) Q, tau_k = w_k[n, n], built in ``out`` if given.

    tau_k may underflow to 0 (a long sojourn at a high order): row k is
    then e_k, and the system stays a nonsingular M-matrix.
    """
    matrix = np.multiply(routing, -tau[:, np.newaxis], out=out)
    matrix.flat[:: len(tau) + 1] += 1.0
    return matrix


def _solve(matrix: np.ndarray, tau: np.ndarray, rhs: np.ndarray):
    """Solve ``matrix x = rhs``; return x and the exact inf-norm condition number.

    matrix = I - diag(tau) Q with Q irreducible, nonnegative,
    row-stochastic and zero on its diagonal, 0 <= tau <= 1, and tau < 1
    in every state of positive speed: an irreducibly diagonally dominant
    M-matrix, so its inverse is nonnegative.  Hence ||matrix^-1||_inf is
    the largest entry of matrix^-1 1, solved in the same factorisation as
    a second right-hand side, and ||matrix||_inf = max(1 + tau).
    """
    both = np.linalg.solve(matrix, np.column_stack((rhs, np.ones(len(rhs)))))
    return np.ascontiguousarray(both[:, 0]), float(np.max(1.0 + tau) * np.max(both[:, 1]))


def recursion_matrix(model: EnvironmentModel, statics: ChainStatics, order: int):
    """Matrix I - diag(tau_n) Q of the order-n Palm solve, with its condition number.

    tau_n = w[n, n] = E[exp(-n mu_k T_k)] are the diagonal weights the
    Palm solve uses, read off the same weight table (0 where they
    underflow, which makes row k the unit row e_k), and the condition
    number is the exact inf-norm one from the same two-column solve (see
    ``_solve``), so both agree bit for bit with ``palm_moment_vectors``.
    """
    if order < 1:
        raise ValueError(f"recursion matrix is defined for order >= 1, got {order}")
    tau = _weights(model.sojourns, model.service_rates, order)[:, order, order]
    matrix = _order_matrix(statics.reversed_routing, tau)
    try:
        condition = _solve(matrix, tau, np.zeros(len(tau)))[1]
    except np.linalg.LinAlgError:
        condition = float("inf")
    return matrix, condition


def _require_nonnegative(vec: np.ndarray, context: str) -> None:
    """Moments of nonnegative quantities must stay nonnegative.

    Entries below the roundoff floor indicate numerical breakdown and
    raise; values are never clamped.
    """
    if not np.all(np.isfinite(vec)):
        raise NumericError(f"{context}: non-finite moment entries {vec!r}")
    floor = -_NEGATIVITY_FLOOR * max(1.0, float(np.max(np.abs(vec))))
    if np.any(vec < floor):
        raise NumericError(
            f"{context}: moment entries turned negative ({vec!r}); "
            "this indicates numerical breakdown, not a valid result"
        )


@dataclass(frozen=True)
class PalmMoments:
    """Palm moment vectors m0^(n), n = 0..n_max, with solve diagnostics.

    ``condition[n]`` is the exact inf-norm condition number of the
    order-n matrix I - diag(tau) Q, from the same factorisation as the
    solve (see ``recursion_matrix``), and ``solve_residual[n]`` the
    relative back-substitution residual of the solve (index 0 is a
    placeholder; order 0 needs no solve).
    """

    vectors: tuple
    condition: np.ndarray
    solve_residual: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.vectors) - 1


def palm_moment_vectors(
    model: EnvironmentModel, statics: ChainStatics = None, n_max: int = 10
) -> PalmMoments:
    """Moment vectors of the discounted arrival mass seen from a transition instant.

    Order 0 is the all-ones vector.  Each subsequent order n is one dense
    linear solve with two right-hand sides, never an explicit inverse:

        (I - diag(w[n, n]) Q) m0^(n) = sum_{j<n} w[n, j] R^(n-j) Q m0^(j)

    with R the diagonal matrix of offered loads; the second right-hand
    side, the ones vector, gives the exact condition number.  Solve
    residuals above 1e-8 raise NumericError carrying it.
    """
    require_valid(model)
    n_max = _check_order(n_max)
    if statics is None:
        statics = chain_statics(model)
    routing = statics.reversed_routing
    load_powers = offered_loads(model)[:, np.newaxis] ** np.arange(n_max + 1)

    vectors = [np.ones(model.num_states)]
    routed = np.empty((model.num_states, n_max + 1))
    routed[:, 0] = routing @ vectors[0]
    condition = np.full(n_max + 1, np.nan)
    solve_residual = np.full(n_max + 1, np.nan)

    buffer = np.empty_like(routing)
    weights = _weights(model.sojourns, model.service_rates, n_max)
    for n in range(1, n_max + 1):
        tau = weights[:, n, n]
        matrix = _order_matrix(routing, tau, out=buffer)
        rhs = (weights[:, n, :n] * load_powers[:, n:0:-1] * routed[:, :n]).sum(axis=1)
        try:
            solution, cond = _solve(matrix, tau, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"order-{n} system is singular: {exc}") from exc
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        residual = float(np.max(np.abs(matrix @ solution - rhs))) / scale
        if residual > SOLVE_RESIDUAL_LIMIT:
            raise NumericError(
                f"order-{n} solve is ill-conditioned: relative residual {residual:.3e} "
                f"exceeds {SOLVE_RESIDUAL_LIMIT:g} (condition {cond:.3e})"
            )
        _require_nonnegative(solution, f"palm moment vector at order {n}")
        vectors.append(solution)
        routed[:, n] = routing @ solution
        condition[n] = cond
        solve_residual[n] = residual

    return PalmMoments(
        vectors=tuple(vectors),
        condition=condition,
        solve_residual=solve_residual,
    )


def stationary_moment_vectors(
    model: EnvironmentModel, statics: ChainStatics, palm: PalmMoments
) -> tuple:
    """Moment vectors seen from a stationary instant, one per order.

    The stationary look-back differs from the Palm one only through the
    in-progress sojourn, which is a residual rather than a full one, so
    the same sums with the residual weights give it with no solve:

        m^(n) = sum_{j<=n} w*[n, j] R^(n-j) Q m0^(j)

    over the products Q m0^(j) of the Palm vectors.  A memoryless state
    (exponential, or zero speed) has w* = w, and its entry is copied from
    the Palm vector, so all-exponential models give the two families bit
    for bit equal.
    """
    service = model.service_rates
    vectors = [vec.copy() for vec in palm.vectors]
    states = [
        k for k, dist in enumerate(model.sojourns)
        if service[k] > 0.0 and not isinstance(dist, Exponential)
    ]
    if not states:
        return tuple(vectors)
    load_powers = offered_loads(model)[states, np.newaxis] ** np.arange(palm.n_max + 1)
    routed = statics.reversed_routing[states] @ np.array(palm.vectors).T
    weights = _weights([model.sojourns[k] for k in states], service[states], palm.n_max, residual=True)
    for n in range(1, palm.n_max + 1):
        vectors[n][states] = (weights[:, n, : n + 1] * load_powers[:, n::-1] * routed[:, : n + 1]).sum(axis=1)
        _require_nonnegative(vectors[n], f"stationary moment vector at order {n}")
    return tuple(vectors)


@dataclass(frozen=True)
class MomentTable:
    """Per-order moment summary of the stationary customer count.

    ``aggregated[w][n]`` is the order-n moment of the mixing mass under
    weighting ``w``; by the mixed-Poisson identity it equals the order-n
    factorial moment of N.  ``raw[w][n]`` are the corresponding raw
    moments via the second-kind Stirling transform.  ``weighting`` names
    the default view used by the accessors.
    """

    n_max: int
    palm: tuple
    stationary: tuple
    aggregated: dict
    raw: dict
    weighting: str
    bn_condition: np.ndarray
    solve_residual: np.ndarray
    identity_residuals: dict = field(default_factory=dict)

    def factorial_moments(self, weighting: str = None) -> np.ndarray:
        """f_N^(n), n = 0..n_max, under the given (or default) weighting."""
        return self.aggregated[weighting or self.weighting]

    def raw_moments(self, weighting: str = None) -> np.ndarray:
        """E[N^n], n = 0..n_max, under the given (or default) weighting."""
        return self.raw[weighting or self.weighting]


def assemble_moment_table(
    model: EnvironmentModel,
    statics: ChainStatics,
    palm: PalmMoments,
    stationary: tuple,
    weighting: str = "occupancy",
    with_checks: bool = True,
) -> MomentTable:
    """Contract the stationary vectors into scalar moments of N.

    Both weightings (embedded-chain vector and time-stationary
    occupancy) are always computed and stored; ``weighting`` only picks
    the default view.  With ``with_checks`` the structural identity
    residuals are evaluated and recorded as diagnostics.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    n_max = palm.n_max
    tables = StirlingTables(n_max)
    weights = {"embedded": statics.pi, "occupancy": statics.occupancy}
    aggregated = {}
    raw = {}
    for name, w in weights.items():
        scalars = np.array([float(w @ vec) for vec in stationary])
        _require_nonnegative(scalars, f"aggregated moments under {name} weighting")
        aggregated[name] = scalars
        raw[name] = tables.raw_from_factorial(scalars)

    identity_residuals = {}
    if with_checks:
        identity_residuals["forward_relation"] = forward_relation_residuals(
            model, statics, palm
        )
        identity_residuals["markovian_identity"] = markovian_identity_residuals(
            model, statics, stationary
        )

    return MomentTable(
        n_max=n_max,
        palm=palm.vectors,
        stationary=tuple(stationary),
        aggregated=aggregated,
        raw=raw,
        weighting=weighting,
        bn_condition=palm.condition,
        solve_residual=palm.solve_residual,
        identity_residuals=identity_residuals,
    )


def compute_moment_table(
    model: EnvironmentModel,
    n_max: int = 10,
    weighting: str = "occupancy",
    statics: ChainStatics = None,
    with_checks: bool = True,
) -> MomentTable:
    """Convenience pipeline: statics, Palm solve, stationary update, assembly."""
    if statics is None:
        statics = chain_statics(model)
    palm = palm_moment_vectors(model, statics, n_max)
    stationary = stationary_moment_vectors(model, statics, palm)
    return assemble_moment_table(
        model, statics, palm, stationary, weighting=weighting, with_checks=with_checks
    )


def _all_exponential(model: EnvironmentModel) -> bool:
    return all(isinstance(d, Exponential) for d in model.sojourns)


def markovian_identity_residuals(
    model: EnvironmentModel, statics: ChainStatics, stationary: tuple
) -> np.ndarray:
    """Residuals of the Markov-environment generator identity, or None.

    With exponential sojourns the environment is a Markov jump process
    whose reversed-time generator is H = diag(1/mean_k)(Q - I), and the
    stationary vectors satisfy the column relation
    (n M - H) m^(n) = n Lambda m^(n-1) for n >= 1, with M and Lambda the
    diagonal service-rate and arrival-rate matrices.  Transposing and
    conjugating by Pi = diag(pi) turns it into the row relation

        (m^(n)' Pi)(n M - (P - I) diag(1/mean_k)) = n (m^(n-1)' Pi) Lambda

    which is what is evaluated here.  Note the operator order: the
    similarity transform of H' by Pi is (P - I) diag(1/mean_k), which
    differs from the forward generator diag(1/mean_k)(P - I) whenever
    the sojourn means are heterogeneous.  Returns the scaled max-norm
    residual per order (index 0 unused, set to 0), or None when a
    non-exponential sojourn makes the identity inapplicable.
    """
    if not _all_exponential(model):
        return None
    exit_rates = np.array([1.0 / d.mean() for d in model.sojourns])
    reversed_generator_t = (model.routing - np.eye(model.num_states)) * exit_rates[np.newaxis, :]
    rows = np.array(stationary) * statics.pi
    orders = np.arange(len(rows))[:, np.newaxis]
    # row @ (n M - G) = n row * service - row @ G, with all rows @ G in one product
    left = (orders * rows * model.service_rates - rows @ reversed_generator_t)[1:]
    right = orders[1:] * rows[:-1] * model.arrival_rates

    scale = np.maximum(np.abs(left).max(axis=1), np.abs(right).max(axis=1))
    residuals = np.zeros(len(rows))
    residuals[1:] = np.abs(left - right).max(axis=1) / np.maximum(scale, 1e-300)
    return residuals


def forward_relation_residuals(
    model: EnvironmentModel, statics: ChainStatics, palm: PalmMoments
) -> np.ndarray:
    """Residuals of the forward-routing form of the Palm recursion.

    The Palm recursion is stated against the reversed routing matrix Q;
    transposing it yields an equivalent row-vector relation against the
    forward matrix P, multiplied here on the right by diag(tau) so that
    no 1/tau appears:

        sum_j (-1)^j C(n,j) (m0^(j)' Pi - (m0^(j)' Pi P) diag(tau)) R^(n-j) = 0,

    with tau_k = tau_k(n mu_k) read from each law's ``laplace``, an
    independent source for the weights the solve used.  It exercises an
    independent code path and is returned here as a scaled max-norm
    residual per order (order 0 included: it reduces to the stationarity
    of pi).
    """
    rho = offered_loads(model)
    rho_top = max(float(np.max(rho)), 1e-300)
    rows = np.array(palm.vectors) * statics.pi
    service = model.service_rates.tolist()
    transforms = [[d.laplace(n * a) for d, a in zip(model.sojourns, service)] for n in range(len(rows))]
    # row @ (I - P diag(tau)) = row - (row @ P) * tau, with all rows @ P in one product
    rows_routed = rows @ model.routing
    row_norms = np.abs(rows).max(axis=1)
    rho_powers = rho ** np.arange(len(rows))[:, np.newaxis]
    routing_col_sums = model.routing.sum(axis=0)

    residuals = np.zeros(len(rows))
    for n, tau in enumerate(np.array(transforms)):
        coeffs = np.array([(-1.0) ** j * math.comb(n, j) for j in range(n + 1)])
        terms = (rows[: n + 1] - rows_routed[: n + 1] * tau) * rho_powers[n::-1]
        total = coeffs @ terms
        # scale by the input magnitudes, not the realized (cancelling) terms:
        # a bound on |row @ matrix| is |row|_inf times the matrix 1-norm,
        # which is max(1 + tau * column sums of P) exactly since P >= 0 has
        # zero diagonal and tau >= 0
        matrix_bound = float(np.max(1.0 + tau * routing_col_sums))
        top_terms = np.abs(coeffs) * row_norms[: n + 1] * rho_top ** np.arange(n, -1, -1)
        scale = max(float(np.max(top_terms)) * matrix_bound, 1e-300)
        residuals[n] = float(np.max(np.abs(total))) / scale
    return residuals
