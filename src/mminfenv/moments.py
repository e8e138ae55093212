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
order n is one linear system ``(I - diag(tau) Q) m0^(n) = rhs`` with a
nonnegative right-hand side.  With E = Q - 1 pi', pi the stationary law
of Q, its matrix splits exactly as (I - diag(tau) E) - tau pi', and
Sherman-Morrison gives the solution from y and z, the series
sum_i (diag(tau) E)^i applied to the right-hand side and to tau:

    x = y + z (pi.y) / (1 - pi.z),

where 1 - pi.z > 0 by the matrix determinant lemma.  E has the Perron
mode of diag(tau) Q deflated, and
q_n = max_k tau_k sum_j |Q_kj - pi_j| >= ||diag(tau) E||_inf.  E and
the row sums of |E| are built once with the model, so each term of the
series is one product with E and q_n needs no pass over Q.  The
tail of the series after a term t is at most ||t||_inf q_n / (1 - q_n)
for any sign pattern, which gives both the a-priori length
ceil(log(u (1 - q_n)) / log(q_n)) - 1 and the stopping rule (the tail
at most the unit roundoff u, normwise).  An order whose length is within
the measured cost of one LU sums the series.  The bound over-predicts
(the terms shrink faster than q_n), so an order whose length is at most
twice that cost tries the series within it first, and takes one dense
LU only if the trial runs out.  After one such failure the later orders
of the call try no more, so a call wastes at most one LU's cost of
products.  Every other order takes one dense LU (see ``_series_grants``
and ``_solve``).
The stationary vectors are the same sums with the residual weights
``w*``, the weights of the length-biased residual sojourn, and need no
solve.  No weight cancels, so the scalar moments,
and the Palm vectors of the orders that take the LU, are accurate to
roundoff at every order.  The series stops on a normwise tail rule, so
the Palm vectors of its orders are accurate to roundoff only normwise:
where their entries spread widely, small entries lose relative digits
(9.2e-10 at worst on the sparse ``ring_model(200)`` of the tests).
tau_k may underflow to 0 (row k of the matrix is then e_k).

The weights of all orders, Palm and residual, form one table per call,
built once by the Palm step, which hands the residual part to the
stationary one.  It is order-major and lower-triangular in (n, j):
``table[n, j, k] = w_k[n, j]`` for the K states, then w*[n, j] for each
state with memory (positive speed, not exponential; every other state
has w* = w), so order n reads row n of every state as one (n + 1) x K
block.  The table is built at the order asked for, N = n_max.  Each law
gives only its two top rows, at order N and from one pass: exponential,
hyperexponential and gamma sojourns as mixtures and sums of Erlang
laws, a gamma of fractional shape through one graded Gauss rule for
both rows, deterministic sojourns as a binomial pmf and its partial
sums, and zero speed (X = 1) as all its mass on j = N.  These four
families are the only laws a model admits.  Every lower row follows by
Bernstein degree reduction, one add per weight with positive terms only
(see ``_weights``).  No weight reads MAX_ORDER, the cap on the order a
caller may ask for.

The scalar moments of N are contractions of the stationary vectors with
a state-weighting vector; both the embedded-chain weights and the
time-stationary occupancy weights are carried everywhere so they can be
compared (simulation adjudicates; see ``checks.simulation_checks``).
Their raw moments follow by the second-kind Stirling transform, from
one triangle at MAX_ORDER (see ``raw_from_factorial``).  Every function
here reads the embedded chain's law, the reversed routing, E, the row
sums of |E| and the mean sojourns from the model's ``statics``, and the
service rates mu_k and the offered loads rho_k = lambda_k / mu_k from
its fields of those names, all computed once when the model is built.

One identity checks both families at every order, for every sojourn
law: rate conservation for Lambda^n 1{state k}, which moves as
dLambda/dt = lambda_k - mu_k Lambda between environment jumps and is
continuous at them (see ``rate_conservation_residuals``).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import Deterministic, Exponential, Gamma, HyperExponential
from .environment import _ROUNDOFF, ChainStatics, EnvironmentModel, _series_budget
from .errors import NumericError, as_integer

__all__ = [
    "MAX_ORDER",
    "WEIGHTINGS",
    "PalmMoments",
    "palm_moment_vectors",
    "stationary_moment_vectors",
    "MomentTable",
    "assemble_moment_table",
    "compute_moment_table",
    "rate_conservation_residuals",
    "raw_from_factorial",
]

# no check bounds the forward error of the higher orders yet; keep a hard
# cap until one does
MAX_ORDER = 20

SOLVE_RESIDUAL_LIMIT = 1e-8
_NEGATIVITY_FLOOR = 1e-10

WEIGHTINGS = ("embedded", "occupancy")


def _check_order(n_max: int) -> int:
    n_max = as_integer(n_max, "n_max")
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    if n_max > MAX_ORDER:
        raise ValueError(
            f"n_max = {n_max} exceeds the supported maximum {MAX_ORDER}; "
            "higher orders need extended precision"
        )
    return n_max


def _gauss_beta(a, b, size: int):
    """Nodes and probabilities of the ``size``-point Gauss rules of the Beta(a, b) laws.

    Golub-Welsch on the Jacobi matrix of the Jacobi polynomials with
    weight (1 - x)^(b-1) (1 + x)^(a-1) on [-1, 1], mapped to [0, 1];
    Beta(1, 1) gives the Gauss-Legendre rule.  ``a`` and ``b`` broadcast
    to the leading shape of the results, one rule per entry, and all the
    rules come from one stacked eigen-solve.
    """
    alpha, beta = np.broadcast_arrays(np.asarray(b, dtype=float) - 1.0, np.asarray(a, dtype=float) - 1.0)
    alpha, beta = alpha[..., np.newaxis], beta[..., np.newaxis]
    k = np.arange(1.0, size)
    total = 2.0 * k + alpha + beta
    diag = np.empty(alpha.shape[:-1] + (size,))
    diag[..., :1] = (beta - alpha) / (alpha + beta + 2.0)
    diag[..., 1:] = (beta**2 - alpha**2) / (total * (total + 2.0))
    off = np.empty(alpha.shape[:-1] + (size - 1,))
    # k = 1 with the factor 1 + alpha + beta (which may vanish) cancelled
    off[..., :1] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + alpha + beta) ** 2 * (3.0 + alpha + beta))
    k, total = k[1:], total[..., 1:]
    off[..., 1:] = (
        4.0 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
        / (total**2 * (total + 1.0) * (total - 1.0))
    )
    jacobi = np.zeros(diag.shape + (size,))
    index = np.arange(size)
    jacobi[..., index, index] = diag
    jacobi[..., index[1:], index[:-1]] = jacobi[..., index[:-1], index[1:]] = np.sqrt(off)
    nodes, vectors = np.linalg.eigh(jacobi)
    return (nodes + 1.0) / 2.0, vectors[..., 0, :] ** 2


# Gauss rule sizes: at order 20, 16 nodes per panel of the graded gamma
# rule hold the weights within 5e-15 of an 80-digit evaluation for
# service to sojourn rate ratios from 0.02 to 1e8 (12 nodes: 5e-12), and
# within 6e-15 of a 250-digit one from 1e-4 to 0.02; tables built at
# orders 1-10, whose cut follows their order, read within 2.7e-15 of
# 250-digit values from 1e-4 to 1e8 (shapes up to 46).  The Legendre rule
# integrates (1 - e^-t)^N over [0, 2 H_N] to a few ulps.
_PANEL_NODES = 16
_LEGENDRE_NODES = 40

@lru_cache(maxsize=None)
def _legendre_rule(size: int):
    """The ``size``-point Gauss-Legendre rule on [0, 1], built once and read-only."""
    nodes, probs = _gauss_beta(1.0, 1.0, size)
    nodes.flags.writeable = probs.flags.writeable = False
    return nodes, probs


def _erlang_rows(rho: np.ndarray, powers: np.ndarray, n_max: int) -> tuple:
    """Top rows w[N, j], N = ``n_max``, of Erlang(q) sojourns and of their residuals, one column per branch.

    ``rho`` is the branch rate over the service rate and ``powers`` its q.
    X of an exponential sojourn is Beta(rho, 1), so with
    y_m = rho / (rho + m), w[N, j] = C(N, j) rho B(j + rho, N - j + 1) =
    y_j prod_{m>j} m / (rho + m).  X of Erlang(q) is a product of q such
    factors, which multiplies that row by the complete homogeneous
    polynomial h_{q-1}(y_j, ..., y_N), formed as suffix sums
    h_i[j] = sum_{m>=j} y_m h_{i-1}[m] from h_0 = 1.  The residual of
    Erlang(q) is the equal mixture of Erlang(1..q): the mean of
    h_0..h_{q-1}, the running total of the same suffix sums.  Every term
    is positive.  Where every q is 1 the two rows are one array.
    """
    m = np.arange(n_max + 1.0)[:, np.newaxis]
    denominators = rho + m
    y = rho / denominators
    rows = y.copy()
    rows[:-1] *= np.cumprod((m[1:] / denominators[1:])[::-1], axis=0)[::-1]
    erlang = set(powers.tolist()) - {1}
    residual = rows.copy() if erlang else rows
    for q in erlang:
        chosen = np.flatnonzero(powers == q)
        power = total = np.ones((n_max + 1, len(chosen)))
        for _ in range(q - 1):
            power = np.cumsum((y[:, chosen] * power)[::-1], axis=0)[::-1]
            total = total + power
        rows[:, chosen] *= power
        residual[:, chosen] *= total / q
    return rows, residual


def _exponential_rows(sojourns, service, n_max):
    """Exponential sojourns: one Erlang(1) branch each, its own residual."""
    rho = np.array([dist.rate for dist in sojourns]) / service
    return _erlang_rows(rho, np.ones(len(rho), dtype=int), n_max)[0]


def _gamma_scale_rules(f: list, c: list, n_max: int) -> list:
    """One graded Gauss rule for the time scale B of each Gamma(f_i) state, 0 < f_i < 1.

    B ~ Beta(f, 1 - f), of density proportional to B^(f-1) (1 - B)^(-f)
    (see ``_erlang_mixture_rows``).  The exponential rows are rational in
    B with poles at B = -1 / (i c), i = 1..N, N = ``n_max``,
    c = mu_k / rate, which crowd towards the end point 0 as c grows.  So
    [0, 1] is cut at 4^-p < ... < 1/16 < 1/4, at least at 1/4, with
    4^-p <= 1 / (2 N c) (only at 1/4 for N = 0, which has no pole): no
    pole and no end point singularity of the density comes closer to a
    panel than a third of its width, and a fixed rule per panel converges
    at any c.  The first panel [0, L], L = 4^-p, is the Beta(f + 1, 1)
    rule, the middle ones Gauss-Legendre and the last one the
    Beta(1, 1 - f) rule, which carries the (1 - B)^(-f) factor in its
    Gauss weight.  The Beta(f + 1, 1) and Beta(1, 1 - f) rules of every
    state come from one stacked eigen-solve.

    Each rule is (nodes, probs, first, excess, atom), the first
    ``_PANEL_NODES`` nodes on the first panel, and both tables read it.
    ``probs`` are the Palm probabilities of the nodes, so that
    sum_i probs_i g(B_i), g the exponential row at time scale B_i, is
    the Palm row but for the first panel's j = N entries, and,
    reweighted by the branch means B_i / rate, the residual row (the
    residual time scale is Beta(f + 1, 1 - f), of density B times the
    Palm one).  Near B = 0 the Palm integrand B^(f-1) phi(B),
    phi = g h, h = (1 - B)^(-f), is singular, but phi(0) = e_N, so the
    first panel is e_N L^f / f plus int_0^L [(phi - e_N) / B] B^f dB, and
    the Beta(f + 1, 1) rule integrates the bracket: ``first`` weights it,
    ``excess`` holds h - 1 at the first panel's nodes and ``atom`` is the
    limit L^f / f.  The first panel's ``probs`` are ``first`` times h,
    and every Palm weight is divided by the mass, the sum of the panels'
    masses: L^f / f + sum first (h - 1), then the other ``probs``.
    """
    count = len(f)
    panels = [max(1, math.ceil(math.log(max(2 * n_max * ci, 1.0), 4))) for ci in c]
    nodes, probs = _gauss_beta([fi + 1.0 for fi in f] + [1.0] * count, [1.0] * count + [1.0 - fi for fi in f],
                               _PANEL_NODES)
    legendre_nodes, legendre_probs = _legendre_rule(_PANEL_NODES)
    rules = []
    for z, p, z_last, p_last, fi, m in zip(nodes, probs, nodes[count:], probs[count:], f, panels):
        low = 4.0**-m
        excess = np.expm1(-fi * np.log1p(-low * z))
        first = p * low**fi / (fi + 1.0) / z
        lo = 4.0 ** -np.arange(m, 1, -1.0)[:, np.newaxis]
        x = lo * (1.0 + 3.0 * legendre_nodes)
        middle = (3.0 * lo * legendre_probs * x ** (fi - 1.0) * (1.0 - x) ** -fi).ravel()
        x_last = 0.25 + 0.75 * z_last
        last = p_last * 0.75 ** (1.0 - fi) / (1.0 - fi) * x_last ** (fi - 1.0)
        atom = low**fi / fi
        mass = atom + (first * excess).sum() + middle.sum() + last.sum()
        rule_probs = np.concatenate((first * (1.0 + excess), middle, last))
        rule_nodes = np.concatenate((low * z, x.ravel(), x_last))
        rules.append((rule_nodes, rule_probs / mass, first / mass, excess, atom / mass))
    return rules


def _erlang_mixture_rows(sojourns, service, n_max):
    """Palm and residual top rows of hyperexponential and gamma sojourns, as mixtures and sums of Erlang laws.

    Each state lists branches (rate, probability, q), a sojourn that is
    Erlang(q, rate) with that probability:

    * HyperExponential has branches (r_i, p_i, 1).
    * Gamma(s, r) of integer s is the one branch (r, 1, s), exact.
    * Gamma(f, r), 0 < f < 1, is B E for independent B ~ Beta(f, 1 - f)
      and E ~ Exponential(r), so given B = u it is Exponential(r / u):
      branches (r / u, P(u), 1) over the graded rule for B, whose first
      panel takes its B = 0 limit exactly (see ``_gamma_scale_rules``).

    The residual of a mixture of q = 1 branches is the same mixture with
    branch i reweighted by its mean p_i / r_i (the length bias, as the
    hyperexponential sampler draws it), and the residual of Erlang(q)
    comes from ``_erlang_rows``; both come from the same branch rows as
    the Palm row.

    Any other Gamma(s, r) is the sum of independent Erlang(q, r) and
    Gamma(f, r) sojourns, q = floor(s), f = s - q.  X of a sum is the
    product of its terms' X, and binomial thinning,
    Bin(n, X1 X2) = Bin(Bin(n, X1), X2), makes weight tables multiply:
    the top row is w_f[N, :] @ W_q, W_q the Palm table of Erlang(q, r).
    The residual lies in the Erlang term with probability q / s, and
    otherwise past all of it, in the residual of the Gamma(f, r) term:
    (f / s) w*_f[N, :] @ W_q + (q / s) w*_q[N, :].  W_q and w*_q come
    from one ``_weights`` build of the Erlang(q) terms.  Every term is
    positive, and the graded rule only ever sees shapes below 1.
    """
    # the graded rules of the fractional parts f = s - floor(s), all at once
    fractional = [k for k, dist in enumerate(sojourns) if isinstance(dist, Gamma) and dist.shape % 1.0]
    rules = {}
    if fractional:
        shapes = [sojourns[k].shape % 1.0 for k in fractional]
        scales = [service[k] / sojourns[k].rate for k in fractional]
        rules = dict(zip(fractional, _gamma_scale_rules(shapes, scales, n_max)))
    branches = []
    for k, dist in enumerate(sojourns):
        if isinstance(dist, HyperExponential):
            branch_rates, branch_probs, power = np.array(dist.rates), np.array(dist.probs), 1
        else:
            nodes, branch_probs = rules[k][:2] if k in rules else (np.ones(1), np.ones(1))
            branch_rates, power = dist.rate / nodes, 1 if k in rules else math.ceil(dist.shape)
        # the residual reweights each branch by its mean
        means = branch_probs / branch_rates
        branches.append((branch_rates, branch_probs, means / means.sum(), power))
    rates, probs, residual_probs, powers = zip(*branches)
    counts = [len(branch_rates) for branch_rates in rates]
    starts = np.cumsum(counts) - counts
    branch_rho = np.concatenate(rates) / np.repeat(service, counts)
    rows, residual = _erlang_rows(branch_rho, np.repeat(powers, counts), n_max)
    palm = rows * np.concatenate(probs)
    if rules:
        # the first panel of each rule weights phi - e_N, whose j = N entry
        # is g_N (h - 1) - sum_{j<N} g_j, and the limit puts its atom at N
        _, _, first, excess, atoms = zip(*rules.values())
        index = (starts[list(rules)][:, np.newaxis] + np.arange(_PANEL_NODES)).ravel()
        below = rows[:-1, index].sum(axis=0)
        palm[n_max, index] = (rows[n_max, index] * np.concatenate(excess) - below) * np.concatenate(first)
        palm[n_max, starts[list(rules)]] += atoms
    palm = np.add.reduceat(palm, starts, axis=1)
    residual = np.add.reduceat(residual * np.concatenate(residual_probs), starts, axis=1)
    composed = [k for k in rules if sojourns[k].shape > 1.0]
    if composed:
        s = np.array([sojourns[k].shape for k in composed])
        q = np.floor(s)
        erlangs = [Gamma(qk, sojourns[k].rate) for qk, k in zip(q.tolist(), composed)]
        table = _weights(erlangs, service[composed], n_max)
        erlang, erlang_residual = table[:, :, : len(composed)], table[n_max, :, len(composed) :]
        top = np.einsum("mk,mjk->jk", residual[:, composed], erlang)
        palm[:, composed] = np.einsum("mk,mjk->jk", palm[:, composed], erlang)
        residual[:, composed] = (s - q) / s * top + q / s * erlang_residual
    return palm, residual


def _integrated_power(c: np.ndarray, n_max: int) -> np.ndarray:
    """I_N(c) = int_0^c (1 - e^-t)^N dt, N = ``n_max``, one entry per entry of c.

    Past c = 2 H_N it is c - sum_{i<=N} (1 - e^-c)^i / i, a difference
    that keeps more than half of c; below, a Gauss-Legendre rule on
    [0, c] (the integrand is entire and varies on a scale of one).
    """
    i = np.arange(1, n_max + 1)
    y = -np.expm1(-c)[:, np.newaxis]
    closed = c - (y**i / i).sum(axis=1)
    nodes, probs = _legendre_rule(_LEGENDRE_NODES)
    quadrature = c * ((-np.expm1(-np.multiply.outer(c, nodes))) ** n_max * probs).sum(axis=1)
    return np.where(c >= 2.0 * np.sum(1.0 / i), closed, quadrature)


def _deterministic_rows(sojourns, service, n_max):
    """Palm and residual top rows of deterministic sojourns: the binomial pmf at x = exp(-c), c = mu_k d.

    The residual is uniform on [0, d]; for j >= 1 its weights are
    P(Bin(N, x) < j) / (c j), partial sums of the Palm row, and
    w*[N, 0] = I_N(c) / c.
    """
    c = service * np.array([dist.value for dist in sojourns])
    j = np.arange(n_max + 1)[:, np.newaxis]
    row = _binomials(n_max)[-1][:, np.newaxis] * np.exp(-c) ** j
    row *= (-np.expm1(-c)) ** (n_max - j)
    residual = np.empty_like(row)
    residual[0] = _integrated_power(c, n_max) / c
    residual[1:] = np.cumsum(row[:-1], axis=0) / (j[1:] * c)
    return row, residual


def _weights(sojourns, service, n_max: int) -> np.ndarray:
    """The (n_max + 1, n_max + 1, K + M) table of Palm and residual weights, lower-triangular in (n, j).

    ``table[n, j, k]``, k < K, is w_k[n, j] = E[P(Bin(n, X) = j)],
    X = exp(-service[k] T) and T the sojourn of state k.  The M states
    with memory, those of positive speed whose sojourn is not exponential,
    follow in state order: ``table[n, j, K + i]`` is w*[n, j] of the i-th
    of them, with T its equilibrium residual.  Every other state has
    w* = w and no residual column, so an all-exponential table is the K
    Palm columns alone.  The table is C-contiguous, so row n of every
    column is the one (n + 1) x (K + M) block ``table[n, : n + 1]``.
    Every weight is nonnegative and every row sums to one.

    Each family gives only its top rows, n = N = ``n_max``, its Palm and
    residual rows from one pass; zero speed (X = 1) gives e_N.  The rows
    below follow by Bernstein degree reduction, one pass for every
    column (Farouki and Rajan, 1988): v[n, j] = w[n, j] / C(n, j) =
    E[(1 - X)^(n-j) X^j] satisfies v[n-1, j] = v[n, j] + v[n, j+1], a sum
    of positive terms, elementwise in k.  The reduction runs on 2^64 v, a
    scaling by a power of two and so exact, so that a v that is subnormal
    in double precision still adds with its full 53 bits: the top row is
    divided by C(N, j) / 2^64, and every row then multiplied by
    C(n, j) / 2^64.
    """
    service = np.asarray(service, dtype=float)
    builders = {}
    for k, (dist, a) in enumerate(zip(sojourns, service.tolist())):
        if a == 0.0:
            builder = None
        elif isinstance(dist, Exponential):
            builder = _exponential_rows
        elif isinstance(dist, Deterministic):
            builder = _deterministic_rows
        else:
            builder = _erlang_mixture_rows
        builders.setdefault(builder, []).append(k)
    count = len(sojourns)
    memory = sorted(builders.get(_deterministic_rows, []) + builders.get(_erlang_mixture_rows, []))
    table = np.zeros((n_max + 1, n_max + 1, count + len(memory)))
    top = table[n_max]
    for builder, states in builders.items():
        # a family that holds every state needs no gather or scatter
        index = states if len(states) < count else slice(count)
        if builder is None:
            top[n_max, index] = 1.0
        elif builder is _exponential_rows:
            top[:, index] = builder([sojourns[k] for k in states], service[index], n_max)
        else:
            top[:, index], top[:, count + np.searchsorted(memory, states)] = builder(
                [sojourns[k] for k in states], service[index], n_max
            )
    descale = _binomials(n_max)[:, :, np.newaxis] / 2.0**64
    top /= descale[n_max]
    for n in range(n_max, 0, -1):
        np.add(table[n, :n], table[n, 1 : n + 1], out=table[n - 1, :n])
    # row by row, so that the zero pages above the diagonal are never touched
    for n in range(n_max + 1):
        table[n, : n + 1] *= descale[n, : n + 1]
    return table


def _order_matrix(routing: np.ndarray, negated_tau: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The order-n system matrix I - diag(tau) Q, tau_k = w_k[n, n], built in ``out`` from the column -tau.

    tau_k may underflow to 0 (a long sojourn at a high order): row k is
    then e_k, and the system stays a nonsingular M-matrix.  ``out`` is
    C-contiguous, so its diagonal is a strided view of its flat storage.
    """
    matrix = np.multiply(routing, negated_tau, out=out)
    matrix.reshape(-1)[:: len(routing) + 1] += 1.0
    return matrix


def _series_length(bound):
    """The products a series bounded by ``bound`` >= q_n may need, and q_n clamped.

    ceil(log(u (1 - q)) / log(q)) - 1, at least 1, which grows with q.  The
    clamps keep the logarithms finite where q_n underflowed to 0 or reached 1.
    """
    q = np.clip(bound, np.finfo(float).tiny, 1.0 - _ROUNDOFF)
    return np.maximum(np.ceil(np.log(_ROUNDOFF * (1.0 - q)) / np.log(q)) - 1.0, 1.0), q


def _series_grants(taus: np.ndarray, pi: np.ndarray, row_sums: np.ndarray):
    """Per order, its plan (the products its series may take, -budget for a trial, 0 for an LU) and q_n.

    ``taus[n]`` holds the diagonal weights of order n.  E = Q - 1 pi'
    (pi Q = pi), Q with its Perron mode taken out, splits the order-n
    matrix exactly as I - diag(tau) Q = (I - diag(tau) E) - tau pi', and
    ||diag(tau) E||_inf <= q_n = max_k tau_k sum_j |Q_kj - pi_j|, read off
    ``row_sums``, the row sums of |E| the model's statics carry
    (``ChainStatics.deflated_row_sums``).  q_n is raised by
    4 K u tau_max, which bounds the rounding of one term: the series
    multiplies by the computed E, whose entries are within u |E| of the
    exact ones, so a product errs by at most (K + 1) u |t| |E|' (K u from
    the product, u from the entries) and the scaling by tau by u more;
    as the rows of |E| sum to at most 2, that is at most
    2 (K + 2) u tau_max ||t||_inf, within the margin from K = 2 on.  So
    every computed term is at most q_n times the one before, and the tail
    rule of ``_solve``, ||t||_inf q_n / (1 - q_n) <= u ||first term||_inf,
    fires after at most ceil(log(u (1 - q_n)) / log(q_n)) - 1 products
    (and at least one; see ``_series_length``).  Orders whose grant is
    within ``_series_budget``, below the measured cost of one LU, get it.
    An order whose length from q_n is at most twice the budget gets
    -int(budget) instead: it tries the series within the budget first
    (see ``_solve`` and ``palm_moment_vectors``).  The others get 0, and
    so does every order below K = 10.  Sparse routing, whose rows of
    |Q - 1 pi'| sum to nearly 2, bounds the series loosely and takes the
    LU more often.

    Row k of |Q - 1 pi'| holds |0 - pi_k| (Q has a zero diagonal) beside
    nonnegative terms, so even its computed sum is at least pi_k, and
    q_n >= max_k tau_k pi_k.  Where that lower bound already grants every
    order more than the budget, every order takes the LU and tries
    nothing, and q_n is returned as 1.
    """
    k_count = len(pi)
    budget = _series_budget(k_count)
    if budget < 1.0 or _series_length((taus * pi).max(axis=1).min())[0] > budget:
        return [0] * len(taus), np.ones(len(taus))
    grant, q = _series_length((taus * row_sums).max(axis=1) + 4.0 * k_count * _ROUNDOFF * taus.max(axis=1))
    plan = np.where(grant <= budget, grant, -int(budget) * (grant <= 2.0 * budget)).astype(int)
    return plan.tolist(), q


def _solve(order: int, statics: ChainStatics, tau: np.ndarray, negated_tau: np.ndarray, tau_max: float,
           bound: float, steps: int, block: np.ndarray, matrix: np.ndarray):
    """Solve ``(I - diag(tau) Q) x = block[0]``; return x, its exact inf-norm condition number and the products taken.

    ``block`` holds the right-hand side in its first row and tau in its
    second, and ``statics`` the chain's Q, E = Q - 1 pi' and pi.
    I - diag(tau) Q with Q = ``statics.reversed_routing`` irreducible,
    nonnegative, row-stochastic and zero on its diagonal, 0 <= tau <= 1,
    and tau < 1 in every state of positive speed, is an irreducibly
    diagonally dominant M-matrix: its inverse is nonnegative, so its
    inverse inf-norm is the largest entry of its inverse times 1, and its
    inf-norm is 1 + tau_max.  As diag(tau) Q 1 = tau, its inverse times 1
    is 1 plus its inverse times tau, which needs no third column.

    With ``steps`` > 0 (from ``_series_grants``, and ``bound`` >= q_n >=
    ||diag(tau) E||_inf) the matrix is (I - diag(tau) E) - tau pi', and
    [y, z], its first part's inverse applied to the block, are the series
    sum_i (diag(tau) E)^i applied to both rows, each term one 2 x K by
    K x K product with ``statics.deflated_routing``, scaled by tau.
    Sherman-Morrison gives

        x = y + z (pi.y) / (1 - pi.z),   inverse times 1 = 1 + z / (1 - pi.z).

    By the matrix determinant lemma 1 - pi.z is the determinant of the
    matrix over that of its first part; both are positive (an M-matrix,
    and I minus a matrix of spectral radius below 1), so a value that is
    not positive means rounding has broken the solve: NumericError.  The
    tail after a term t is at most ||t||_inf q_n / (1 - q_n) whatever its
    signs, and the series stops once that is at most u times the inf-norm
    of the row's first term, in both rows; a series that runs out of its
    ``steps`` first has no tail bound and raises NumericError.  Negative
    ``steps`` is a trial of -steps products: the same series, rule and
    checks, except that a trial that runs out takes the LU instead and
    reports 0 products.  With ``steps`` = 0 the matrix is built in
    ``matrix`` from Q and ``negated_tau``, -tau as a K x 1 column, and
    [x, z] come from one LU; its x is returned as a row view of the
    solve's result, which the caller copies into its own storage.
    ``tau_max`` is the largest entry of ``tau``; ``order`` names the order
    in the errors.
    """
    if not steps:
        try:
            solution, z = np.linalg.solve(
                _order_matrix(statics.reversed_routing, negated_tau, out=matrix), block.T
            ).T
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"order-{order} system is singular: {exc}") from exc
        return solution, (1.0 + tau_max) * (1.0 + float(z.max())), 0
    total, term = block.copy(), block
    rhs_limit, tau_limit = (_ROUNDOFF * (1.0 - bound) * np.abs(block).max(axis=1)).tolist()
    deflated_t = statics.deflated_routing.T
    for used in range(1, abs(steps) + 1):
        # (diag(tau) E t)' = t' E' diag(tau), both rows at once
        term = term @ deflated_t
        term *= tau
        total += term
        rhs_top, tau_top = np.abs(term).max(axis=1).tolist()
        if rhs_top * bound <= rhs_limit and tau_top * bound <= tau_limit:
            break
    else:
        if steps < 0:
            return _solve(order, statics, tau, negated_tau, tau_max, bound, 0, block, matrix)
        raise NumericError(
            f"order-{order} Neumann series did not reach its tail bound within {steps} products"
        )
    y, z = total
    pi_y, pi_z = (total @ statics.pi).tolist()
    denominator = 1.0 - pi_z
    if not denominator > 0.0:
        raise NumericError(
            f"order-{order} deflated series lost the sign of its determinant: 1 - pi.z = {denominator:.3e}"
        )
    solution = y + z * (pi_y / denominator)
    return solution, (1.0 + tau_max) * (1.0 + float(z.max()) / denominator), used


def _require_nonnegative(rows: np.ndarray, context: str, first: int = 0) -> None:
    """Moments of nonnegative quantities must stay nonnegative.

    ``rows`` is one vector, or a block of vectors, one per row: row i is
    named by ``context.format(first + i)`` and the rows are checked in
    order, so the first that fails raises.  Entries below the roundoff
    floor indicate numerical breakdown and raise; values are never
    clamped.
    """
    block = np.atleast_2d(rows)
    for i, (low, high) in enumerate(zip(block.min(axis=1).tolist(), block.max(axis=1).tolist())):
        if not (math.isfinite(low) and math.isfinite(high)):
            raise NumericError(f"{context.format(first + i)}: non-finite moment entries {block[i]!r}")
        if low < -_NEGATIVITY_FLOOR * max(1.0, high, -low):
            raise NumericError(
                f"{context.format(first + i)}: moment entries turned negative ({block[i]!r}); "
                "this indicates numerical breakdown, not a valid result"
            )


@dataclass(frozen=True)
class PalmMoments:
    """Palm moment vectors m0^(n), n = 0..n_max, with solve diagnostics.

    ``condition[n]`` is the exact inf-norm condition number of the
    order-n matrix I - diag(tau) Q, read off the ones column of its solve
    (see ``_solve``), and ``solve_residual[n]`` the relative backward
    residual ||x - diag(tau) Q x - rhs||_inf / ||rhs||_inf of its
    solution x (index 0 is a placeholder; order 0 needs no solve).
    ``steps[n]`` is 0 where order n took the LU and otherwise the number
    of products its series took (``palm_moment_vectors`` says which
    solver each order takes; ``steps[0]`` is 0).  ``residual_weights``
    is the residual part of the call's weight table (see ``_weights``),
    ``residual_weights[n, j, i] = w*[n, j]`` of the i-th state with
    memory, which ``stationary_moment_vectors`` reads.
    """

    vectors: tuple
    condition: np.ndarray
    solve_residual: np.ndarray
    steps: np.ndarray
    residual_weights: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.vectors) - 1


def palm_moment_vectors(model: EnvironmentModel, n_max: int = 10) -> PalmMoments:
    """Moment vectors of the discounted arrival mass seen from a transition instant.

    Order 0 is the all-ones vector.  Each subsequent order n solves,
    never through an explicit inverse,

        (I - diag(w[n, n]) Q) m0^(n) = sum_{j<n} w[n, j] R^(n-j) Q m0^(j)

    with R the diagonal matrix of offered loads, beside a second
    right-hand side, tau = w[n, n] itself, that gives the exact condition
    number.  Each order's grant is set before the loop from tau (see
    ``_series_grants`` and ``_solve``).  With E = Q - 1 pi', which
    deflates the Perron mode, the matrix splits as
    (I - diag(tau) E) - tau pi', so by Sherman-Morrison the order is the
    series sum_i (diag(tau) E)^i on both right-hand sides plus a rank-one
    correction.  An order sums the series where its a-priori length from
    q_n >= ||diag(tau) E||_inf is within the budget, the measured cost
    of one LU (``environment._SERIES_SHARE``), stopped once q_n bounds
    its tail by the unit roundoff u.  That length runs 2-5 times the
    products taken, so an order whose length is at most twice the budget
    tries the series first, capped at the budget, under the same tail
    rule and checks: a trial that stops is certified as a granted series
    is.  A trial that runs out takes one LU, and every later order that
    is not granted the series then takes the LU too, so a call wastes at
    most one budget of products, about one LU.  Every other order takes
    one LU.  ``steps`` records the products each order took (0 for an
    LU).

    Every order's right-hand side, solution and product Q m0^(n) (which
    the next orders need) is a row of one array per kind, so an order is
    a sum, a solve and a product.  The orders are checked in one pass
    after the loop, or after the order whose solve raised: the backward
    residual of each, read off Q m0^(n), and the signs of its solution.
    The earliest order that fails raises NumericError, its residual (above
    1e-8) before its signs, so the error is the one a check after every
    order would give.  Floating-point warnings of the loop and of the load
    powers are silenced, as an order computed after a failing one may
    overflow; an order that overflows is non-finite and fails its check.
    """
    n_max = _check_order(n_max)
    statics = model.statics
    routing = statics.reversed_routing
    k_count = model.num_states
    orders = np.arange(n_max + 1)
    # the Palm columns of the one weight table, and beside them the residual ones
    table = _weights(model.sojourns, model.service_rates, n_max)
    weights = table[:, :, :k_count]
    # tau of every order, taus[n, k] = w_k[n, n], and the solver of each order
    taus = weights[orders, orders]
    negated_taus = -taus[:, :, np.newaxis]
    # the matrix of the LU orders, built in place
    matrix = np.empty_like(routing)
    plan, bounds = _series_grants(taus, statics.pi, statics.deflated_row_sums)
    tau_max = taus.max(axis=1)

    # one row per order: m0^(n), Q m0^(n), and the right-hand side above
    # the diagonal weights beside tau (the series multiplies the rows by
    # Q', faster than Q by columns)
    solutions = np.empty((n_max + 1, k_count))
    routed = np.empty_like(solutions)
    blocks = np.empty((n_max + 1, 2, k_count))
    blocks[:, 1] = taus
    solutions[0] = 1.0
    np.matmul(routing, solutions[0], out=routed[0])
    condition = np.full(n_max + 1, np.nan)
    solve_residual = np.full(n_max + 1, np.nan)
    steps = np.zeros(n_max + 1, dtype=int)

    n = 0
    try:
        with np.errstate(all="ignore"):
            # an infinite load power reaches order n_max, whose check fails
            load_powers = model.offered_loads ** orders[:, np.newaxis]
            for n in range(1, n_max + 1):
                np.sum(weights[n, :n] * load_powers[n:0:-1] * routed[:n], axis=0, out=blocks[n, 0])
                solutions[n], condition[n], steps[n] = _solve(
                    n, statics, taus[n], negated_taus[n], tau_max[n], bounds[n], plan[n], blocks[n], matrix
                )
                if plan[n] < 0 and not steps[n]:
                    # the trial ran out and took the LU: so does every later trial
                    plan = [max(planned, 0) for planned in plan]
                np.matmul(routing, solutions[n], out=routed[n])
            n = n_max + 1
    finally:
        # orders 1..n-1 are complete
        rhs = blocks[1:n, 0]
        with np.errstate(all="ignore"):
            scale = np.maximum(np.abs(rhs).max(axis=1), 1e-300)
            solve_residual[1:n] = np.abs(solutions[1:n] - taus[1:n] * routed[1:n] - rhs).max(axis=1) / scale
            failed = np.flatnonzero(solve_residual[1:n] > SOLVE_RESIDUAL_LIMIT)
        # the signs of every order below the first failing residual come first
        upto = int(failed[0]) + 1 if failed.size else n
        _require_nonnegative(solutions[1:upto], "palm moment vector at order {}", 1)
        if failed.size:
            raise NumericError(
                f"order-{upto} solve is ill-conditioned: relative residual {solve_residual[upto]:.3e} "
                f"exceeds {SOLVE_RESIDUAL_LIMIT:g} (condition {condition[upto]:.3e})"
            )

    return PalmMoments(
        vectors=tuple(solutions),
        condition=condition,
        solve_residual=solve_residual,
        steps=steps,
        # a copy, so that the Palm columns are freed here
        residual_weights=table[:, :, k_count:].copy(),
    )


def stationary_moment_vectors(model: EnvironmentModel, palm: PalmMoments) -> tuple:
    """Moment vectors seen from a stationary instant, one per order.

    The stationary look-back differs from the Palm one only through the
    in-progress sojourn, which is a residual rather than a full one, so
    the same sums with the residual weights give it with no solve:

        m^(n) = sum_{j<=n} w*[n, j] R^(n-j) Q m0^(j)

    over the products Q m0^(j) of the Palm vectors.  The weights are
    ``palm.residual_weights``, built with the Palm ones; nothing is built
    here.  A memoryless state (exponential, or zero speed) has w* = w and
    no residual column, and its entry is copied from the Palm vector, so
    all-exponential models give the two families bit for bit equal.  The
    sums run order by order; the signs of every order are checked in one
    pass after them, earliest order first, with the floating-point
    warnings of the sums and load powers silenced as in
    ``palm_moment_vectors``.
    """
    service = model.service_rates
    vectors = np.array(palm.vectors)
    states = [
        k for k, dist in enumerate(model.sojourns)
        if service[k] > 0.0 and not isinstance(dist, Exponential)
    ]
    if not states:
        return tuple(vectors)
    routed = vectors @ model.statics.reversed_routing[states].T
    with np.errstate(all="ignore"):
        powers = model.offered_loads[states] ** np.arange(palm.n_max + 1)[:, np.newaxis]
        for n in range(1, palm.n_max + 1):
            vectors[n, states] = (palm.residual_weights[n, : n + 1] * powers[n::-1] * routed[: n + 1]).sum(axis=0)
    _require_nonnegative(vectors[1:], "stationary moment vector at order {}", 1)
    return tuple(vectors)


@dataclass(frozen=True)
class MomentTable:
    """Per-order moment summary of the stationary customer count.

    ``aggregated[w][n]`` is the order-n moment of the mixing mass under
    weighting ``w``; by the mixed-Poisson identity it equals the order-n
    factorial moment of N.  ``raw[w][n]`` are the corresponding raw
    moments via the second-kind Stirling transform
    (``raw_from_factorial``); the accessors read either weighting,
    occupancy unless told.  ``conservation_residuals``
    holds the per-order residuals of ``rate_conservation_residuals``, for
    every model.  ``bn_condition``, ``solve_residual`` and ``palm_steps``
    are the per-order diagnostics of the Palm solve (see ``PalmMoments``:
    ``palm_steps[n]`` is 0 for an LU order, otherwise its series products),
    and ``statics_steps`` is ``ChainStatics.steps``, the products of the
    series for pi (0 where pi came from the LU).
    """

    n_max: int
    palm: tuple
    stationary: tuple
    aggregated: dict
    raw: dict
    bn_condition: np.ndarray
    solve_residual: np.ndarray
    palm_steps: np.ndarray
    statics_steps: int
    conservation_residuals: np.ndarray

    def factorial_moments(self, weighting: str = "occupancy") -> np.ndarray:
        """f_N^(n), n = 0..n_max, under the given weighting."""
        return self.aggregated[weighting]

    def raw_moments(self, weighting: str = "occupancy") -> np.ndarray:
        """E[N^n], n = 0..n_max, under the given weighting."""
        return self.raw[weighting]


def assemble_moment_table(model: EnvironmentModel, palm: PalmMoments, stationary: tuple) -> MomentTable:
    """Contract the stationary vectors into scalar moments of N.

    Both weightings (embedded-chain vector and time-stationary
    occupancy) are computed and stored.  The rate-conservation residuals
    are evaluated and recorded as diagnostics (see ``mminfenv.checks``).
    """
    n_max = palm.n_max
    statics = model.statics
    weights = {"embedded": statics.pi, "occupancy": statics.occupancy}
    aggregated = {}
    raw = {}
    for name, w in weights.items():
        scalars = np.array([float(w @ vec) for vec in stationary])
        _require_nonnegative(scalars, f"aggregated moments under {name} weighting")
        aggregated[name] = scalars
        raw[name] = raw_from_factorial(scalars)

    return MomentTable(
        n_max=n_max,
        palm=palm.vectors,
        stationary=tuple(stationary),
        aggregated=aggregated,
        raw=raw,
        bn_condition=palm.condition,
        solve_residual=palm.solve_residual,
        palm_steps=palm.steps,
        statics_steps=statics.steps,
        conservation_residuals=rate_conservation_residuals(model, palm, stationary),
    )


def compute_moment_table(model: EnvironmentModel, n_max: int = 10) -> MomentTable:
    """Convenience pipeline: Palm solve, stationary update, assembly."""
    palm = palm_moment_vectors(model, n_max)
    stationary = stationary_moment_vectors(model, palm)
    return assemble_moment_table(model, palm, stationary)


def rate_conservation_residuals(model: EnvironmentModel, palm: PalmMoments, stationary: tuple) -> np.ndarray:
    """Residuals of rate conservation for Lambda^n 1{state k}, one per order.

    Between environment jumps the mixing mass moves as
    dLambda/dt = lambda_k - mu_k Lambda, and it is continuous at the jumps.
    So the stationary process Lambda^n 1{state k} has the mean drift
    n lambda_k Lambda^(n-1) - n mu_k Lambda^n in state k, and that drift
    balances its mean jumps (Miyazawa, Rate conservation laws: a survey,
    Queueing Systems 15, 1994): transitions into k bring Lambda^n with the
    Palm moments of the state left, transitions out of k take away those
    of k.  Divided by the transition rate and by the mean sojourns, with
    Palm rows r = m0' Pi, stationary rows s = m' Pi (Pi = diag(pi)) and
    q_k = 1 / mean_k, it reads

        n s^(n) M - (r^(n) P - r^(n)) diag(q) = n s^(n-1) Lambda,

    M and Lambda the diagonal service-rate and arrival-rate matrices.  It
    holds for every sojourn law and ties the Palm solve to the stationary
    update at the same order; order 0 is the stationarity of pi.  With
    exponential sojourns r = s and it is the generator identity of the
    Markov environment.  Each order is scaled by the largest magnitude of
    its four terms, not by the realised sums, and the scaled max-norm
    residual is returned per order.
    """
    statics = model.statics
    exit_rates = 1.0 / statics.mean_sojourns
    palm_rows = np.array(palm.vectors) * statics.pi
    rows = np.array(stationary) * statics.pi
    orders = np.arange(len(rows))[:, np.newaxis]
    service = orders * rows * model.service_rates
    # all rows @ P in one product, and no K x K temporary
    entering = (palm_rows @ model.routing) * exit_rates
    leaving = palm_rows * exit_rates
    arrivals = np.zeros_like(rows)
    arrivals[1:] = orders[1:] * rows[:-1] * model.arrival_rates
    gap = np.abs(service - (entering - leaving) - arrivals).max(axis=1)
    scale = np.max([np.abs(term).max(axis=1) for term in (service, entering, leaving, arrivals)], axis=0)
    return gap / np.maximum(scale, 1e-300)


@lru_cache(maxsize=None)
def _second_kind() -> np.ndarray:
    """S2(l, j), the partitions of an l-set into j blocks, at [l, j] for l, j <= MAX_ORDER.

    Zero above the diagonal; built once, read-only.  Every entry through
    order 20 is below 2^53, so the recurrence
    S2(l, j) = j S2(l - 1, j) + S2(l - 1, j - 1) is exact in float64.
    """
    table = np.zeros((MAX_ORDER + 1, MAX_ORDER + 1))
    table[0, 0] = 1.0
    for l in range(1, MAX_ORDER + 1):
        table[l, 1 : l + 1] = np.arange(1, l + 1) * table[l - 1, 1 : l + 1] + table[l - 1, :l]
    table.flags.writeable = False
    return table


def raw_from_factorial(factorial_moments) -> np.ndarray:
    """Raw moments from factorial moments: m^(l) = sum_j S2(l, j) f^(j).

    Row l is summed left to right in float64 and read at its diagonal,
    before the zeros above it are added.  A sequence longer than
    MAX_ORDER + 1 raises ValueError.
    """
    values = np.asarray(factorial_moments, dtype=float)
    size = values.size
    if size > MAX_ORDER + 1:
        raise ValueError(f"moment sequence of order {size - 1} exceeds the maximum order {MAX_ORDER}")
    return np.cumsum(_second_kind()[:size, :size] * values, axis=1).diagonal().copy()


@lru_cache(maxsize=None)
def _binomials(n_max: int) -> np.ndarray:
    """C(n, j) at [n, j] for n, j <= n_max, 0 above the diagonal; built once, read-only."""
    table = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        table[n, : n + 1] = [math.comb(n, j) for j in range(n + 1)]
    table.flags.writeable = False
    return table

