"""Matrix recursions for the moments of the stationary customer count.

The stationary number of customers N is mixed Poisson: conditionally on
the environment history, N is Poisson with a random parameter given by
the exponentially-discounted arrival mass of the past.  Its factorial
moments therefore equal the raw moments of that random parameter, and
those raw moments satisfy closed linear recursions in the order.

Two families of vectors are computed, each of length K (one coordinate
per environment state):

* Palm vectors ``m0``: moments conditioned on a transition happening at
  the observation instant, so the look-back starts with a full sojourn.
* Stationary vectors ``m``: moments conditioned on the state occupied at
  a stationary instant, where the look-back starts with a residual
  (equilibrium) sojourn.

Order n of the Palm family solves a linear system whose matrix is
``B_n = diag(1 / tau_k(n mu_k)) - Q`` with Q the reversed routing
matrix; the stationary family then follows by an explicit update.  The
scalar moments of N are contractions of the stationary vectors with a
state-weighting vector; both the embedded-chain weights and the
time-stationary occupancy weights are carried everywhere so they can be
compared (simulation adjudicates; see the README).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Exponential
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

# orders beyond ~20 need extended precision (binomials and load powers
# overflow the double mantissa); keep a hard cap
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


def _transform_diagonal(model: EnvironmentModel, order: int) -> np.ndarray:
    """diag entries 1 / tau_k(n mu_k), with underflow detection."""
    service = model.service_rates
    diag = np.empty(model.num_states)
    for k, dist in enumerate(model.sojourns):
        value = dist.laplace(order * service[k])
        if value <= 0.0 or not math.isfinite(1.0 / value):
            raise NumericError(
                f"sojourn transform underflowed in state {k} at order {order} "
                f"(tau = {value!r}); the recursion cannot continue in double precision"
            )
        diag[k] = 1.0 / value
    return diag


def recursion_matrix(model: EnvironmentModel, statics: ChainStatics, order: int):
    """Matrix diag(1 / tau_k(n mu_k)) - Q of the order-n linear system.

    Returns the matrix together with its exact 1-norm condition number,
    from one transposed solve.  Q is irreducible, nonnegative and
    row-stochastic, and 1 / tau_k >= 1 with strict inequality in every
    state of positive speed, so for n >= 1 the matrix is a nonsingular
    M-matrix whenever some speed is positive; the condition number makes
    that invertibility observable at runtime.
    """
    if order < 1:
        raise ValueError(f"recursion matrix is defined for order >= 1, got {order}")
    matrix = np.diag(_transform_diagonal(model, order)) - statics.reversed_routing
    try:
        # B_n^-1 > 0 (M-matrix), so its column sums B_n^-T 1 are its column
        # abs sums and their maximum is ||B_n^-1||_1 exactly, not an estimate
        inverse_norm = np.max(np.abs(np.linalg.solve(matrix.T, np.ones(len(matrix)))))
        condition = float(np.linalg.norm(matrix, 1) * inverse_norm)
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

    ``condition[n]`` is the exact 1-norm condition number of the order-n
    system matrix, from one transposed solve (the matrix is a nonsingular
    M-matrix, so its inverse is positive; see ``recursion_matrix``), and
    ``solve_residual[n]`` the relative back-substitution residual of its
    solve (index 0 is a placeholder; order 0 needs no solve).
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

    Order 0 is the all-ones vector.  Each subsequent order n is obtained
    from one dense linear solve against the order-n recursion matrix
    B_n, never from an explicit inverse:

        B_n m0^(n) = sum_{j<n} (-1)^(n-1-j) C(n,j) R^(n-j) B_n m0^(j)

    with R the diagonal matrix of offered loads.  Solve residuals above
    1e-8 raise NumericError carrying the condition number.
    """
    require_valid(model)
    n_max = _check_order(n_max)
    if statics is None:
        statics = chain_statics(model)
    k_count = model.num_states
    rho = offered_loads(model)

    vectors = [np.ones(k_count)]
    condition = np.full(n_max + 1, np.nan)
    solve_residual = np.full(n_max + 1, np.nan)

    for n in range(1, n_max + 1):
        matrix, cond = recursion_matrix(model, statics, n)
        rhs = np.zeros(k_count)
        for j in range(n):
            sign = -1.0 if (n - 1 - j) % 2 else 1.0
            coeff = sign * math.comb(n, j)
            rhs += coeff * rho ** (n - j) * (matrix @ vectors[j])
        try:
            solution = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                f"order-{n} system is singular (condition {cond:.3e}): {exc}"
            ) from exc
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        residual = float(np.max(np.abs(matrix @ solution - rhs))) / scale
        if residual > SOLVE_RESIDUAL_LIMIT:
            raise NumericError(
                f"order-{n} solve is ill-conditioned: relative residual {residual:.3e} "
                f"exceeds {SOLVE_RESIDUAL_LIMIT:g} (condition {cond:.3e})"
            )
        _require_nonnegative(solution, f"palm moment vector at order {n}")
        vectors.append(solution)
        condition[n] = cond
        solve_residual[n] = residual

    return PalmMoments(
        vectors=tuple(vectors), condition=condition, solve_residual=solve_residual
    )


def _residual_ratio_diagonal(model: EnvironmentModel, order: int) -> np.ndarray:
    """diag entries tau*_k(n mu_k) / tau_k(n mu_k) of the stationary update."""
    service = model.service_rates
    out = np.empty(model.num_states)
    for k, dist in enumerate(model.sojourns):
        s = order * service[k]
        out[k] = dist.residual_laplace(s) / dist.laplace(s)
    return out


def stationary_moment_vectors(
    model: EnvironmentModel, statics: ChainStatics, palm: PalmMoments
) -> tuple:
    """Moment vectors seen from a stationary instant, one per order.

    The stationary look-back differs from the Palm one only through the
    in-progress sojourn, which is a residual rather than a full one.
    With E_n the diagonal ratio of residual to plain transforms at n
    times the service rates:

        m^(n) = E_n m0^(n)
                + sum_{j<n} (-1)^(n-1-j) C(n,j) R^(n-j) (m^(j) - E_n m0^(j))

    For all-exponential sojourns E_n is exactly the identity and the two
    families coincide bit for bit.
    """
    rho = offered_loads(model)
    m0 = palm.vectors
    vectors = [np.ones(model.num_states)]
    for n in range(1, len(m0)):
        ratio = _residual_ratio_diagonal(model, n)
        acc = ratio * m0[n]
        for j in range(n):
            sign = -1.0 if (n - 1 - j) % 2 else 1.0
            coeff = sign * math.comb(n, j)
            acc = acc + coeff * rho ** (n - j) * (vectors[j] - ratio * m0[j])
        _require_nonnegative(acc, f"stationary moment vector at order {n}")
        vectors.append(acc)
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
    tables: StirlingTables = None,
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
    if tables is None:
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
    forward matrix P,

        sum_j (-1)^j C(n,j) m0^(j)' Pi (diag(1/tau_k(n mu_k)) - P) R^(n-j) = 0,

    which exercises an independent code path and is returned here as a
    scaled max-norm residual per order (order 0 included: it reduces to
    the stationarity of pi).
    """
    rho = offered_loads(model)
    rho_top = max(float(np.max(rho)), 1e-300)
    rows = np.array(palm.vectors) * statics.pi
    # row @ (diag(d) - P) = row * d - row @ P, with all rows @ P in one product
    rows_routed = rows @ model.routing
    row_norms = np.abs(rows).max(axis=1)
    rho_powers = rho ** np.arange(len(rows))[:, np.newaxis]
    routing_col_sums = model.routing.sum(axis=0)

    residuals = np.zeros(len(rows))
    for n in range(len(rows)):
        diag = _transform_diagonal(model, n)
        coeffs = np.array([(-1.0) ** j * math.comb(n, j) for j in range(n + 1)])
        terms = (rows[: n + 1] * diag - rows_routed[: n + 1]) * rho_powers[n::-1]
        total = coeffs @ terms
        # scale by the input magnitudes, not the realized (cancelling) terms:
        # a bound on |row @ matrix| is |row|_inf times the matrix 1-norm,
        # which is max(d + column sums of P) exactly since P >= 0 has zero diagonal
        matrix_bound = float(np.max(diag + routing_col_sums))
        top_terms = np.abs(coeffs) * row_norms[: n + 1] * rho_top ** np.arange(n, -1, -1)
        scale = max(float(np.max(top_terms)) * matrix_bound, 1e-300)
        residuals[n] = float(np.max(np.abs(total))) / scale
    return residuals
