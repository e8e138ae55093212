"""Semi-Markov environment model and its embedded-chain statics.

The environment is a finite-state semi-Markov process: it sits in state
k for a random sojourn drawn from that state's law, then jumps according
to a row-stochastic routing matrix with zero diagonal.  While in state k
the queue sees Poisson arrivals at rate ``arrival_rates[k]`` and all
servers run at speed ``speeds[k]`` relative to the base service rate
``mu``.  The model carries what every layer reads of it as fields
computed once when it is built: the service rates ``speeds * mu``, the
offered loads ``arrival_rates / service_rates`` and its ``statics``.

``chain_statics`` derives the statics, everything else the moments and
the simulator read from the model: the embedded chain's stationary law
and reversed routing, the mean sojourns, the occupancy law and the mean
cycle length.  The model's construction is its one caller, so building
a model whose stationary law cannot be certified raises NumericError.
"""

from dataclasses import dataclass, field

import numpy as np

from .distributions import Deterministic, Exponential, Gamma, HyperExponential
from .errors import ModelError, NumericError

__all__ = [
    "EnvironmentModel",
    "ChainStatics",
    "chain_statics",
]

STRUCTURAL_TOL = 1e-12
CONDITION_LIMIT = 1e12

# unit roundoff of binary64, the tail the Neumann series are summed to
_ROUNDOFF = 2.0**-53
# products of a deflated Neumann series (for the Palm solve one 2 x K by
# K x K product, its correction and the tail test) that may stand in for
# one LU with its matrix build: K/10 up to K = 100 and K/5 - 10 beyond (an
# LU grows as K^3, a product as K^2 over a fixed interpreter cost), at
# most 40.  LU time over step time on a 2-core Xeon VM (OpenBLAS 0.3.31,
# one thread, median of 7):
#   K      50   64  100  150  200  300  400  500  600  700  800  1000
#   ratio 5.3  6.9 11.8 23.1 37.1 74.2 97.9 87.5 75.9 39.7 42.5  54.1
#   rule  5.0  6.4 10.0 20.0 30.0 40.0 40.0 40.0 40.0 40.0 40.0  40.0
# so the rule stays within 1% of the break-even at every K measured; below
# K = 10 it is under one product and every solve takes the LU.  The Palm
# grant runs 2-5 times the products taken, so a Palm order whose grant is
# at most twice the budget tries the series within the budget before its
# LU; a trial that runs out ends the trials of its call, which so wastes
# at most one budget of products, about one LU.  The series for pi (one
# 1 x K product per step against an LU of the same size) shares it.
_SERIES_SHARE = 1.0 / 10.0
_SERIES_CAP = 40.0

# the sojourn laws the moment engine builds weights for, the simulator
# samples and a model file names, by their name in a model file; a law's
# dataclass fields are its parameter keys there
SOJOURN_FAMILIES = {
    "exponential": Exponential,
    "gamma": Gamma,
    "deterministic": Deterministic,
    "hyperexponential": HyperExponential,
}


@dataclass(frozen=True)
class ChainStatics:
    """Quantities derived from the routing matrix and the sojourn means.

    ``pi`` is the stationary law of the embedded jump chain,
    ``reversed_routing`` the time-reversed jump matrix
    diag(pi)^-1 P^T diag(pi), ``mean_sojourns`` the mean sojourn of each
    state, and ``occupancy`` the time-stationary state law, proportional
    to pi weighted by mean sojourns.  ``cycle_length`` is the expected
    time of one sweep of the environment, K mean segments of
    pi-weighted mean sojourn (for cyclic routing the exact period of one
    tour through the states).  ``steps`` is the number of products the
    series for pi took, or 0 where pi came from the LU (see
    ``chain_statics``).
    """

    pi: np.ndarray
    reversed_routing: np.ndarray
    mean_sojourns: np.ndarray
    occupancy: np.ndarray
    cycle_length: float
    steps: int

    def __post_init__(self):
        for arr in (self.pi, self.reversed_routing, self.mean_sojourns, self.occupancy):
            arr.flags.writeable = False


@dataclass(frozen=True)
class EnvironmentModel:
    """Full specification of the modulated infinite-server queue.

    Construction checks every structural requirement (at least two
    states, positive mu, finite nonnegative rates, speeds in [0, 1], no
    divergent load, an irreducible row-stochastic routing matrix with
    zero diagonal) and raises one ModelError listing every violation.
    A valid model whose embedded stationary law cannot be certified
    raises NumericError (see ``chain_statics``).  The model is frozen and
    its arrays are read-only, so a model that exists is valid and
    nothing downstream checks it again.

    Parameters
    ----------
    arrival_rates : array_like, shape (K,)
        Poisson arrival rate per state, customers per unit time.
    speeds : array_like, shape (K,)
        Server speed per state, in [0, 1]; the effective service rate in
        state k is ``speeds[k] * mu``.
    sojourns : sequence, length K
        Sojourn-time law per state: an Exponential, Gamma, Deterministic
        or HyperExponential instance.
    mu : float
        Base service rate of the exponential service requirement.
    routing : array_like, shape (K, K)
        Row-stochastic jump matrix with zero diagonal.

    Attributes
    ----------
    service_rates : ndarray, shape (K,)
        Per-state service rate ``speeds[k] * mu``.
    offered_loads : ndarray, shape (K,)
        Per-state offered load rho_k = arrival_rates[k] / service_rates[k],
        0 in a state without arrivals (its speed may then be 0).
    statics : ChainStatics
        The embedded chain's stationary law, reversed routing, mean
        sojourns, occupancy law and mean cycle length (``chain_statics``).

    All three are computed once at construction, read-only like the
    inputs, and recomputed by ``dataclasses.replace``; they are not
    arguments.
    """

    arrival_rates: np.ndarray
    speeds: np.ndarray
    sojourns: tuple
    mu: float
    routing: np.ndarray
    service_rates: np.ndarray = field(init=False, repr=False)
    offered_loads: np.ndarray = field(init=False, repr=False)
    statics: ChainStatics = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.array(self.arrival_rates, dtype=float)
        beta = np.array(self.speeds, dtype=float)
        routing = np.array(self.routing, dtype=float)
        sojourns = tuple(self.sojourns)
        if lam.ndim != 1 or beta.shape != lam.shape:
            raise ModelError("arrival_rates and speeds must be 1-d arrays of equal length")
        if len(sojourns) != lam.size:
            raise ModelError("one sojourn law per state is required")
        for k, dist in enumerate(sojourns):
            if not isinstance(dist, tuple(SOJOURN_FAMILIES.values())):
                names = ", ".join(family.__name__ for family in SOJOURN_FAMILIES.values())
                raise ModelError(f"state {k} has sojourn law {type(dist).__name__}, not one of {names}")
        if routing.shape != (lam.size, lam.size):
            raise ModelError(
                f"routing must be {lam.size}x{lam.size}, got shape {routing.shape}"
            )
        for arr in (lam, beta, routing):
            arr.flags.writeable = False
        object.__setattr__(self, "arrival_rates", lam)
        object.__setattr__(self, "speeds", beta)
        object.__setattr__(self, "sojourns", sojourns)
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "routing", routing)
        # both before the check, which reads them; a load that no double
        # holds (a zero or subnormal service rate) is its violation, not a warning
        service = beta * self.mu
        service.flags.writeable = False
        object.__setattr__(self, "service_rates", service)
        rho = np.zeros(lam.size)
        active = lam > 0.0
        with np.errstate(all="ignore"):
            rho[active] = lam[active] / self.service_rates[active]
        rho.flags.writeable = False
        object.__setattr__(self, "offered_loads", rho)
        report = _violations(self)
        if report:
            raise ModelError("invalid model: " + "; ".join(report))
        object.__setattr__(self, "statics", chain_statics(self))

    @property
    def num_states(self) -> int:
        return self.arrival_rates.size


def _reachable(adjacency: np.ndarray, start: int) -> np.ndarray:
    """Nodes reachable from ``start``, by a breadth-first frontier sweep.

    Each node enters the frontier once, so the sweep is O(K^2) array work
    in at most K steps.
    """
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def _is_irreducible(routing: np.ndarray) -> bool:
    positive = routing > 0.0
    return bool(_reachable(positive, 0).all() and _reachable(positive.T, 0).all())


def _violations(model: EnvironmentModel) -> list:
    """Every structural requirement the model breaks, as human-readable strings.

    The only structural check in the package; ``EnvironmentModel`` runs
    it once, at construction.
    """
    report = []
    lam, beta, routing = model.arrival_rates, model.speeds, model.routing
    k_count = model.num_states

    if k_count < 2:
        report.append(f"at least 2 environment states are required, got {k_count}")
    if not np.isfinite(model.mu) or model.mu <= 0.0:
        report.append(f"base service rate mu must be positive, got {model.mu}")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
        report.append("arrival rates must be finite and nonnegative")
    if not np.all(np.isfinite(beta)) or np.any(beta < 0.0) or np.any(beta > 1.0):
        report.append("speeds must lie in [0, 1]")
    if np.all(lam <= 0.0):
        report.append("at least one state must have a positive arrival rate")
    if np.all(beta <= 0.0):
        report.append("at least one state must have a positive speed")
    # the service rate, not the speed: a tiny speed times a tiny mu may underflow to 0
    service = model.service_rates
    for k in np.flatnonzero((lam > 0.0) & (service == 0.0)):
        report.append(
            f"state {k} has positive arrivals but zero speed (offered load diverges)"
        )
    # or leave a positive rate so small that lambda / rate overflows
    for k in np.flatnonzero(np.isfinite(lam) & (service > 0.0) & np.isinf(model.offered_loads)):
        report.append(
            f"state {k} has an offered load ({float(lam[k])!r} / {float(service[k])!r}) beyond double precision"
        )

    if not np.all(np.isfinite(routing)):
        report.append("routing entries must be finite")
        return report
    if np.any(routing < 0.0) or np.any(routing > 1.0):
        report.append("routing entries must lie in [0, 1]")
    diag = np.diag(routing)
    for k in np.flatnonzero(diag != 0.0):
        report.append(f"routing diagonal entry p[{k},{k}] = {diag[k]} must be 0")
    row_sums = routing.sum(axis=1)
    for k in np.flatnonzero(np.abs(row_sums - 1.0) > STRUCTURAL_TOL):
        report.append(f"routing row {k} sums to {row_sums[k]}, must be 1 within 1e-12")
    if k_count >= 2 and not _is_irreducible(routing):
        report.append("routing matrix is not irreducible")
    return report


def _series_budget(k_count: int) -> float:
    """Products of a Neumann series that cost less than one LU at K states (see ``_SERIES_SHARE``)."""
    return min(max(_SERIES_SHARE * k_count, 2.0 * _SERIES_SHARE * k_count - 10.0), _SERIES_CAP)


def _stationary_series(routing: np.ndarray, buffer: np.ndarray):
    """Embedded stationary law as a deflated Neumann series, or None where it cannot certify it.

    With u the column means of P (a probability vector) and
    E = P - 1 u', which has zero row sums, pi P = pi and pi 1 = 1 give
    pi' (I - E) = u', so pi' = u' sum_i E^i.  Each product
    t' E = t' P - (t' 1) u' is one 1 x K by K x K product.  For row
    vectors the max-row-sum norm pairs with the 1-norm:
    ||t' E||_1 <= ||t||_1 q with q = max_k sum_j |P_kj - u_j| + 4 K eps,
    the second term (eps the unit roundoff) bounding the rounding of one
    product, so the tail after a term t is at most ||t||_1 q / (1 - q),
    and the series stops once that is at most eps (1 - q) ||u||_1.  Seneta's
    ergodicity coefficient tau_1(P) is at most q, so pi moves by at most
    1 / (1 - q) times a perturbation of the balance equations; q is
    required to keep that within ``CONDITION_LIMIT``, the gate of the LU.

    Returns pi and the products taken, or (None, 0) without a result:
    below K = 10 (a budget under one product), where the terms shrink
    more slowly than the geometric pace that would take ||u||_1 down to
    eps ||u||_1 within the n products of ``_series_budget`` (term i must
    be at most eps^(i / n) ||u||_1; the first term is checked before the
    K^2 pass for q, so at K = 50, where the series would need 14 products
    against a budget of 5, it costs one product), where 1 / (1 - q) is
    not within ``CONDITION_LIMIT``
    (q >= 1 on sparse or nearly decomposable chains), where the budget
    runs out first, and where the final tail bound exceeds
    ``STRUCTURAL_TOL`` times the smallest entry of pi (a rarely entered
    state, which the bound cannot resolve relatively).  ``buffer`` is a
    K x K workspace, overwritten.
    """
    k_count = len(routing)
    steps = int(_series_budget(k_count))
    if steps < 1:
        return None, 0
    # the column means as one vector-matrix product, faster than a reduction over axis 0
    u = np.full(k_count, 1.0 / k_count) @ routing
    u_norm = float(u.sum())
    term = u @ routing - u_norm * u
    size = float(np.abs(term).sum())
    if size > u_norm * _ROUNDOFF ** (1.0 / steps):
        return None, 0
    np.abs(np.subtract(routing, u, out=buffer), out=buffer)
    q = float(buffer.sum(axis=1).max()) + 4.0 * k_count * _ROUNDOFF
    if not (1.0 - q) * CONDITION_LIMIT > 1.0:
        return None, 0
    ratio = q / (1.0 - q)
    limit = _ROUNDOFF * (1.0 - q) * u_norm
    total = u + term
    used = 1
    while size * ratio > limit:
        if used == steps or size > u_norm * _ROUNDOFF ** (used / steps):
            return None, 0
        term = term @ routing - term.sum() * u
        total += term
        size = float(np.abs(term).sum())
        used += 1
    pi = total / total.sum()
    if not size * ratio <= STRUCTURAL_TOL * pi.min():
        return None, 0
    return pi, used


def _stationary_law(routing: np.ndarray):
    """Embedded stationary law from the reduced balance system, by one LU.

    State d, the one with the largest column sum of P, is dropped, and
    with pi_d = 1 the other balance equations read
    (I - P_{-d,-d})^T x = P[d, -d].  For irreducible P this matrix is a
    nonsingular M-matrix, so its inverse is nonnegative and its exact
    inf-norm condition number is max(1 + column sums of P_{-d,-d}) times
    the largest entry of its inverse applied to the ones vector, a second
    right-hand side of the same solve (taken in absolute value, so that a
    garbage solve of a near-singular system cannot pass as well
    conditioned).  Returns pi (x with 1 put back at d, normalised), d and
    that condition number; pi is None and the number inf when the solve
    fails.  ``chain_statics`` takes it wherever ``_stationary_series``
    gives no result: always below K = 10.
    """
    k_count = len(routing)
    dropped = int(np.argmax(routing.sum(axis=0)))
    keep = np.flatnonzero(np.arange(k_count) != dropped)
    # P_{-d,-d} (C-contiguous, so its diagonal is a strided view of its flat
    # storage), turned into I - P_{-d,-d} in place and solved transposed
    system = routing[np.ix_(keep, keep)]
    norm = float(np.max(1.0 + system.sum(axis=0)))
    np.negative(system, out=system)
    system.reshape(-1)[::k_count] += 1.0
    try:
        both = np.linalg.solve(system.T, np.column_stack((routing[dropped, keep], np.ones(k_count - 1))))
    except np.linalg.LinAlgError:
        return None, dropped, float("inf")
    pi = np.ones(k_count)
    pi[keep] = both[:, 0]
    return pi / pi.sum(), dropped, norm * float(np.max(np.abs(both[:, 1])))


def chain_statics(model: EnvironmentModel) -> ChainStatics:
    """Solve for the embedded stationary vector and derive the rest of ``ChainStatics``.

    The one place the chain's derived quantities are computed:
    ``EnvironmentModel`` builds them once, as its ``statics``, and every
    layer reads them there.

    pi is first sought as the deflated Neumann series of
    ``_stationary_series``, within ``_series_budget`` products; it is
    taken where the series certifies it (its ergodicity bound keeps the
    sensitivity of pi within 1e12, and its tail bound is a small relative
    error in every entry).  Everywhere else, and always below K = 10, pi
    comes from the reduced balance system: the state with the largest
    column sum of P is dropped and pinned to 1, and the remaining
    equations are one dense solve (see ``_stationary_law``).  Its matrix
    is an M-matrix, so the same solve gives the exact inf-norm condition
    number of the reduced M-matrix; above 1e12 it raises NumericError.
    On either path a balance residual pi P - pi above 1e-10 raises
    NumericError.  ``steps`` records the products of the series, 0 for
    the LU.
    """
    routing = model.routing
    k_count = model.num_states
    # the reversed routing's storage, first the series' workspace; C-order
    # (routing.T alone would be F-contiguous): the Palm series multiplies
    # it into K x 2 blocks, faster in this layout
    reversed_routing = np.empty((k_count, k_count))
    pi, steps = _stationary_series(routing, reversed_routing)
    if pi is None:
        pi, _, condition = _stationary_law(routing)
        if not np.isfinite(condition) or condition > CONDITION_LIMIT:
            raise NumericError(
                f"embedded balance system is near-singular (condition {condition:.3e} > 1e12)"
            )

    balance = np.max(np.abs(pi @ routing - pi))
    if balance > 100 * STRUCTURAL_TOL:
        raise NumericError(f"stationary solve residual {balance:.3e} exceeds tolerance")

    np.multiply(routing.T, pi[np.newaxis, :], out=reversed_routing)
    reversed_routing /= pi[:, np.newaxis]
    means = np.array([d.mean() for d in model.sojourns])
    occupancy = pi * means
    occupancy = occupancy / occupancy.sum()
    return ChainStatics(
        pi=pi, reversed_routing=reversed_routing, mean_sojourns=means, occupancy=occupancy,
        cycle_length=float(k_count * (pi @ means)), steps=steps,
    )
