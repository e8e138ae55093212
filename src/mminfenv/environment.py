"""Semi-Markov environment model and its embedded-chain statics.

The environment is a finite-state semi-Markov process: it sits in state
k for a random sojourn drawn from that state's law, then jumps according
to a row-stochastic routing matrix with zero diagonal.  While in state k
the queue sees Poisson arrivals at rate ``arrival_rates[k]`` and all
servers run at speed ``speeds[k]`` relative to the base service rate
``mu``.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import Deterministic, Exponential, Gamma, HyperExponential
from .errors import ModelError, NumericError

__all__ = [
    "EnvironmentModel",
    "ChainStatics",
    "chain_statics",
    "mean_cycle_length",
]

STRUCTURAL_TOL = 1e-12
CONDITION_LIMIT = 1e12

# the sojourn laws the moment engine builds weights for, the simulator
# samples and a model file names
SOJOURN_FAMILIES = (Exponential, Gamma, Deterministic, HyperExponential)


@dataclass(frozen=True)
class EnvironmentModel:
    """Full specification of the modulated infinite-server queue.

    Construction checks every structural requirement (at least two
    states, positive mu, finite nonnegative rates, speeds in [0, 1], no
    divergent load, an irreducible row-stochastic routing matrix with
    zero diagonal) and raises one ModelError listing every violation.
    The model is frozen and its arrays are read-only, so a model that
    exists is valid and nothing downstream checks it again.

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
    """

    arrival_rates: np.ndarray
    speeds: np.ndarray
    sojourns: tuple
    mu: float
    routing: np.ndarray

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
            if not isinstance(dist, SOJOURN_FAMILIES):
                names = ", ".join(family.__name__ for family in SOJOURN_FAMILIES)
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
        report = _violations(self)
        if report:
            raise ModelError("invalid model: " + "; ".join(report))

    @property
    def num_states(self) -> int:
        return self.arrival_rates.size

    @property
    def service_rates(self) -> np.ndarray:
        """Per-state service rate: speed times the base rate."""
        return self.speeds * self.mu


@dataclass(frozen=True)
class ChainStatics:
    """Quantities derived from the routing matrix and the sojourn means.

    ``pi`` is the stationary law of the embedded jump chain,
    ``reversed_routing`` the time-reversed jump matrix
    diag(pi)^-1 P^T diag(pi), and ``occupancy`` the time-stationary state
    law, proportional to pi weighted by mean sojourns.
    """

    pi: np.ndarray
    reversed_routing: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self):
        for arr in (self.pi, self.reversed_routing, self.occupancy):
            arr.flags.writeable = False


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
    bad = np.flatnonzero((lam > 0.0) & (model.service_rates == 0.0))
    for k in bad:
        report.append(
            f"state {k} has positive arrivals but zero speed (offered load diverges)"
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


def _stationary_law(routing: np.ndarray):
    """Embedded stationary law from the reduced balance system.

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
    fails.
    """
    k_count = len(routing)
    dropped = int(np.argmax(routing.sum(axis=0)))
    keep = np.flatnonzero(np.arange(k_count) != dropped)
    # P_{-d,-d}, turned into I - P_{-d,-d} in place and solved transposed
    system = routing[np.ix_(keep, keep)]
    norm = float(np.max(1.0 + system.sum(axis=0)))
    np.negative(system, out=system)
    system.flat[::k_count] += 1.0
    try:
        both = np.linalg.solve(system.T, np.column_stack((routing[dropped, keep], np.ones(k_count - 1))))
    except np.linalg.LinAlgError:
        return None, dropped, float("inf")
    pi = np.ones(k_count)
    pi[keep] = both[:, 0]
    return pi / pi.sum(), dropped, norm * float(np.max(np.abs(both[:, 1])))


def chain_statics(model: EnvironmentModel) -> ChainStatics:
    """Solve for the embedded stationary vector and derive reversed routing and occupancy.

    pi comes from the reduced balance system: the state with the largest
    column sum of P is dropped and pinned to 1, and the remaining
    equations are one dense solve (see ``_stationary_law``).  Its matrix
    is an M-matrix, so the same solve gives the exact inf-norm condition
    number of the reduced M-matrix; above 1e12 it raises NumericError, as
    does a balance residual pi P - pi above 1e-10.
    """
    routing = model.routing

    pi, _, condition = _stationary_law(routing)
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise NumericError(
            f"embedded balance system is near-singular (condition {condition:.3e} > 1e12)"
        )

    balance = np.max(np.abs(pi @ routing - pi))
    if balance > 100 * STRUCTURAL_TOL:
        raise NumericError(f"stationary solve residual {balance:.3e} exceeds tolerance")

    # C-contiguous (routing.T alone would make it F-contiguous): the Palm
    # series multiplies it into K x 2 blocks, faster in this layout
    reversed_routing = np.multiply(routing.T, pi[np.newaxis, :], order="C")
    reversed_routing /= pi[:, np.newaxis]
    means = np.array([d.mean() for d in model.sojourns])
    occupancy = pi * means
    occupancy = occupancy / occupancy.sum()
    return ChainStatics(pi=pi, reversed_routing=reversed_routing, occupancy=occupancy)


def mean_cycle_length(model: EnvironmentModel, statics: ChainStatics = None) -> float:
    """Expected time for one sweep of the environment: K mean segments.

    The mean segment duration is the pi-weighted mean sojourn; one
    "cycle" is K consecutive segments, which for cyclic routing is the
    exact period of one tour through the states.
    """
    if statics is None:
        statics = chain_statics(model)
    means = np.array([d.mean() for d in model.sojourns])
    return float(model.num_states * (statics.pi @ means))
