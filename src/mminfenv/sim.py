"""Simulation of the modulated infinite-server queue.

This is the brute-force oracle for the analytic moments.  The queue is
simulated through its cumulative-work coordinate: W(t) is the integral
of the momentary server speed, so it is piecewise linear and never
decreases.  A customer arriving at time u with an exponential service
requirement sigma leaves exactly when W reaches W(u) + sigma, so the
customers in system at a sample time t are those whose departure
threshold still exceeds W(t).  Since every threshold exceeds the work
level at its arrival, the count at t is the number of arrivals up to t
minus the number of thresholds up to W(t): with arrivals and thresholds
each sorted once, two binary searches per sample time and no per-customer
Python code.  The per-customer arrays are drawn and gathered, through
one segment index, into buffers of a per-estimate workspace, so a
replication allocates no customer-sized float array.  The environment
path is drawn in vector calls too: for models of at most
``_SCAN_MAX_STATES`` states the jump chain is routed by a blocked scan
over a symbol table, above that one segment at a time in Python; both
give the same states from the same uniforms.  The workspace also holds
the router and the occupancy CDF, built once per estimate and dropped
when it returns.

The environment path starts in steady state: the initial state follows
the time-stationary occupancy law and the first sojourn is drawn from
the equilibrium (integrated-tail) law.  The queue itself starts empty,
so a warmup window is still discarded as defense in depth.  Sampling a
one-sided forward window of this construction is taken as equivalent in
law to sampling a two-sided stationary process at a fixed time.  The
occupancy law and the mean cycle length, which sizes the path's chunks
and spaces the sample times, come from the model's ``statics``, built
once with the model.

Replications are independent: replication r uses a generator seeded by
(master seed, spawn key r), and estimates are reduced in replication
order, so results are byte-identical no matter how replications are
scheduled.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .distributions import _normalised_cdf
from .environment import EnvironmentModel
from .errors import EstimationError, as_integer

__all__ = [
    "SimulationConfig",
    "SimulationEstimate",
    "EnvironmentPath",
    "default_warmup",
    "simulate_environment",
    "simulate_queue",
    "estimate_factorial_moments",
]

MAX_ESTIMATED_ORDER = 6

# The blocked scan of the jump chain reads K table entries per segment
# where the loop takes one Python step, and its table holds up to
# K (K^2 + 1) entries, so it pays only for small K.  Routing 2200 K
# uniforms (2-vCPU VM, numpy 2.4) ran 2.9x faster than the loop at K = 3
# and 1.8x at K = 8, but only 1.35x at K = 15 and even near K = 30.
# Blocks of 16 to 24 steps were fastest.
_SCAN_MAX_STATES = 8
_SCAN_BLOCK = 24


@dataclass(frozen=True)
class SimulationConfig:
    """Replication layout for a moment-estimation run.

    Samples are taken one mean environment cycle apart, which keeps
    consecutive samples weakly correlated; the cycle is the model's, so
    the config holds no interval.  A field out of range, or an integer
    field given anything but an integer (a bool or a float included), is
    an input error: ValueError.
    """

    warmup: float
    horizon: float
    replications: int
    master_seed: int
    n_est: int = 3

    def __post_init__(self):
        for name in ("replications", "master_seed", "n_est"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if not (math.isfinite(self.warmup) and self.warmup >= 0.0):
            raise ValueError(f"warmup must be finite and nonnegative, got {self.warmup}")
        if not (math.isfinite(self.horizon) and self.horizon > self.warmup):
            raise ValueError(
                f"horizon ({self.horizon}) must be finite and exceed warmup ({self.warmup})"
            )
        if self.replications < 2:
            raise ValueError(
                f"at least 2 replications are required for a standard error, got {self.replications}"
            )
        if not 1 <= self.n_est <= MAX_ESTIMATED_ORDER:
            raise ValueError(
                f"n_est must be in 1..{MAX_ESTIMATED_ORDER}, got {self.n_est}"
            )
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master seed must fit in 64 bits, got {self.master_seed}")


@dataclass(frozen=True)
class EnvironmentPath:
    """Piecewise-constant state trajectory: segment k spans ``durations[k]``."""

    states: np.ndarray
    durations: np.ndarray

    def occupancy(self, num_states: int, start: float, stop: float) -> np.ndarray:
        """Fraction of [start, stop] spent in each state."""
        ends = np.cumsum(self.durations)
        begins = ends - self.durations
        overlap = np.minimum(ends, stop) - np.maximum(begins, start)
        overlap = np.maximum(overlap, 0.0)
        weights = np.bincount(self.states, weights=overlap, minlength=num_states)
        total = weights.sum()
        if total <= 0.0:
            raise EstimationError("empty occupancy window")
        return weights / total


@dataclass(frozen=True)
class SimulationEstimate:
    """Falling-factorial moment estimates with across-replication errors.

    ``estimates[n]`` approximates E[N(N-1)...(N-n+1)] for n = 0..n_est
    (order 0 is identically 1).  ``config`` is the configuration the run
    used: n_est, the replications, the master seed and every other
    setting are read from it, and ``to_dict`` holds the results alone.
    Standard errors are computed across replications only, never pooled
    within one, which sidesteps the autocorrelation of consecutive
    samples.
    """

    estimates: np.ndarray
    standard_errors: np.ndarray
    samples_per_replication: int
    occupancy: np.ndarray
    config: SimulationConfig = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "estimates": self.estimates.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "samples_per_replication": self.samples_per_replication,
            "occupancy": self.occupancy.tolist(),
        }


def default_warmup(model: EnvironmentModel) -> float:
    """Recommended warmup: 20 mean service times at the slowest positive speed."""
    positive = model.speeds[model.speeds > 0.0]
    return 20.0 / (model.mu * float(positive.min()))


def replication_rng(master_seed: int, replication: int) -> "np.random.Generator":
    """Isolated stream for one replication; independent of scheduling order."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(replication),))
    )


def _loop_router(routing_cdf: np.ndarray):
    """Route the jump chain one segment at a time: ``bisect_right`` of each uniform."""
    rows = routing_cdf.tolist()

    def route(state: int, uniforms: np.ndarray) -> np.ndarray:
        chunk = []
        for u in uniforms.tolist():
            state = bisect_right(rows[state], u)
            chunk.append(state)
        return np.array(chunk)

    return route


def _block_router(routing_cdf: np.ndarray):
    """Route the jump chain by a blocked scan over a symbol table.

    The distinct CDF breakpoints cut [0, 1) into intervals; every uniform
    in interval j sends state s to ``table[j, s]``, which is exactly
    ``bisect_right(routing_cdf[s], u)``.  Each block of ``_SCAN_BLOCK``
    steps is run from all K entry states at once, the block exits are
    chained from the known start state in one scalar pass, and the steps
    are replayed from the chained entries.
    """
    k_count = routing_cdf.shape[0]
    breakpoints = np.unique(routing_cdf)
    table = np.zeros((breakpoints.size + 1, k_count), dtype=np.int64)
    for state, row in enumerate(routing_cdf):
        table[1:, state] = np.searchsorted(row, breakpoints, side="right")
    table = table.ravel()  # entry (j, s) at j * K + s
    every_state = np.arange(k_count)

    def route(state: int, uniforms: np.ndarray) -> np.ndarray:
        blocks = -(-uniforms.size // _SCAN_BLOCK)
        # step t of every block is row t, with the symbols scaled to table rows
        symbols = np.zeros(blocks * _SCAN_BLOCK, dtype=np.int64)
        symbols[: uniforms.size] = np.searchsorted(breakpoints, uniforms, side="right")
        rows = symbols.reshape(blocks, _SCAN_BLOCK).T.copy()
        rows *= k_count
        exits = np.broadcast_to(every_state, (blocks, k_count))
        for row in rows:
            exits = table[row[:, np.newaxis] + exits]
        entries = []
        for block_exits in exits.tolist():
            entries.append(state)
            state = block_exits[state]
        states = np.empty_like(rows)
        current = np.array(entries)
        for t, row in enumerate(rows):
            current = states[t] = table[row + current]
        return states.T.ravel()[: uniforms.size]

    return route


class _Workspace:
    """What the replications of one estimate share.

    The jump chain's router and the occupancy CDF depend on the model
    alone.  The three float buffers hold the queue layer's customer
    arrays; they grow to the largest replication seen, with at most 1/32
    slack, and never shrink, and a replication uses only its leading
    ``customers`` entries.
    """

    def __init__(self, model: EnvironmentModel):
        routing_cdf = _normalised_cdf(model.routing)
        if model.num_states <= _SCAN_MAX_STATES:
            self.route = _block_router(routing_cdf)
        else:
            self.route = _loop_router(routing_cdf)
        self.occupancy_cdf = _normalised_cdf(model.statics.occupancy)
        self._buffers = np.empty((3, 0))

    def customer_arrays(self, customers: int) -> np.ndarray:
        """Three contiguous float rows of length ``customers``, contents undefined."""
        if self._buffers.shape[1] < customers:
            self._buffers = None  # holding the old block and the new one at once sets the peak RSS
            self._buffers = np.empty((3, customers + customers // 32))
        return self._buffers[:, :customers]


def simulate_environment(
    model: EnvironmentModel,
    horizon: float,
    rng: "np.random.Generator",
    *,
    workspace: _Workspace = None,
) -> EnvironmentPath:
    """Generate a stationary environment trajectory covering [0, horizon].

    The initial state is drawn from the occupancy law and its sojourn
    from the equilibrium residual law.  Later segments come in chunks
    sized from the remaining time over the mean segment length, the
    model's ``statics.cycle_length`` over its K states: one
    uniform per segment routes the jump chain, then every sojourn of a
    state in the chunk is drawn in one call, states in index order.  The
    path ends with the first segment whose end reaches the horizon.

    Up to ``_SCAN_MAX_STATES`` states the chain is routed by a blocked
    scan (``_block_router``), above it one segment at a time; both give
    the same states from the same uniforms.  The router and the
    occupancy CDF come from ``workspace``, built here when none is given.
    """
    if workspace is None:
        workspace = _Workspace(model)
    route = workspace.route
    state = int(np.searchsorted(workspace.occupancy_cdf, rng.random(), side="right"))
    first = model.sojourns[state].sample_residual(rng)
    mean_segment = model.statics.cycle_length / model.num_states

    states = [np.array([state])]
    durations = [np.array([first])]
    elapsed = first
    while elapsed < horizon:
        size = int(1.1 * (horizon - elapsed) / mean_segment) + 16
        chunk = route(state, rng.random(size))
        chunk_durations = np.empty(size)
        for k, sojourn in enumerate(model.sojourns):
            visits = chunk == k
            count = int(np.count_nonzero(visits))
            if count:
                chunk_durations[visits] = sojourn.sample(rng, count)
        # the same running sum np.cumsum gives over the whole path
        ends = np.cumsum(np.concatenate(([elapsed], chunk_durations)))[1:]
        stop = int(np.searchsorted(ends, horizon, side="left"))
        keep = min(stop + 1, size)
        states.append(chunk[:keep])
        durations.append(chunk_durations[:keep])
        elapsed = ends[keep - 1]
        state = int(chunk[keep - 1])
    return EnvironmentPath(
        states=np.concatenate(states).astype(np.int64), durations=np.concatenate(durations)
    )


def simulate_queue(
    model: EnvironmentModel,
    path: EnvironmentPath,
    grid: np.ndarray,
    rng: "np.random.Generator",
    *,
    workspace: _Workspace = None,
) -> np.ndarray:
    """Customer counts at the grid times, for one environment trajectory.

    Each segment gets an exact Poisson number of arrivals, placed
    uniformly in it; each customer leaves when the work level reaches
    its threshold W(arrival) + Exp(mu).  All counts come from one
    ``poisson`` call over the segments, then one ``random`` and one
    standard-exponential call over the customers, scaled by 1/mu (the
    same bits as ``exponential(1/mu)``).  The draws and the segment
    durations, starts, speeds and work levels, gathered through one
    segment index, go into three customer arrays, the buffers of
    ``workspace`` or, without one, three fresh arrays.  Because a threshold
    exceeds the work level at arrival, a customer with threshold at most
    W(t) has arrived by t, so the count at t is the number of arrivals
    at or before t minus the number of thresholds at or below W(t), two
    binary searches in sorted arrays.
    """
    grid = np.asarray(grid, dtype=float)
    durations = path.durations
    ends = np.cumsum(durations)
    if grid.size and grid[-1] > ends[-1]:
        raise ValueError(
            f"sampling grid ends at {grid[-1]} beyond the path duration {ends[-1]}"
        )
    starts = np.concatenate(([0.0], ends[:-1]))
    speeds = model.speeds[path.states]
    work_ends = np.cumsum(speeds * durations)
    work_starts = np.concatenate(([0.0], work_ends[:-1]))

    per_segment = rng.poisson(model.arrival_rates[path.states] * durations)
    segment = np.repeat(np.arange(durations.size), per_segment)
    if workspace is None:
        offsets, arrivals, thresholds = np.empty((3, segment.size))
    else:
        offsets, arrivals, thresholds = workspace.customer_arrays(segment.size)
    # mode="clip" gathers straight into ``out``; every index is in range
    rng.random(out=offsets)
    offsets *= np.take(durations, segment, out=arrivals, mode="clip")
    np.take(starts, segment, out=arrivals, mode="clip")
    arrivals += offsets
    np.take(speeds, segment, out=thresholds, mode="clip")
    thresholds *= offsets
    thresholds += np.take(work_starts, segment, out=offsets, mode="clip")
    rng.standard_exponential(out=offsets)
    offsets *= 1.0 / model.mu
    thresholds += offsets
    arrivals.sort()
    thresholds.sort()

    # grid time t lies in segment ``at``: start < t <= end (t = 0 in the first)
    at = np.searchsorted(ends, grid, side="left")
    work = work_starts[at] + speeds[at] * (grid - starts[at])
    arrived = np.searchsorted(arrivals, grid, side="right")
    departed = np.searchsorted(thresholds, work, side="right")
    return (arrived - departed).astype(np.int64)


def _falling_factorial_means(counts: np.ndarray, n_est: int) -> np.ndarray:
    values = counts.astype(float)
    out = np.empty(n_est + 1)
    out[0] = 1.0
    running = np.ones_like(values)
    for n in range(1, n_est + 1):
        running = running * (values - (n - 1))
        out[n] = float(running.mean())
    return out


def _replication_estimate(
    model: EnvironmentModel,
    config: SimulationConfig,
    grid: np.ndarray,
    replication: int,
    workspace: _Workspace,
):
    """One replication: (falling-factorial means, post-warmup occupancy)."""
    rng = replication_rng(config.master_seed, replication)
    path = simulate_environment(model, config.horizon, rng, workspace=workspace)
    counts = simulate_queue(model, path, grid, rng, workspace=workspace)
    moments = _falling_factorial_means(counts, config.n_est)
    occupancy = path.occupancy(model.num_states, start=config.warmup, stop=config.horizon)
    return moments, occupancy


def _sampling_grid(config: SimulationConfig, cycle: float) -> np.ndarray:
    """Sample times after the warmup, one mean cycle apart."""
    try:
        grid = np.arange(config.warmup + cycle, config.horizon, cycle)
    except (MemoryError, ValueError):
        # ValueError: a length numpy cannot represent, past the address space
        raise ValueError(
            f"horizon {config.horizon} needs more sample times, one mean cycle ({cycle}) "
            "apart, than memory can hold; shorten the horizon"
        ) from None
    if grid.size < 2:
        raise ValueError(
            "fewer than 2 samples fit between warmup and horizon, one mean cycle apart; "
            "lengthen the horizon"
        )
    return grid


def estimate_factorial_moments(model: EnvironmentModel, config: SimulationConfig) -> SimulationEstimate:
    """Estimate the factorial moments of the customer count by replication.

    Runs ``config.replications`` independent replications, averages the
    falling factorials of the sampled counts per replication, and reports
    the across-replication mean and standard error per order.  The
    samples are the model's ``statics.cycle_length`` apart.  The
    replications share one workspace, dropped when this returns.
    """
    grid = _sampling_grid(config, model.statics.cycle_length)
    workspace = _Workspace(model)

    per_rep = np.empty((config.replications, config.n_est + 1))
    occupancies = np.empty((config.replications, model.num_states))
    for replication in range(config.replications):
        per_rep[replication], occupancies[replication] = _replication_estimate(
            model, config, grid, replication, workspace
        )

    estimates = per_rep.mean(axis=0)
    spread = per_rep.std(axis=0, ddof=1)
    standard_errors = spread / math.sqrt(config.replications)
    if not (np.all(np.isfinite(estimates)) and np.all(np.isfinite(standard_errors))):
        raise EstimationError("estimates or standard errors are not finite")
    return SimulationEstimate(
        estimates=estimates,
        standard_errors=standard_errors,
        samples_per_replication=int(grid.size),
        occupancy=occupancies.mean(axis=0),
        config=config,
    )

