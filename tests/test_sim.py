import math
import tracemalloc

import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    EnvironmentModel,
    EnvironmentPath,
    EstimationError,
    Exponential,
    Gamma,
    HyperExponential,
    SimulationConfig,
    default_warmup,
    estimate_factorial_moments,
    simulate_environment,
    simulate_queue,
)
from mminfenv import sim
from mminfenv.distributions import _normalised_cdf
from mminfenv.sim import replication_rng

from conftest import identical_state_model, random_mixed_model, ring_model, shrinking_replication_order


def small_config(**overrides):
    fields = dict(warmup=20.0, horizon=420.0, replications=4, master_seed=7, n_est=2)
    fields.update(overrides)
    return SimulationConfig(**fields)


class TestConfig:
    def test_single_replication_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            small_config(replications=1)

    def test_warmup_must_precede_horizon(self):
        with pytest.raises(ValueError):
            small_config(warmup=500.0, horizon=400.0)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            small_config(n_est=7)

    def test_interval_is_not_a_field(self):
        # the samples are one mean cycle apart: the config takes no interval
        with pytest.raises(TypeError, match="sampling_interval"):
            small_config(sampling_interval=2.5)

    def test_default_interval_is_mean_cycle(self):
        # the estimate carries the config it ran, and its samples sit one
        # mean cycle apart after the warmup
        model = identical_state_model()
        statics = model.statics
        config = small_config()
        estimate = estimate_factorial_moments(model, config)
        assert estimate.config == config
        assert estimate.samples_per_replication == int((420.0 - 20.0) / statics.cycle_length)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("master_seed", 7.9),
            ("master_seed", True),
            ("replications", 3.0),
            ("replications", True),
            ("n_est", 2.0),
            ("n_est", True),
            ("n_est", "2"),
        ],
    )
    def test_integer_fields_reject_non_integers(self, name, value):
        # a float is not truncated and a bool is not read as 0 or 1
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_config(**{name: value})

    def test_integer_fields_are_stored_as_int(self):
        config = small_config(replications=np.int64(4), master_seed=np.uint64(7), n_est=np.int32(2))
        assert [type(config.replications), type(config.master_seed), type(config.n_est)] == [int, int, int]

    def test_default_warmup_rule(self):
        model = identical_state_model()  # speeds 0.8, mu 1.25
        assert default_warmup(model) == pytest.approx(20.0 / (1.25 * 0.8))


class TestEnvironmentPaths:
    def test_deterministic_cycle_is_periodic(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0],
            sojourns=(Deterministic(0.5), Deterministic(1.0), Deterministic(0.25)),
            mu=1.0,
            routing=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        path = simulate_environment(model, 50.0, np.random.default_rng(0))
        states = path.states
        # after the initial residual segment the cycle repeats exactly
        for i in range(1, len(states) - 3):
            assert states[i + 3] == states[i]
        durations = path.durations[1:]
        expected = {0: 0.5, 1: 1.0, 2: 0.25}
        for state, duration in zip(states[1:], durations):
            assert duration == expected[int(state)]

    def test_occupancy_matches_renewal_reward(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(0.5), Exponential(2.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        statics = model.statics
        # pi = (1/2, 1/2); means (2, 1/2) -> occupancy (4/5, 1/5)
        occupancies = []
        for rep in range(16):
            path = simulate_environment(model, 500.0, replication_rng(99, rep))
            occupancies.append(path.occupancy(2, 0.0, 500.0))
        occupancies = np.array(occupancies)
        se = occupancies.std(axis=0, ddof=1) / math.sqrt(16)
        gap = np.abs(occupancies.mean(axis=0) - statics.occupancy)
        assert np.all(gap <= 3.0 * se + 1e-12)

    def test_dominant_state_concentration(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Deterministic(50.0), Deterministic(0.01)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        path = simulate_environment(model, 2000.0, np.random.default_rng(5))
        occupancy = path.occupancy(2, 0.0, 2000.0)
        assert occupancy[0] > 0.99

    def test_routing_continues_across_chunks(self):
        # mostly very short sojourns with a rare long one make a chunk sized
        # by the mean fall short of the horizon, so the path takes several;
        # on a deterministic ring each chunk must go on from the last state
        sojourn = HyperExponential(probs=(0.99, 0.01), rates=(100.0, 0.01))
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0],
            sojourns=(sojourn, sojourn, sojourn),
            mu=1.0,
            routing=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
        )
        statics = model.statics
        first_chunk = 1.1 * 200.0 / (statics.cycle_length / 3) + 17
        lengths = []
        for rep in range(8):
            states = simulate_environment(model, 200.0, replication_rng(3, rep)).states
            assert np.array_equal(states[1:], (states[:-1] + 1) % 3)
            lengths.append(states.size)
        assert max(lengths) > 2 * first_chunk

    def test_path_covers_horizon(self):
        model = identical_state_model()
        path = simulate_environment(model, 123.0, np.random.default_rng(1))
        assert path.durations.sum() >= 123.0

    def test_empty_occupancy_window_raises(self):
        path = EnvironmentPath(states=np.array([0, 1]), durations=np.array([1.0, 2.0]))
        with pytest.raises(EstimationError, match="^empty occupancy window$"):
            path.occupancy(2, start=1.5, stop=1.5)

    def test_path_stops_at_first_segment_reaching_horizon(self, k3_mixed_model):
        for horizon in (0.5, 37.0, 900.0):
            for rep in range(4):
                path = simulate_environment(k3_mixed_model, horizon, replication_rng(13, rep))
                ends = np.cumsum(path.durations)
                assert ends[-1] >= horizon
                assert np.all(ends[:-1] < horizon)


class TestRouting:
    """The blocked scan routes the jump chain exactly as the loop does."""

    CHUNKS = (1, sim._SCAN_BLOCK - 1, sim._SCAN_BLOCK, sim._SCAN_BLOCK + 1, 5 * sim._SCAN_BLOCK + 7)

    @staticmethod
    def _assert_routers_agree(routing, uniforms):
        cdf = _normalised_cdf(np.asarray(routing, dtype=float))
        loop, scan = sim._loop_router(cdf), sim._block_router(cdf)
        for state in range(cdf.shape[0]):
            expected = loop(state, uniforms)
            routed = scan(state, uniforms)
            assert routed.dtype == np.int64
            assert np.array_equal(routed, expected)

    @pytest.mark.parametrize("k_count", range(2, sim._SCAN_MAX_STATES + 3))
    def test_scan_matches_loop(self, k_count):
        rng = np.random.default_rng(400 + k_count)
        models = [random_mixed_model(k_count, rng)]
        if k_count >= 3:
            models.append(ring_model(k_count, rng))
        for model in models:
            for size in self.CHUNKS:
                self._assert_routers_agree(model.routing, rng.random(size))

    def test_zero_probability_entries(self):
        # zeros inside a row and trailing it: repeated breakpoints and a
        # CDF that reaches 1 before its last entry
        routing = [
            [0.0, 0.0, 0.5, 0.0, 0.5],
            [0.25, 0.0, 0.0, 0.75, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
        ]
        rng = np.random.default_rng(5)
        for size in self.CHUNKS:
            self._assert_routers_agree(routing, rng.random(size))

    def test_uniforms_on_breakpoints(self, k3_mixed_model):
        # k3_mixed's CDF rows break at 0.4, 0.5, 0.7 and 1: a uniform on a
        # breakpoint goes past it, as bisect_right does
        points = np.array([0.0, 0.4, 0.5, 0.7])
        uniforms = np.concatenate([points, np.nextafter(points[1:], 0.0), np.nextafter(points, 1.0)])
        uniforms = np.tile(uniforms, 4)
        for size in (*self.CHUNKS[:4], uniforms.size):
            self._assert_routers_agree(k3_mixed_model.routing, uniforms[:size])

    @pytest.mark.parametrize("build", ["k3_mixed", "random_mixed_k5"])
    def test_estimates_do_not_depend_on_the_router(self, k3_mixed_model, monkeypatch, build):
        if build == "k3_mixed":
            model = k3_mixed_model
        else:
            model = random_mixed_model(5, np.random.default_rng(77))
        config = small_config(n_est=3, horizon=1200.0)
        scanned = estimate_factorial_moments(model, config)
        monkeypatch.setattr(sim, "_SCAN_MAX_STATES", 0)
        looped = estimate_factorial_moments(model, config)
        for field in ("estimates", "standard_errors", "occupancy"):
            assert getattr(scanned, field).tobytes() == getattr(looped, field).tobytes()


class TestQueue:
    def test_no_arrivals_no_customers(self):
        # a model needs some arrivals, but a path that stays in the
        # zero-arrival state brings the queue layer no customer
        model = EnvironmentModel(
            arrival_rates=[0.0, 1.0],
            speeds=[1.0, 0.5],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        path = EnvironmentPath(states=np.array([0, 0, 0]), durations=np.array([5.0, 5.0, 5.0]))
        counts = simulate_queue(model, path, np.linspace(1.0, 14.0, 20), np.random.default_rng(2))
        assert np.all(counts == 0)

    def test_identical_state_is_unit_poisson(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        config = SimulationConfig(warmup=20.0, horizon=1520.0, replications=12, master_seed=11, n_est=2)
        estimate = estimate_factorial_moments(model, config)
        # Poisson(1): mean 1 and second factorial moment 1 (so variance 1)
        for order in (1, 2):
            gap = abs(estimate.estimates[order] - 1.0)
            assert gap <= 3.0 * estimate.standard_errors[order]

    def test_frozen_environment_classical_limit(self):
        # state 1 lasts longer than the horizon, so the environment is
        # effectively frozen: classical infinite-server load lambda/(beta mu)
        model = EnvironmentModel(
            arrival_rates=[2.0, 0.0],
            speeds=[0.8, 1.0],
            sojourns=(Deterministic(1e7), Exponential(1.0)),
            mu=1.25,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        rho = 2.0 / (0.8 * 1.25)
        means = []
        for rep in range(8):
            rng = replication_rng(17, rep)
            path = EnvironmentPath(states=np.array([0]), durations=np.array([2000.0]))
            counts = simulate_queue(model, path, np.arange(30.0, 2000.0, 2.0), rng)
            means.append(counts.mean())
        means = np.array(means)
        se = means.std(ddof=1) / math.sqrt(means.size)
        assert abs(means.mean() - rho) <= 3.0 * se

    def test_arrival_rate_scaling(self):
        # frozen environment: doubling the arrival rate doubles the mean count
        def frozen_mean(rate, seed):
            model = EnvironmentModel(
                arrival_rates=[rate, 0.0],
                speeds=[1.0, 1.0],
                sojourns=(Deterministic(1e7), Exponential(1.0)),
                mu=1.0,
                routing=[[0.0, 1.0], [1.0, 0.0]],
            )
            values = []
            for rep in range(8):
                rng = replication_rng(seed, rep)
                path = EnvironmentPath(states=np.array([0]), durations=np.array([1500.0]))
                values.append(simulate_queue(model, path, np.arange(25.0, 1500.0, 2.0), rng).mean())
            return np.array(values)

        base = frozen_mean(1.0, 23)
        doubled = frozen_mean(2.0, 29)
        se = math.hypot(
            2 * base.std(ddof=1) / math.sqrt(base.size),
            doubled.std(ddof=1) / math.sqrt(doubled.size),
        )
        assert abs(doubled.mean() - 2.0 * base.mean()) <= 3.0 * se

    def test_grid_beyond_path_rejected(self):
        model = identical_state_model()
        path = EnvironmentPath(states=np.array([0]), durations=np.array([10.0]))
        with pytest.raises(ValueError):
            simulate_queue(model, path, np.array([5.0, 11.0]), np.random.default_rng(0))

    @staticmethod
    def _bruteforce_counts(model, path, grid, rng):
        # independent oracle: the draws of simulate_queue in the same
        # layout (one Poisson count per segment, then one uniform and one
        # service requirement per customer), with every customer compared
        # against every sample time
        per_segment = rng.poisson(model.arrival_rates[path.states] * path.durations)
        uniforms = rng.random(int(per_segment.sum()))
        sigmas = rng.exponential(1.0 / model.mu, uniforms.size)

        arrivals_all = []
        thresholds_all = []
        segment_start = 0.0
        work_start = 0.0
        work_at = np.zeros(grid.size)
        position = 0
        for state, duration, count in zip(path.states, path.durations, per_segment):
            speed = model.speeds[state]
            segment_end = segment_start + duration
            offsets = duration * uniforms[position : position + count]
            arrivals_all.append(segment_start + offsets)
            thresholds_all.append(work_start + speed * offsets + sigmas[position : position + count])
            position += count
            # a boundary time takes the later segment's level, equal by continuity
            inside = (grid >= segment_start) & (grid <= segment_end)
            work_at[inside] = work_start + speed * (grid[inside] - segment_start)
            work_start += speed * duration
            segment_start = segment_end
        arrivals = np.concatenate(arrivals_all)
        thresholds = np.concatenate(thresholds_all)
        return np.array(
            [
                int(np.sum((arrivals <= t) & (thresholds > w)))
                for t, w in zip(grid, work_at)
            ]
        )

    def _assert_matches_bruteforce(self, model, seed):
        grid = np.arange(2.0, 150.0, 1.7)
        for rep in range(3):
            path = simulate_environment(model, 150.0, replication_rng(31, rep))
            # two generators in identical states: one drives the
            # implementation, the other the naive recount of its draws
            counts = simulate_queue(model, path, grid, replication_rng(seed, rep))
            brute = self._bruteforce_counts(model, path, grid, replication_rng(seed, rep))
            assert brute.sum() > 0
            assert np.array_equal(counts, brute)

    def test_against_bruteforce_counting(self, k3_mixed_model):
        self._assert_matches_bruteforce(k3_mixed_model, 57)

    def test_against_bruteforce_counting_with_idle_state(self):
        # state 1 neither admits nor serves customers, so W stays flat and
        # no segment of it draws an arrival
        model = EnvironmentModel(
            arrival_rates=[2.0, 0.0, 1.0],
            speeds=[1.0, 0.0, 0.5],
            sojourns=(
                Exponential(1.0),
                HyperExponential(probs=(0.3, 0.7), rates=(0.25, 3.0)),
                Gamma(2.0, 1.5),
            ),
            mu=0.8,
            routing=[[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.7, 0.3, 0.0]],
        )
        self._assert_matches_bruteforce(model, 61)

    def test_grid_time_at_path_end_is_counted(self):
        # a sample at the very end of the path used to read 0
        model = identical_state_model()
        path = EnvironmentPath(states=np.array([0, 1]), durations=np.array([50.0, 50.0]))
        grid = np.array([60.0, 99.999, 100.0])
        counts = simulate_queue(model, path, grid, np.random.default_rng(4))
        brute = self._bruteforce_counts(model, path, grid, np.random.default_rng(4))
        assert brute[-1] > 0
        assert np.array_equal(counts, brute)


class TestWorkspace:
    """One estimate's replications share a router and grown customer buffers."""

    @staticmethod
    def _busy(model):
        # the same layout with 100 times the arrivals
        return EnvironmentModel(
            arrival_rates=100.0 * model.arrival_rates,
            speeds=model.speeds,
            sojourns=model.sojourns,
            mu=model.mu,
            routing=model.routing,
        )

    def test_warm_queue_call_allocates_one_index(self, k3_mixed_model):
        # through a warm workspace the customer arrays reuse its buffers,
        # so the traced peak is the one integer segment index (8 bytes per
        # customer) and the small per-segment arrays; three fresh float
        # arrays and a temporary read 4x
        model = self._busy(k3_mixed_model)
        statics = model.statics
        path = simulate_environment(model, 400.0, replication_rng(3, 0))
        grid = np.arange(10.0, 400.0, statics.cycle_length)
        customers = int(replication_rng(5, 0).poisson(model.arrival_rates[path.states] * path.durations).sum())
        workspace = sim._Workspace(model)
        warm = simulate_queue(model, path, grid, replication_rng(5, 0), workspace=workspace)
        rng = replication_rng(5, 0)
        tracemalloc.start()
        try:
            counts = simulate_queue(model, path, grid, rng, workspace=workspace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert customers > 50_000
        assert peak < 1.5 * 8 * customers
        assert np.array_equal(counts, warm)

    def test_grown_workspace_counts_as_a_fresh_one(self, k3_mixed_model):
        # a short path, a long one that grows the buffers, then the short
        # one again over the long one's stale entries: each reads the
        # counts of a call without a workspace
        model = k3_mixed_model
        statics = model.statics
        workspace = sim._Workspace(model)
        for rep, horizon in enumerate((150.0, 2400.0, 150.0, 600.0)):
            path = simulate_environment(model, horizon, replication_rng(9, rep % 2))
            grid = np.arange(5.0, horizon, statics.cycle_length)
            shared = simulate_queue(model, path, grid, replication_rng(13, rep), workspace=workspace)
            fresh = simulate_queue(model, path, grid, replication_rng(13, rep))
            assert shared.dtype == fresh.dtype == np.int64
            assert np.array_equal(shared, fresh)

    def test_zero_customers_through_a_filled_workspace(self):
        model = EnvironmentModel(
            arrival_rates=[0.0, 1.0],
            speeds=[1.0, 0.5],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        workspace = sim._Workspace(model)
        grid = np.linspace(1.0, 14.0, 20)
        busy = EnvironmentPath(states=np.array([1, 1, 1]), durations=np.array([5.0, 5.0, 5.0]))
        idle = EnvironmentPath(states=np.array([0, 0, 0]), durations=np.array([5.0, 5.0, 5.0]))
        assert simulate_queue(model, busy, grid, np.random.default_rng(2), workspace=workspace).sum() > 0
        counts = simulate_queue(model, idle, grid, np.random.default_rng(2), workspace=workspace)
        assert np.all(counts == 0)

    def test_each_layer_runs_once_per_replication(self, k3_mixed_model, monkeypatch):
        # the estimate reaches both layers through the module's names, once
        # each per replication, so a wrapper put there sees every call
        results = {"simulate_environment": [], "simulate_queue": []}

        def counting(original, seen):
            def wrapper(*args, **kwargs):
                seen.append(original(*args, **kwargs))
                return seen[-1]

            return wrapper

        for name, seen in results.items():
            monkeypatch.setattr(sim, name, counting(getattr(sim, name), seen))
        config = small_config(replications=5)
        estimate_factorial_moments(k3_mixed_model, config)
        assert len(results["simulate_environment"]) == config.replications
        assert len(results["simulate_queue"]) == config.replications
        assert all(isinstance(path, EnvironmentPath) for path in results["simulate_environment"])


class TestEstimates:
    def test_draw_stream_is_pinned(self, k3_mixed_model):
        # a change to any draw, its order or its arithmetic moves these
        # bits; the values are those of the loop router and the gathered
        # queue arrays the simulator had before the blocked scan
        estimate = estimate_factorial_moments(k3_mixed_model, small_config(n_est=3))
        assert [value.hex() for value in estimate.estimates.tolist()] == [
            "0x1.0000000000000p+0", "0x1.48819ec8e9510p+1", "0x1.b440cf6474a88p+2", "0x1.27984dc5abbf3p+4",
        ]
        assert [value.hex() for value in estimate.standard_errors.tolist()] == [
            "0x0.0p+0", "0x1.06c1164c54836p-3", "0x1.cf6d283b65519p-2", "0x1.c88ed2b422188p+0",
        ]
        assert [value.hex() for value in estimate.occupancy.tolist()] == [
            "0x1.6d21d38ee9546p-1", "0x1.eb851eb851eb8p-3", "0x1.7fce4c30230b6p-5",
        ]
        assert estimate.samples_per_replication == 79

    def test_reproducibility_bitwise(self):
        model = identical_state_model()
        config = small_config()
        first = estimate_factorial_moments(model, config)
        second = estimate_factorial_moments(model, config)
        assert np.array_equal(first.estimates, second.estimates)
        assert np.array_equal(first.standard_errors, second.standard_errors)
        assert np.array_equal(first.occupancy, second.occupancy)

    def test_schedule_independent_reduction(self):
        # computing replications in any order through one workspace, a
        # replication of more customers before one of fewer, and reducing
        # by index gives the same estimate as the sequential run
        from mminfenv.sim import _replication_estimate, _sampling_grid, _Workspace

        model = identical_state_model()
        statics = model.statics
        sequential = estimate_factorial_moments(model, small_config())
        config = sequential.config
        grid = _sampling_grid(config, statics.cycle_length)
        shuffled_order = shrinking_replication_order(model, config)
        assert shuffled_order != sorted(shuffled_order)
        workspace = _Workspace(model)
        results = {}
        for rep in shuffled_order:
            results[rep] = _replication_estimate(model, config, grid, rep, workspace)[0]
        stacked = np.stack([results[rep] for rep in range(config.replications)])
        assert np.array_equal(stacked.mean(axis=0), sequential.estimates)

    def test_estimate_invariants(self):
        model = identical_state_model()
        estimate = estimate_factorial_moments(model, small_config())
        assert estimate.estimates[0] == 1.0
        assert estimate.standard_errors[0] == 0.0
        assert np.all(np.isfinite(estimate.estimates))
        assert np.all(np.isfinite(estimate.standard_errors))
        # results only: the settings live on ``estimate.config``
        assert sorted(estimate.to_dict()) == [
            "estimates", "occupancy", "samples_per_replication", "standard_errors",
        ]
        assert (estimate.config.replications, estimate.config.master_seed) == (4, 7)
