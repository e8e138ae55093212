import re
from pathlib import Path

import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    EnvironmentModel,
    Exponential,
    ModelError,
    NumericError,
    chain_statics,
    load_model,
    mean_cycle_length,
    validate_model,
)
from mminfenv.environment import _stationary_law

from conftest import MODELS_DIR, random_exponential_model, random_mixed_model, random_routing

SHIPPED = sorted(MODELS_DIR.glob("*.yaml"))


def two_state_model(**overrides):
    fields = dict(
        arrival_rates=[1.0, 2.0],
        speeds=[1.0, 0.5],
        sojourns=(Exponential(1.0), Exponential(2.0)),
        mu=1.0,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )
    fields.update(overrides)
    return EnvironmentModel(**fields)


def model_with_routing(routing):
    k_count = len(routing)
    return EnvironmentModel(
        arrival_rates=np.ones(k_count),
        speeds=np.ones(k_count),
        sojourns=tuple(Exponential(1.0) for _ in range(k_count)),
        mu=1.0,
        routing=routing,
    )


class TestValidate:
    def test_valid_model_has_empty_report(self):
        assert validate_model(two_state_model()) == []

    def test_nonzero_diagonal_flagged(self):
        model = two_state_model(routing=[[0.5, 0.5], [1.0, 0.0]])
        report = validate_model(model)
        assert any("diagonal" in line for line in report)

    def test_all_zero_speeds_flagged(self):
        model = two_state_model(speeds=[0.0, 0.0])
        report = validate_model(model)
        assert any("positive speed" in line for line in report)

    def test_all_zero_arrivals_flagged(self):
        model = two_state_model(arrival_rates=[0.0, 0.0])
        assert any("arrival" in line for line in validate_model(model))

    def test_arrivals_with_zero_speed_flagged(self):
        model = two_state_model(speeds=[0.0, 1.0])
        assert any("zero speed" in line for line in validate_model(model))

    def test_bad_row_sum_flagged(self):
        model = two_state_model(routing=[[0.0, 0.9], [1.0, 0.0]])
        assert any("sums to" in line for line in validate_model(model))

    def test_reducible_routing_flagged(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0, 1.0],
            sojourns=tuple(Exponential(1.0) for _ in range(4)),
            mu=1.0,
            routing=[
                [0.0, 1.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
        )
        assert any("irreducible" in line for line in validate_model(model))

    def test_irreducibility_matches_transitive_closure(self):
        rng = np.random.default_rng(17)
        verdicts = []
        for _ in range(200):
            k_count = int(rng.integers(2, 31))
            edges = rng.random((k_count, k_count)) < rng.uniform(0.02, 0.3)
            # every state needs an exit so that the routing stays row-stochastic
            exits = (np.arange(k_count) + rng.integers(1, k_count, k_count)) % k_count
            edges[np.arange(k_count), exits] = True
            np.fill_diagonal(edges, False)
            closure = np.eye(k_count, dtype=bool) | edges
            for _ in range(int(np.ceil(np.log2(k_count)))):
                closure = (closure.astype(np.int64) @ closure.astype(np.int64)) > 0
            routing = edges / edges.sum(axis=1, keepdims=True)
            flagged = "routing matrix is not irreducible" in validate_model(model_with_routing(routing))
            assert flagged == (not closure.all())
            verdicts.append(flagged)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_irreducibility_at_k500(self):
        k_count = 500
        cycle = np.roll(np.eye(k_count), 1, axis=1)
        assert validate_model(model_with_routing(cycle)) == []
        # two 250-cycles, the first leaking into the second and never back
        half = k_count // 2
        blocks = np.zeros((k_count, k_count))
        blocks[:half, :half] = np.roll(np.eye(half), 1, axis=1)
        blocks[half:, half:] = np.roll(np.eye(half), 1, axis=1)
        blocks[half - 1, [0, half]] = 0.5
        assert validate_model(model_with_routing(blocks)) == ["routing matrix is not irreducible"]

    def test_single_state_flagged(self):
        model = EnvironmentModel(
            arrival_rates=[1.0],
            speeds=[1.0],
            sojourns=(Exponential(1.0),),
            mu=1.0,
            routing=[[0.0]],
        )
        assert any("at least 2" in line for line in validate_model(model))

    def test_shape_mismatch_raises_at_construction(self):
        with pytest.raises(ModelError):
            two_state_model(routing=[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
        with pytest.raises(ModelError):
            two_state_model(sojourns=(Exponential(1.0),))


class TestChainStatics:
    def test_two_state_swap(self):
        statics = chain_statics(two_state_model())
        assert statics.pi == pytest.approx([0.5, 0.5], abs=1e-14)
        assert statics.reversed_routing == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_cyclic_three_states(self):
        # doubly stochastic cycle: pi uniform and reversal transposes the cycle
        routing = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0],
            sojourns=tuple(Exponential(1.0) for _ in range(3)),
            mu=1.0,
            routing=routing,
        )
        statics = chain_statics(model)
        assert statics.pi == pytest.approx([1 / 3] * 3, abs=1e-14)
        assert statics.reversed_routing == pytest.approx(np.array(routing).T)

    def test_random_k4_against_power_iteration(self):
        rng = np.random.default_rng(11)
        model = random_exponential_model(4, rng)
        statics = chain_statics(model)
        # independent oracle: power iteration of the row-stochastic matrix
        vector = np.full(4, 0.25)
        for _ in range(20000):
            vector = vector @ model.routing
            vector /= vector.sum()
        assert np.max(np.abs(statics.pi - vector)) < 1e-10

    def test_stationarity_and_row_sums_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_mixed_model(int(rng.integers(2, 6)), rng)
            statics = chain_statics(model)
            assert np.max(np.abs(statics.pi @ model.routing - statics.pi)) < 1e-12
            assert statics.pi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(statics.pi >= -1e-15)
            rows = statics.reversed_routing.sum(axis=1)
            assert np.max(np.abs(rows - 1.0)) < 1e-12
            assert np.max(np.abs(np.diag(statics.reversed_routing))) == 0.0

    def test_double_reversal_returns_routing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            model = random_mixed_model(4, rng)
            statics = chain_statics(model)
            pi = statics.pi
            double = (statics.reversed_routing.T * pi[np.newaxis, :]) / pi[:, np.newaxis]
            assert np.max(np.abs(double - model.routing)) < 1e-12

    def test_occupancy_weights_by_mean_sojourns(self):
        model = two_state_model(sojourns=(Exponential(1.0), Exponential(4.0)))
        statics = chain_statics(model)
        # pi = (1/2, 1/2); means (1, 1/4) -> occupancy (4/5, 1/5)
        assert statics.occupancy == pytest.approx([0.8, 0.2], abs=1e-14)

    def test_invalid_model_rejected(self):
        with pytest.raises(ModelError):
            chain_statics(two_state_model(routing=[[0.5, 0.5], [1.0, 0.0]]))

    def test_near_singular_balance_raises(self):
        eps = 1e-15
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0, 1.0],
            sojourns=tuple(Exponential(1.0) for _ in range(4)),
            mu=1.0,
            routing=[
                [0.0, 1.0 - eps, eps / 2, eps / 2],
                [1.0 - eps, 0.0, eps / 2, eps / 2],
                [eps / 2, eps / 2, 0.0, 1.0 - eps],
                [eps / 2, eps / 2, 1.0 - eps, 0.0],
            ],
        )
        assert validate_model(model) == []
        with pytest.raises(NumericError):
            chain_statics(model)

    def test_weakly_linked_blocks_raise(self):
        # two 2-state blocks joined by 1e-13 links: the reduced balance
        # system keeps one block, which is left only about once in 1e13 jumps
        eps = 1e-13
        routing = [
            [0.0, 1.0 - eps, eps, 0.0],
            [1.0 - eps, 0.0, 0.0, eps],
            [eps, 0.0, 0.0, 1.0 - eps],
            [0.0, eps, 1.0 - eps, 0.0],
        ]
        model = model_with_routing(routing)
        assert validate_model(model) == []
        assert _stationary_law(model.routing)[2] > 1e12
        with pytest.raises(NumericError, match="near-singular"):
            chain_statics(model)

    def test_rarely_entered_state_is_well_conditioned(self):
        # a tiny stationary mass is no near-singularity: dropping the most
        # entered state leaves the identity
        eps = 1e-13
        model = model_with_routing([[0.0, 1.0 - eps, eps], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        pi, dropped, condition = _stationary_law(model.routing)
        assert dropped == 0
        assert condition == 1.0
        statics = chain_statics(model)
        assert statics.pi == pytest.approx([0.5, (1.0 - eps) / 2, eps / 2], rel=1e-15)

    def test_arrays_are_read_only(self):
        model = two_state_model()
        with pytest.raises(ValueError):
            model.routing[0, 1] = 0.5
        statics = chain_statics(model)
        with pytest.raises(ValueError):
            statics.pi[0] = 1.0


class TestStationaryLaw:
    def test_dropped_state_has_largest_column_sum(self):
        rng = np.random.default_rng(21)
        for k_count in (3, 7, 20):
            routing = random_routing(k_count, rng)
            assert _stationary_law(routing)[1] == np.argmax(routing.sum(axis=0))

    def test_condition_is_exact(self):
        # against the explicit-inverse inf-norm condition number of the
        # reduced matrix, on the shipped models and random draws
        routings = [load_model(path).routing for path in SHIPPED]
        for k_count in (5, 20, 60):
            rng = np.random.default_rng(k_count)
            routings += [random_mixed_model(k_count, rng).routing for _ in range(3)]
        for routing in routings:
            _, dropped, condition = _stationary_law(routing)
            keep = np.flatnonzero(np.arange(len(routing)) != dropped)
            reduced = np.eye(len(keep)) - routing[np.ix_(keep, keep)].T
            assert condition == pytest.approx(np.linalg.cond(reduced, np.inf), rel=1e-12)

    def test_pi_matches_extended_precision_at_k500(self):
        # the all-exponential K = 500 benchmark routing; the reference is
        # power iteration on the lazy chain (I + P) / 2 in long double
        routing = random_routing(500, np.random.default_rng([0, 500]))
        lazy = (np.eye(500, dtype=np.longdouble) + routing.astype(np.longdouble)) / 2
        reference = np.full(500, 1 / np.longdouble(500))
        for _ in range(200):
            reference = reference @ lazy
            reference /= reference.sum()
        assert np.max(np.abs(reference @ lazy - reference) / reference) < 1e-17
        pi = _stationary_law(routing)[0]
        assert np.max(np.abs(pi - reference) / reference) < 1e-14


def test_no_explicit_inverse_in_the_package():
    # each linear system gets one factorisation: no condition number or
    # inverse is formed explicitly anywhere in the package
    package = Path(__file__).resolve().parent.parent / "src" / "mminfenv"
    sources = sorted(package.glob("*.py"))
    assert sources
    pattern = re.compile(r"linalg\.(cond|inv)\s*\(")
    offenders = [
        f"{path.name}:{number}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_mean_cycle_length_cyclic_deterministic():
    model = EnvironmentModel(
        arrival_rates=[1.0, 1.0, 1.0],
        speeds=[1.0, 1.0, 1.0],
        sojourns=(Deterministic(0.5), Deterministic(1.0), Deterministic(2.0)),
        mu=1.0,
        routing=[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    )
    assert mean_cycle_length(model) == pytest.approx(3.5, rel=1e-12)
