from functools import partial

import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    EnvironmentModel,
    Exponential,
    Gamma,
    ModelError,
    NumericError,
    StirlingTables,
    chain_statics,
    compute_moment_table,
    forward_relation_residuals,
    load_model,
    markovian_identity_residuals,
    offered_loads,
    palm_moment_vectors,
    recursion_matrix,
    stationary_moment_vectors,
)
from mminfenv.moments import _require_nonnegative

from conftest import (
    MODELS_DIR,
    identical_state_model,
    random_exponential_model,
    random_mixed_model,
)


def seeded(build, k_count):
    return build(k_count, np.random.default_rng(k_count))


CONDITION_MODELS = [
    pytest.param(partial(load_model, path), id=path.stem)
    for path in sorted(MODELS_DIR.glob("*.yaml"))
] + [
    pytest.param(partial(seeded, build, k_count), id=f"{build.__name__}-k{k_count}")
    for build in (random_exponential_model, random_mixed_model)
    for k_count in (5, 20, 60)
]


class TestOfferedLoads:
    def test_definition(self):
        model = EnvironmentModel(
            arrival_rates=[2.0, 3.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert offered_loads(model) == pytest.approx([2.0, 3.0])

    def test_zero_arrival_state(self):
        model = EnvironmentModel(
            arrival_rates=[4.0, 0.0],
            speeds=[1.0, 0.5],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=2.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert offered_loads(model) == pytest.approx([2.0, 0.0])

    def test_zero_speed_zero_arrivals_allowed(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 0.0],
            speeds=[1.0, 0.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert offered_loads(model) == pytest.approx([1.0, 0.0])

    def test_identical_states_scalar_load(self):
        model = identical_state_model(rho=2.0)
        assert offered_loads(model) == pytest.approx([2.0, 2.0, 2.0])

    def test_divergent_load_rejected(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 0.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        with pytest.raises(ModelError):
            offered_loads(model)


class TestRecursionMatrix:
    def test_two_state_hand_value(self):
        # sojourns Exp(1), unit service rates, alternating routing, order 1
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        statics = chain_statics(model)
        matrix, condition = recursion_matrix(model, statics, 1)
        assert matrix == pytest.approx(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert np.isfinite(condition)

    def test_exponential_diagonal_closed_form(self):
        # 1/tau(s) for Exponential(rate) is 1 + s/rate
        rng = np.random.default_rng(3)
        model = random_exponential_model(3, rng)
        statics = chain_statics(model)
        rates = np.array([d.rate for d in model.sojourns])
        for order in (1, 2, 5):
            matrix, _ = recursion_matrix(model, statics, order)
            expected = np.diag(1.0 + order * model.service_rates / rates) - statics.reversed_routing
            assert matrix == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("build", CONDITION_MODELS)
    def test_condition_is_exact(self, build):
        # the transposed-solve value must match the explicit-inverse 1-norm
        # condition number, and the Palm solve must record that same value
        model = build()
        statics = chain_statics(model)
        palm = palm_moment_vectors(model, statics, 20)
        for order in range(1, 21):
            matrix, condition = recursion_matrix(model, statics, order)
            assert condition == pytest.approx(np.linalg.cond(matrix, 1), rel=1e-12)
            assert palm.condition[order] == condition

    def test_transform_underflow_names_state_and_order(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Deterministic(300.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        statics = chain_statics(model)
        with pytest.raises(NumericError, match=r"state 0.*order 3"):
            recursion_matrix(model, statics, 3)


class TestPalmVectors:
    def test_identical_state_powers(self):
        # constant arrival rates and speeds make the discounted mass
        # deterministic, so every Palm vector is the load power times ones
        model = identical_state_model(rho=2.0)
        palm = palm_moment_vectors(model, n_max=8)
        for n, vector in enumerate(palm.vectors):
            assert vector == pytest.approx(np.full(3, 2.0 ** n), rel=1e-10)

    def test_order_zero_only(self):
        model = identical_state_model()
        palm = palm_moment_vectors(model, n_max=0)
        assert len(palm.vectors) == 1
        assert palm.vectors[0] == pytest.approx(np.ones(3))

    def test_solve_diagnostics_recorded(self, k3_mixed_model):
        palm = palm_moment_vectors(k3_mixed_model, n_max=10)
        assert np.all(np.isfinite(palm.condition[1:]))
        assert np.nanmax(palm.solve_residual) < 1e-10
        assert np.isnan(palm.condition[0])

    def test_order_cap(self):
        with pytest.raises(ValueError):
            palm_moment_vectors(identical_state_model(), n_max=21)

    def test_invalid_model_rejected(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.2, 0.8], [1.0, 0.0]],
        )
        with pytest.raises(ModelError):
            palm_moment_vectors(model, n_max=2)


class TestStationaryVectors:
    def test_all_exponential_equals_palm_exactly(self):
        rng = np.random.default_rng(21)
        for k_count in (2, 3, 5):
            model = random_exponential_model(k_count, rng)
            statics = chain_statics(model)
            palm = palm_moment_vectors(model, statics, n_max=6)
            stationary = stationary_moment_vectors(model, statics, palm)
            for palm_vec, stat_vec in zip(palm.vectors, stationary):
                assert np.max(np.abs(palm_vec - stat_vec)) == 0.0

    def test_order_zero_is_ones(self, k3_mixed_model):
        statics = chain_statics(k3_mixed_model)
        palm = palm_moment_vectors(k3_mixed_model, statics, n_max=3)
        stationary = stationary_moment_vectors(k3_mixed_model, statics, palm)
        assert stationary[0] == pytest.approx(np.ones(3))

    def test_first_order_direct_evaluation(self):
        # deterministic state 1 plus exponential state 2: the order-1
        # update is m^(1) = E_1 m0^(1) + rho (1 - E_1) evaluated directly
        model = EnvironmentModel(
            arrival_rates=[0.0, 2.0],
            speeds=[1.0, 0.8],
            sojourns=(Deterministic(1.3), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        statics = chain_statics(model)
        palm = palm_moment_vectors(model, statics, n_max=1)
        stationary = stationary_moment_vectors(model, statics, palm)
        rho = offered_loads(model)
        ratio = np.array(
            [
                d.residual_laplace(model.service_rates[k]) / d.laplace(model.service_rates[k])
                for k, d in enumerate(model.sojourns)
            ]
        )
        expected = ratio * palm.vectors[1] + rho * (1.0 - ratio)
        assert stationary[1] == pytest.approx(expected, rel=1e-14)
        # with zero arrivals in state 1 the ratio is the whole difference
        assert stationary[1][0] == pytest.approx(ratio[0] * palm.vectors[1][0], rel=1e-14)
        # the exponential coordinate is untouched
        assert stationary[1][1] == palm.vectors[1][1]


class TestMomentTable:
    def test_identical_state_bell_numbers(self):
        model = identical_state_model(rho=1.0)
        table = compute_moment_table(model, n_max=6)
        bell = [1, 1, 2, 5, 15, 52, 203]
        for weighting in ("embedded", "occupancy"):
            assert table.aggregated[weighting] == pytest.approx(np.ones(7), rel=1e-9)
            assert table.raw[weighting] == pytest.approx(bell, rel=1e-9)

    def test_first_factorial_equals_first_raw(self, k3_mixed_model):
        table = compute_moment_table(k3_mixed_model, n_max=4)
        for weighting in ("embedded", "occupancy"):
            assert table.raw[weighting][1] == pytest.approx(
                table.aggregated[weighting][1], rel=1e-14
            )
            assert table.raw[weighting][0] == 1.0
            assert table.aggregated[weighting][0] == pytest.approx(1.0, abs=1e-14)

    def test_round_trip_on_computed_moments(self, k3_mixed_model):
        table = compute_moment_table(k3_mixed_model, n_max=8)
        tables = StirlingTables(8)
        for weighting in ("embedded", "occupancy"):
            back = tables.factorial_from_raw(table.raw[weighting])
            assert back == pytest.approx(table.aggregated[weighting], rel=1e-10)

    def test_weighting_selects_default_view(self, k3_mixed_model):
        table = compute_moment_table(k3_mixed_model, n_max=3, weighting="embedded")
        assert table.factorial_moments() is table.aggregated["embedded"]
        assert table.factorial_moments("occupancy") is table.aggregated["occupancy"]
        with pytest.raises(ValueError):
            compute_moment_table(k3_mixed_model, n_max=2, weighting="nonsense")

    def test_identity_residuals_recorded(self, k3_exponential_model):
        table = compute_moment_table(k3_exponential_model, n_max=4)
        assert np.max(table.identity_residuals["forward_relation"]) < 1e-12
        assert np.max(table.identity_residuals["markovian_identity"]) < 1e-12

    def test_flow_balance_under_occupancy(self):
        # equal service rates: the mean count is the occupancy-weighted
        # arrival rate over the common service rate
        rng = np.random.default_rng(31)
        model = EnvironmentModel(
            arrival_rates=rng.uniform(0.5, 3.0, 3),
            speeds=[0.7, 0.7, 0.7],
            sojourns=(Gamma(2.0, 1.0), Deterministic(0.9), Exponential(1.5)),
            mu=1.1,
            routing=[[0.0, 0.6, 0.4], [0.3, 0.0, 0.7], [0.5, 0.5, 0.0]],
        )
        statics = chain_statics(model)
        table = compute_moment_table(model, n_max=1, statics=statics)
        expected = float(statics.occupancy @ model.arrival_rates) / (0.7 * 1.1)
        assert table.aggregated["occupancy"][1] == pytest.approx(expected, rel=1e-12)

    def test_all_entries_nonnegative(self, k3_mixed_model, k3_exponential_model):
        for model in (k3_mixed_model, k3_exponential_model):
            table = compute_moment_table(model, n_max=8)
            for vec in table.palm + table.stationary:
                assert np.all(vec >= 0.0)
            for weighting in ("embedded", "occupancy"):
                assert np.all(table.aggregated[weighting] >= 0.0)


class TestNonnegativityGuard:
    def test_breakdown_raises(self):
        with pytest.raises(NumericError, match="negative"):
            _require_nonnegative(np.array([1.0, -0.2]), "unit test")
        with pytest.raises(NumericError, match="finite"):
            _require_nonnegative(np.array([1.0, np.inf]), "unit test")

    def test_roundoff_sized_negatives_pass_unclamped(self):
        vec = np.array([1.0, -1e-14])
        _require_nonnegative(vec, "unit test")
        assert vec[1] == -1e-14  # not clamped


class TestIdentityChecks:
    def test_markovian_identity_randomized(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            model = random_exponential_model(3, rng)
            statics = chain_statics(model)
            palm = palm_moment_vectors(model, statics, n_max=6)
            stationary = stationary_moment_vectors(model, statics, palm)
            residuals = markovian_identity_residuals(model, statics, stationary)
            assert np.max(residuals) < 1e-9

    def test_markovian_identity_identical_state_first_order(self):
        beta, mu = 1.0, 1.0
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[beta, beta],
            sojourns=(Exponential(1.0), Exponential(2.0)),
            mu=mu,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        statics = chain_statics(model)
        palm = palm_moment_vectors(model, statics, n_max=1)
        stationary = stationary_moment_vectors(model, statics, palm)
        residuals = markovian_identity_residuals(model, statics, stationary)
        assert residuals[1] < 1e-13

    def test_markovian_identity_not_applicable(self, k3_mixed_model):
        statics = chain_statics(k3_mixed_model)
        palm = palm_moment_vectors(k3_mixed_model, statics, n_max=2)
        stationary = stationary_moment_vectors(k3_mixed_model, statics, palm)
        assert markovian_identity_residuals(k3_mixed_model, statics, stationary) is None

    def test_forward_relation_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            model = random_mixed_model(int(rng.integers(2, 5)), rng)
            statics = chain_statics(model)
            palm = palm_moment_vectors(model, statics, n_max=6)
            residuals = forward_relation_residuals(model, statics, palm)
            assert residuals.shape == (7,)
            assert np.max(residuals) < 1e-9

    def test_forward_relation_order_zero_is_stationarity(self, k3_mixed_model):
        statics = chain_statics(k3_mixed_model)
        palm = palm_moment_vectors(k3_mixed_model, statics, n_max=0)
        residuals = forward_relation_residuals(k3_mixed_model, statics, palm)
        assert residuals[0] < 1e-14

    def test_forward_relation_symmetric_two_state(self):
        model = EnvironmentModel(
            arrival_rates=[1.5, 1.5],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        statics = chain_statics(model)
        palm = palm_moment_vectors(model, statics, n_max=4)
        assert np.max(forward_relation_residuals(model, statics, palm)) < 1e-13


def test_tabulated_transform_extension_point():
    # a tabulated transform built from exponential values should steer the
    # recursion to nearly the same moments as the parametric family
    from mminfenv import TabulatedLaplace

    rate = 1.5
    grid = np.linspace(0.0, 40.0, 4000)
    tabulated = TabulatedLaplace(points=grid, values=rate / (rate + grid), mean_value=1.0 / rate)

    def build(sojourn_1):
        return EnvironmentModel(
            arrival_rates=[2.0, 0.5],
            speeds=[1.0, 0.6],
            sojourns=(sojourn_1, Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )

    reference = compute_moment_table(build(Exponential(rate)), n_max=5, with_checks=False)
    via_table = compute_moment_table(build(tabulated), n_max=5, with_checks=False)
    assert via_table.factorial_moments() == pytest.approx(
        reference.factorial_moments(), rel=1e-6
    )


def test_zero_speed_state_supported():
    # a state may have zero speed when it also has zero arrivals; the
    # order-n diagonal entry there is 1 and the system stays invertible
    model = EnvironmentModel(
        arrival_rates=[2.0, 0.0, 1.0],
        speeds=[1.0, 0.0, 0.5],
        sojourns=(Exponential(1.0), Deterministic(0.5), Exponential(2.0)),
        mu=1.0,
        routing=[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
    )
    statics = chain_statics(model)
    palm = palm_moment_vectors(model, statics, n_max=5)
    assert np.nanmax(palm.solve_residual) < 1e-10
    residuals = forward_relation_residuals(model, statics, palm)
    assert np.max(residuals) < 1e-9
