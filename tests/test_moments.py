import math
from functools import partial

import mpmath
import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    EnvironmentModel,
    Exponential,
    Gamma,
    HyperExponential,
    ModelError,
    NumericError,
    StirlingTables,
    TabulatedLaplace,
    chain_statics,
    closedform,
    compute_moment_table,
    forward_relation_residuals,
    load_model,
    markovian_identity_residuals,
    offered_loads,
    palm_moment_vectors,
    recursion_matrix,
    stationary_moment_vectors,
)
from mminfenv import moments
from mminfenv.moments import _require_nonnegative, _weights

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
        # tau = 1 / (1 + 1) in both states: I - diag(tau) Q
        assert matrix == pytest.approx(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        assert condition == pytest.approx(3.0)

    def test_exponential_diagonal_closed_form(self):
        # tau(s) for Exponential(rate) is rate / (rate + s)
        rng = np.random.default_rng(3)
        model = random_exponential_model(3, rng)
        statics = chain_statics(model)
        rates = np.array([d.rate for d in model.sojourns])
        for order in (1, 2, 5):
            matrix, _ = recursion_matrix(model, statics, order)
            tau = rates / (rates + order * model.service_rates)
            expected = np.eye(3) - tau[:, np.newaxis] * statics.reversed_routing
            assert matrix == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("build", CONDITION_MODELS)
    def test_condition_is_exact(self, build):
        # the value from the ones column of the solve must match the
        # explicit-inverse inf-norm condition number, and the Palm solve
        # must record that same value
        model = build()
        statics = chain_statics(model)
        palm = palm_moment_vectors(model, statics, 20)
        for order in range(1, 21):
            matrix, condition = recursion_matrix(model, statics, order)
            assert condition == pytest.approx(np.linalg.cond(matrix, np.inf), rel=1e-12)
            assert palm.condition[order] == condition


class TestPalmVectors:
    def test_identical_state_powers(self):
        # constant arrival rates and speeds make the discounted mass
        # deterministic, so every Palm vector is the load power times ones
        model = identical_state_model(rho=2.0)
        palm = palm_moment_vectors(model, n_max=20)
        for n, vector in enumerate(palm.vectors):
            assert vector == pytest.approx(np.full(3, 2.0 ** n), rel=1e-14)

    @pytest.mark.parametrize("name", ["k2_exponential", "k2_gamma_exp"])
    def test_two_state_closed_form_at_order_20(self, name):
        model = load_model(MODELS_DIR / f"{name}.yaml")
        two_state, swapped = closedform.from_environment(model)
        references = closedform.palm_moments(two_state, 20)
        palm = palm_moment_vectors(model, n_max=20)
        computed = np.array(palm.vectors).T
        for k, reference in zip((1, 0) if swapped else (0, 1), references):
            assert computed[k] == pytest.approx(reference, rel=1e-12, abs=0.0)

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

    def test_large_mixed_model_reaches_order_20(self):
        # the alternating recursion turned its order-16 stationary vector negative
        table = compute_moment_table(random_mixed_model(200, np.random.default_rng(0)), n_max=20)
        assert np.all(np.isfinite(table.aggregated["occupancy"]))

    @pytest.mark.parametrize("k_count", [50, 200])
    def test_identical_rates_on_large_mixed_models(self, k_count):
        # lambda = 1.7, beta = 0.6 in every state: f^(n) = rho^n exactly,
        # whatever the sojourns and routing (the alternating form failed at order 19)
        base = random_mixed_model(k_count, np.random.default_rng(100))
        model = EnvironmentModel(
            arrival_rates=np.full(k_count, 1.7),
            speeds=np.full(k_count, 0.6),
            sojourns=base.sojourns,
            mu=base.mu,
            routing=base.routing,
        )
        table = compute_moment_table(model, n_max=20)
        powers = (1.7 / (0.6 * base.mu)) ** np.arange(21)
        for weighting in ("embedded", "occupancy"):
            assert table.aggregated[weighting] == pytest.approx(powers, rel=1e-13)
        for vec, power in zip(table.palm + table.stationary, np.tile(powers, 2)):
            assert vec == pytest.approx(np.full(k_count, power), rel=1e-13)

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_forward_relation_long_deterministic_sojourn(self):
        # tau = exp(-700) at order 20: a relation that divided by tau
        # overflowed to NaN on these correct moments
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Deterministic(35.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        statics = chain_statics(model)
        palm = palm_moment_vectors(model, statics, n_max=20)
        residuals = forward_relation_residuals(model, statics, palm)
        assert np.all(np.isfinite(residuals))
        assert np.max(residuals) <= 1e-12


WEIGHT_RATE = 0.8
WEIGHT_FAMILIES = {
    "exponential": Exponential(1.3),
    "hyperexponential": HyperExponential(probs=(0.4, 0.0, 0.6), rates=(0.5, 1.0, 2.0)),
    "erlang": Gamma(shape=3.0, rate=1.5),
    "gamma-0.7": Gamma(shape=0.7, rate=1.2),
    "gamma-2.6": Gamma(shape=2.6, rate=0.4),
    # sojourns 8000 times longer than a service time
    "gamma-slow": Gamma(shape=2.5, rate=1e-4),
    "deterministic": Deterministic(1.5),
    "deterministic-long": Deterministic(40.0),
    "deterministic-short": Deterministic(0.05),
    # a gamma transform tabulated exactly at the multiples of the service rate
    "tabulated": TabulatedLaplace(
        points=WEIGHT_RATE * np.arange(21),
        values=(1.0 + WEIGHT_RATE * np.arange(21) / 0.9) ** -1.7,
        mean_value=1.7 / 0.9,
    ),
}


class TestWeights:
    """Rows of w[n, j] = E[P(Bin(n, X) = j)], X = exp(-mu_k T), per family."""

    @staticmethod
    def rows(dist, rate, residual):
        table = _weights([dist], [rate], 20, residual=residual)
        return [table[:, n, : n + 1] for n in range(21)]

    @pytest.mark.parametrize("name", sorted(WEIGHT_FAMILIES))
    @pytest.mark.parametrize("residual", [False, True], ids=["palm", "residual"])
    def test_rows_are_probabilities(self, name, residual):
        for n, row in enumerate(self.rows(WEIGHT_FAMILIES[name], WEIGHT_RATE, residual)):
            assert row.shape == (1, n + 1)
            assert np.all(row >= 0.0)
            assert abs(row.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("name", sorted(WEIGHT_FAMILIES))
    def test_factorial_moments_are_transforms(self, name):
        # E[(Bin(n, X))_k] = (n)_k E[X^k]: sum_j C(j, k) w[n, j] = C(n, k) tau(k mu),
        # with the residual transform for the residual rows; k = n is the diagonal
        dist = WEIGHT_FAMILIES[name]
        for residual, transform in ((False, dist.laplace), (True, dist.residual_laplace)):
            for n, row in enumerate(self.rows(dist, WEIGHT_RATE, residual)):
                for k in range(1, min(n, 3) + 1):
                    binomials = np.array([math.comb(j, k) for j in range(n + 1)], dtype=float)
                    expected = math.comb(n, k) * transform(k * WEIGHT_RATE)
                    assert binomials @ row[0] == pytest.approx(expected, rel=1e-12, abs=1e-300)
                assert row[0, n] == pytest.approx(transform(n * WEIGHT_RATE), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("name", ["deterministic-short", "deterministic", "gamma-0.7", "gamma-2.6"])
    def test_smallest_weights_match_extended_precision(self, name):
        # w[n, 0] = E[(1 - X)^n] is tiny when mu_k T is short; it must keep
        # its relative accuracy (no complement 1 - sum_{j>=1} w[n, j])
        dist = WEIGHT_FAMILIES[name]
        palm_rows = self.rows(dist, WEIGHT_RATE, False)
        residual_rows = self.rows(dist, WEIGHT_RATE, True)
        with mpmath.workdps(30):
            rate = mpmath.mpf(WEIGHT_RATE)
            if isinstance(dist, Deterministic):
                # X = e^-c; the uniform residual gives int_0^c (1 - e^-t)^n dt / c,
                # which is sum_{i>n} y^i / i over c with y = 1 - e^-c
                c = rate * mpmath.mpf(dist.value)
                y = -mpmath.expm1(-c)
                palm = lambda n: y**n
                residual = lambda n: mpmath.nsum(lambda i: y**i / i, [n + 1, mpmath.inf]) / c
            else:
                shape, scale = mpmath.mpf(dist.shape), 1 / mpmath.mpf(dist.rate)
                density = lambda t: t ** (shape - 1) * mpmath.exp(-t / scale) / (mpmath.gamma(shape) * scale**shape)
                tail = lambda t: mpmath.gammainc(shape, t / scale, mpmath.inf, regularized=True) / (shape * scale)
                points = [0, 1, 10, mpmath.inf]
                palm = lambda n: mpmath.quad(lambda t: density(t) * (-mpmath.expm1(-rate * t)) ** n, points)
                residual = lambda n: mpmath.quad(lambda t: tail(t) * (-mpmath.expm1(-rate * t)) ** n, points)
            for n in (1, 20):
                assert palm_rows[n][0, 0] == pytest.approx(float(palm(n)), rel=1e-12, abs=0.0)
                assert residual_rows[n][0, 0] == pytest.approx(float(residual(n)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("shape, ratio", [(0.7, 1e3), (2.6, 1e4)])
    def test_slow_gamma_rows_match_extended_precision(self, shape, ratio):
        # c = mu_k / rate large: the rows, rational in the gamma time scale,
        # have poles crowding towards its end point 0; every weight of the
        # order-20 row must still hold its relative accuracy.  Reference: the
        # alternating binomial sum of transform values at 60 digits, where
        # its cancellation costs nothing
        dist = Gamma(shape=shape, rate=WEIGHT_RATE / ratio)
        n = 20
        with mpmath.workdps(60):
            s, c = mpmath.mpf(shape), mpmath.mpf(WEIGHT_RATE) / mpmath.mpf(dist.rate)
            palm = lambda p: (1 + p * c) ** -s
            residual = lambda p: (1 - palm(p)) / (p * c * s) if p else mpmath.mpf(1)
            for is_residual, transform in ((False, palm), (True, residual)):
                row = self.rows(dist, WEIGHT_RATE, is_residual)[n][0]
                for j in range(n + 1):
                    terms = [(-1) ** i * mpmath.binomial(n - j, i) * transform(j + i) for i in range(n - j + 1)]
                    expected = mpmath.binomial(n, j) * mpmath.fsum(terms)
                    assert row[j] == pytest.approx(float(expected), rel=1e-12, abs=0.0)

    def test_exponential_residual_rows_equal_palm_rows(self):
        dist = WEIGHT_FAMILIES["exponential"]
        for palm, residual in zip(self.rows(dist, WEIGHT_RATE, False), self.rows(dist, WEIGHT_RATE, True)):
            assert np.array_equal(palm, residual)

    @pytest.mark.parametrize("name", sorted(WEIGHT_FAMILIES))
    def test_zero_speed_rows_are_identity(self, name):
        for residual in (False, True):
            for n, row in enumerate(self.rows(WEIGHT_FAMILIES[name], 0.0, residual)):
                assert np.array_equal(row[0], np.eye(n + 1)[n])

    def test_rows_do_not_depend_on_the_order_cap(self):
        sojourns = list(WEIGHT_FAMILIES.values())
        rates = np.full(len(sojourns), WEIGHT_RATE)
        for residual in (False, True):
            short = _weights(sojourns, rates, 6, residual=residual)
            full = _weights(sojourns, rates, 20, residual=residual)
            assert np.array_equal(short, full[:, :7, :7])

    def test_branch_chunks_change_no_weight(self, monkeypatch):
        # one state per chunk must give the tables of one chunk for all
        sojourns = [dist for name, dist in sorted(WEIGHT_FAMILIES.items()) if name != "tabulated"] * 3
        rates = WEIGHT_RATE * np.linspace(0.5, 2.0, len(sojourns))
        for residual in (False, True):
            whole = _weights(sojourns, rates, 20, residual=residual)
            with monkeypatch.context() as patch:
                patch.setattr(moments, "_BRANCH_CHUNK", 1)
                assert np.array_equal(_weights(sojourns, rates, 20, residual=residual), whole)

    def test_tabulated_transform_not_completely_monotone_rejected(self):
        # third differences of 1, 0.5, 0.4, 0.1 turn negative: no law has this transform
        table = TabulatedLaplace(
            points=np.arange(4.0), values=np.array([1.0, 0.5, 0.4, 0.1]), mean_value=1.0
        )
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(table, Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        with pytest.raises(ModelError, match="completely monotone"):
            compute_moment_table(model, n_max=3)


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
