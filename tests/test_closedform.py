import math

import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    Exponential,
    Gamma,
    ModelError,
    NumericError,
    TwoStateModel,
    kummer_reference,
    palm_moment_vectors,
)
from mminfenv.closedform import (
    from_environment,
    gamma_sojourn_reference,
    palm_moments,
    shifted_palm_moments,
    to_environment,
)

from conftest import random_two_state_model


def example_two_state(**overrides):
    fields = dict(
        arrival_rate_1=0.0,
        arrival_rate_2=1.0,
        service_rate_1=1.0,
        service_rate_2=1.0,
        sojourn_1=Exponential(1.0),
        sojourn_2=Exponential(1.0),
    )
    fields.update(overrides)
    return TwoStateModel(**fields)


class TestConstruction:
    def test_nonexponential_state_two_rejected(self):
        with pytest.raises(ModelError, match="exponential"):
            example_two_state(sojourn_2=Gamma(2.0, 1.0))

    def test_zero_service_rate_rejected(self):
        with pytest.raises(ModelError):
            example_two_state(service_rate_1=0.0)

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ModelError):
            example_two_state(arrival_rate_1=-0.1)

    def test_rho_star_signed(self):
        model = example_two_state(arrival_rate_1=3.0, arrival_rate_2=1.0)
        assert model.rho_star == pytest.approx(-2.0)


class TestShiftedMoments:
    def test_zero_load_difference_kills_all_orders(self):
        model = example_two_state(arrival_rate_1=1.0, arrival_rate_2=1.0)
        shifted_1, shifted_2 = shifted_palm_moments(model, 5)
        assert shifted_1[0] == 1.0 and shifted_2[0] == 1.0
        assert np.all(shifted_1[1:] == 0.0)
        assert np.all(shifted_2[1:] == 0.0)

    def test_known_exponential_values(self):
        # unit rates everywhere with arrivals only in state 2:
        # rising-factorial ratio (1)_n / (3)_n gives 1/3 then 1/6
        shifted_1, _ = shifted_palm_moments(example_two_state(), 2)
        assert shifted_1[1] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert shifted_1[2] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_state_two_carries_inverse_transform_factor(self):
        rng = np.random.default_rng(8)
        model = random_two_state_model(rng, "gamma")
        shifted_1, shifted_2 = shifted_palm_moments(model, 6)
        for n in range(7):
            factor = 1.0 / model.sojourn_1.laplace(n * model.service_rate_1)
            assert shifted_2[n] == pytest.approx(shifted_1[n] * factor, rel=1e-14)

    def test_closed_form_satisfies_recursion_equation(self):
        # oracle: the alternating binomial relation the product form solves,
        # sum_j (-1)^(n-j) C(n,j) rho*^(n-j) (tau2^-1(n mu2) tau1^-1(j mu1) - 1) mtilde_1^(j) = 0
        rng = np.random.default_rng(9)
        for family in ("gamma", "deterministic", "hyperexponential", "exponential"):
            model = random_two_state_model(rng, family)
            shifted_1, _ = shifted_palm_moments(model, 6)
            for n in range(1, 7):
                inv_tau_2 = 1.0 / model.sojourn_2.laplace(n * model.service_rate_2)
                total = 0.0
                scale = 0.0
                for j in range(n + 1):
                    inv_tau_1 = 1.0 / model.sojourn_1.laplace(j * model.service_rate_1)
                    term = (
                        (-1.0) ** (n - j)
                        * math.comb(n, j)
                        * model.rho_star ** (n - j)
                        * (inv_tau_2 * inv_tau_1 - 1.0)
                        * shifted_1[j]
                    )
                    total += term
                    scale = max(scale, abs(term))
                assert abs(total) <= 1e-12 * max(scale, 1e-30), (family, n)

    def test_log_space_path_matches_direct_products(self):
        # orders <= 12 must not depend on how far past them the product runs
        rng = np.random.default_rng(10)
        for family in ("gamma", "exponential"):
            model = random_two_state_model(rng, family)
            direct_1, direct_2 = shifted_palm_moments(model, 12)   # stops at order 12
            logged_1, logged_2 = shifted_palm_moments(model, 15)   # runs on to order 15
            assert logged_1[:13] == pytest.approx(direct_1, rel=1e-12)
            assert logged_2[:13] == pytest.approx(direct_2, rel=1e-12)

    @pytest.mark.parametrize("family", ["exponential", "gamma"])
    def test_orders_up_to_cap_match_independent_references(self, family):
        rng = np.random.default_rng(20)
        for _ in range(10):
            model = random_two_state_model(rng, family)
            shifted_1, _ = shifted_palm_moments(model, 20)
            if family == "exponential":
                reference = kummer_reference(
                    a=model.sojourn_1.rate / model.service_rate_1,
                    b=model.exit_rate_2 / model.service_rate_2,
                    rho_star=model.rho_star,
                    n_max=20,
                )
            else:
                reference = gamma_sojourn_reference(model, 20)
            assert shifted_1[13:] == pytest.approx(reference[13:], rel=1e-12)

    def test_overflow_raises_numeric_error(self):
        model = TwoStateModel(0.0, 1e20, 1.0, 1.0, Exponential(1.0), Exponential(1.0))
        with pytest.raises(NumericError, match="overflowed"):
            shifted_palm_moments(model, 20)

    def test_negative_rho_star_signs_alternate(self):
        model = example_two_state(arrival_rate_1=2.0, arrival_rate_2=0.0)
        shifted_1, _ = shifted_palm_moments(model, 4)
        assert shifted_1[1] < 0.0 < shifted_1[2]
        assert shifted_1[3] < 0.0 < shifted_1[4]


class TestPalmMoments:
    def test_zero_state1_load_equals_shifted(self):
        model = example_two_state(arrival_rate_1=0.0)
        shifted_1, shifted_2 = shifted_palm_moments(model, 5)
        plain_1, plain_2 = palm_moments(model, 5)
        assert plain_1 == pytest.approx(shifted_1)
        assert plain_2 == pytest.approx(shifted_2)

    def test_overflow_raises_numeric_error(self):
        # equal loads: the shifted moments vanish, but rho_1^20 = 1e400
        model = TwoStateModel(1e20, 1e20, 1.0, 1.0, Exponential(1.0), Exponential(1.0))
        with pytest.raises(NumericError, match="overflowed"):
            palm_moments(model, 20)

    def test_underflowed_transform_raises_numeric_error(self):
        # tau_1(3) = exp(-900) is 0 in double precision and has no reciprocal
        model = TwoStateModel(1.0, 1.0, 1.0, 1.0, Deterministic(300.0), Exponential(1.0))
        with pytest.raises(NumericError, match="order 3"):
            palm_moments(model, 3)

    def test_order_zero_is_one(self):
        plain_1, plain_2 = palm_moments(example_two_state(arrival_rate_1=2.0), 0)
        assert plain_1[0] == 1.0 and plain_2[0] == 1.0

    @pytest.mark.parametrize("family", ["gamma", "deterministic", "hyperexponential", "exponential"])
    def test_matches_general_recursion(self, family):
        rng = np.random.default_rng(hash(family) % 2 ** 32)
        for _ in range(5):
            model = random_two_state_model(rng, family)
            plain_1, plain_2 = palm_moments(model, 8)
            general = palm_moment_vectors(to_environment(model), n_max=8)
            computed_1 = np.array([v[0] for v in general.vectors])
            computed_2 = np.array([v[1] for v in general.vectors])
            assert computed_1 == pytest.approx(plain_1, rel=1e-8)
            assert computed_2 == pytest.approx(plain_2, rel=1e-8)

    def test_negative_rho_star_matches_general_recursion(self):
        # load of state 1 dominating pins the sign conventions
        model = example_two_state(arrival_rate_1=3.0, arrival_rate_2=0.5)
        plain_1, plain_2 = palm_moments(model, 6)
        general = palm_moment_vectors(to_environment(model), n_max=6)
        assert np.array([v[0] for v in general.vectors]) == pytest.approx(plain_1, rel=1e-9)
        assert np.array([v[1] for v in general.vectors]) == pytest.approx(plain_2, rel=1e-9)

    def test_swap_symmetry_both_exponential(self):
        model = example_two_state(
            arrival_rate_1=0.7,
            arrival_rate_2=1.9,
            service_rate_1=0.6,
            service_rate_2=0.9,
            sojourn_1=Exponential(1.3),
            sojourn_2=Exponential(0.8),
        )
        swapped = TwoStateModel(
            arrival_rate_1=1.9,
            arrival_rate_2=0.7,
            service_rate_1=0.9,
            service_rate_2=0.6,
            sojourn_1=model.sojourn_2,
            sojourn_2=model.sojourn_1,
        )
        plain_1, plain_2 = palm_moments(model, 6)
        other_1, other_2 = palm_moments(swapped, 6)
        assert plain_1 == pytest.approx(other_2, rel=1e-12)
        assert plain_2 == pytest.approx(other_1, rel=1e-12)


class TestKummer:
    def test_order_zero(self):
        assert kummer_reference(2.0, 3.0, 0.7, 0)[0] == 1.0

    def test_rising_factorial_arithmetic(self):
        values = kummer_reference(1.0, 1.0, 1.0, 2)
        assert values[2] == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_agrees_with_product_form_when_both_exponential(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            model = random_two_state_model(rng, "exponential")
            shifted_1, _ = shifted_palm_moments(model, 8)
            reference = kummer_reference(
                a=model.sojourn_1.rate / model.service_rate_1,
                b=model.exit_rate_2 / model.service_rate_2,
                rho_star=model.rho_star,
                n_max=8,
            )
            assert shifted_1 == pytest.approx(reference, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kummer_reference(0.0, 1.0, 1.0, 3)


class TestGammaReference:
    def test_matches_product_form(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            model = random_two_state_model(rng, "gamma")
            shifted_1, _ = shifted_palm_moments(model, 8)
            reference = gamma_sojourn_reference(model, 8)
            assert reference == pytest.approx(shifted_1, rel=1e-10)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.0])
    def test_shape_sweep(self, shape):
        model = example_two_state(sojourn_1=Gamma(shape=shape, rate=1.3), arrival_rate_1=0.4)
        shifted_1, _ = shifted_palm_moments(model, 8)
        reference = gamma_sojourn_reference(model, 8)
        assert reference == pytest.approx(shifted_1, rel=1e-10)

    def test_unit_shape_collapses_to_kummer(self):
        model = example_two_state(sojourn_1=Gamma(shape=1.0, rate=1.3), arrival_rate_1=0.4)
        reference = gamma_sojourn_reference(model, 8)
        kummer = kummer_reference(
            a=1.3 / model.service_rate_1,
            b=model.exit_rate_2 / model.service_rate_2,
            rho_star=model.rho_star,
            n_max=8,
        )
        assert reference == pytest.approx(kummer, rel=1e-12)

    def test_wrong_family_rejected(self):
        with pytest.raises(ModelError):
            gamma_sojourn_reference(example_two_state(), 4)


class TestEnvironmentBridges:
    def test_round_trip(self):
        model = example_two_state(arrival_rate_1=0.5, service_rate_1=0.4)
        recovered, swapped = from_environment(to_environment(model))
        assert not swapped
        assert recovered.arrival_rate_1 == pytest.approx(model.arrival_rate_1)
        assert recovered.service_rate_1 == pytest.approx(model.service_rate_1)

    def test_relabels_when_exponential_is_first(self):
        env = to_environment(
            example_two_state(sojourn_1=Exponential(2.0), sojourn_2=Exponential(1.0))
        )
        # rebuild with the non-exponential law second to force a swap
        from mminfenv import EnvironmentModel

        env = EnvironmentModel(
            arrival_rates=env.arrival_rates,
            speeds=env.speeds,
            sojourns=(Exponential(2.0), Deterministic(1.0)),
            mu=env.mu,
            routing=env.routing,
        )
        two_state, swapped = from_environment(env)
        assert swapped
        assert isinstance(two_state.sojourn_2, Exponential)
        assert isinstance(two_state.sojourn_1, Deterministic)

    def test_rejects_out_of_scope_models(self):
        from mminfenv import EnvironmentModel, Exponential as Exp

        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Deterministic(1.0), Deterministic(2.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        with pytest.raises(ModelError):
            from_environment(model)
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0],
            sojourns=(Exp(1.0), Exp(1.0), Exp(1.0)),
            mu=1.0,
            routing=[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
        )
        with pytest.raises(ModelError):
            from_environment(model)
