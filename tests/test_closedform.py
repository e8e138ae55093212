import dataclasses
import math

import numpy as np
import pytest

from mminfenv import (
    Deterministic,
    EnvironmentModel,
    Exponential,
    Gamma,
    ModelError,
    NumericError,
    compute_moment_table,
    kummer_reference,
    palm_moment_vectors,
    structural_checks,
)
from mminfenv.closedform import (
    gamma_sojourn_reference,
    palm_from_shifted,
    roles,
    shifted_palm_moments,
)

from conftest import kummer_parameters, random_two_state_model, two_state_model


def example_two_state(arrivals=(0.0, 1.0), service=(1.0, 1.0), sojourns=(Exponential(1.0), Exponential(1.0))):
    return two_state_model(arrivals, service, sojourns)


def closed_form_palm(model, n_max):
    """Plain Palm moments of the closed form: the product, then the binomial load shift."""
    return palm_from_shifted(model, shifted_palm_moments(model, n_max))


def relabelled(model):
    """The same model with its two states listed in the other order."""
    return EnvironmentModel(
        model.arrival_rates[::-1], model.speeds[::-1], model.sojourns[::-1], model.mu, model.routing
    )


def general_palm(model, n_max):
    """The engine's Palm moments as a (2, n_max + 1) array, one row per state."""
    return np.array(palm_moment_vectors(model, n_max=n_max).vectors).T


class TestConstruction:
    def test_nonexponential_state_two_rejected(self):
        # state 2 must be exponential, and neither state can play it
        model = example_two_state(sojourns=(Gamma(2.0, 1.0), Deterministic(1.0)))
        with pytest.raises(ModelError, match="exponential"):
            roles(model)

    def test_zero_service_rate_rejected(self):
        # a valid model: the stopped state has no arrivals
        model = example_two_state(service=(0.0, 1.0))
        with pytest.raises(ModelError, match="positive service rates"):
            shifted_palm_moments(model, 3)

    def test_negative_arrivals_rejected(self):
        with pytest.raises(ModelError):
            example_two_state(arrivals=(-0.1, 1.0))

    def test_rho_star_signed(self):
        # rho_star = 1 - 3 at unit rates: the order-1 shifted moment is
        # rho_star / (tau_1(1)^-1 tau_2(1)^-1 - 1) = -2 / 3
        shifted = shifted_palm_moments(example_two_state(arrivals=(3.0, 1.0)), 1)
        assert shifted[0, 1] == pytest.approx(-2.0 / 3.0, rel=1e-15)

    def test_rejects_out_of_scope_models(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0, 1.0],
            speeds=[1.0, 1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
        )
        with pytest.raises(ModelError, match="K = 2"):
            roles(model)


class TestShiftedMoments:
    def test_zero_load_difference_kills_all_orders(self):
        shifted = shifted_palm_moments(example_two_state(arrivals=(1.0, 1.0)), 5)
        assert np.all(shifted[:, 0] == 1.0)
        assert np.all(shifted[:, 1:] == 0.0)

    def test_known_exponential_values(self):
        # unit rates everywhere with arrivals only in state 2:
        # rising-factorial ratio (1)_n / (3)_n gives 1/3 then 1/6
        shifted_1 = shifted_palm_moments(example_two_state(), 2)[0]
        assert shifted_1[1] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert shifted_1[2] == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_state_two_carries_inverse_transform_factor(self):
        rng = np.random.default_rng(8)
        model = random_two_state_model(rng, "gamma")
        shifted_1, shifted_2 = shifted_palm_moments(model, 6)
        for n in range(7):
            factor = 1.0 / model.sojourns[0].laplace(n * model.service_rates[0])
            assert shifted_2[n] == pytest.approx(shifted_1[n] * factor, rel=1e-14)

    def test_closed_form_satisfies_recursion_equation(self):
        # oracle: the alternating binomial relation the product form solves,
        # sum_j (-1)^(n-j) C(n,j) rho*^(n-j) (tau2^-1(n mu2) tau1^-1(j mu1) - 1) mtilde_1^(j) = 0
        rng = np.random.default_rng(9)
        for family in ("gamma", "deterministic", "hyperexponential", "exponential"):
            model = random_two_state_model(rng, family)
            mu_1, mu_2 = model.service_rates
            rho_1, rho_2 = model.offered_loads
            rho_star = rho_2 - rho_1
            shifted_1 = shifted_palm_moments(model, 6)[0]
            for n in range(1, 7):
                inv_tau_2 = 1.0 / model.sojourns[1].laplace(n * mu_2)
                total = 0.0
                scale = 0.0
                for j in range(n + 1):
                    inv_tau_1 = 1.0 / model.sojourns[0].laplace(j * mu_1)
                    term = (
                        (-1.0) ** (n - j)
                        * math.comb(n, j)
                        * rho_star ** (n - j)
                        * (inv_tau_2 * inv_tau_1 - 1.0)
                        * shifted_1[j]
                    )
                    total += term
                    scale = max(scale, abs(term))
                assert abs(total) <= 1e-12 * max(scale, 1e-30), (family, n)

    def test_lower_orders_do_not_depend_on_n_max(self):
        # orders <= 12 must not depend on how far past them the product runs
        rng = np.random.default_rng(10)
        for family in ("gamma", "exponential"):
            model = random_two_state_model(rng, family)
            short = shifted_palm_moments(model, 12)   # stops at order 12
            long = shifted_palm_moments(model, 15)   # runs on to order 15
            assert long[0, :13] == pytest.approx(short[0], rel=1e-12)
            assert long[1, :13] == pytest.approx(short[1], rel=1e-12)

    @pytest.mark.parametrize("family", ["exponential", "gamma"])
    def test_orders_up_to_cap_match_independent_references(self, family):
        rng = np.random.default_rng(20)
        for _ in range(10):
            model = random_two_state_model(rng, family)
            shifted_1 = shifted_palm_moments(model, 20)[0]
            if family == "exponential":
                reference = kummer_reference(**kummer_parameters(model), n_max=20)
            else:
                reference = gamma_sojourn_reference(model, 20)[0]
            assert shifted_1[13:] == pytest.approx(reference[13:], rel=1e-12)

    def test_overflow_raises_numeric_error(self):
        model = example_two_state(arrivals=(0.0, 1e20))
        with pytest.raises(NumericError, match="overflowed"):
            shifted_palm_moments(model, 20)

    def test_vanishing_denominator_raises_model_error(self):
        # service rates of 1e-17 leave both transforms at 1.0 in double precision
        model = example_two_state(arrivals=(1.0, 1.0), service=(1e-17, 1e-17))
        with pytest.raises(ModelError, match=r"^degenerate two-state model: product denominator 0\.0 at order 1 "):
            shifted_palm_moments(model, 1)

    def test_negative_rho_star_signs_alternate(self):
        shifted_1 = shifted_palm_moments(example_two_state(arrivals=(2.0, 0.0)), 4)[0]
        assert shifted_1[1] < 0.0 < shifted_1[2]
        assert shifted_1[3] < 0.0 < shifted_1[4]


class TestPalmMoments:
    def test_zero_state1_load_equals_shifted(self):
        model = example_two_state(arrivals=(0.0, 1.0))
        assert closed_form_palm(model, 5) == pytest.approx(shifted_palm_moments(model, 5))

    def test_overflow_raises_numeric_error(self):
        # equal loads: the shifted moments vanish, but rho_1^20 = 1e400
        model = example_two_state(arrivals=(1e20, 1e20))
        with pytest.raises(NumericError, match="overflowed"):
            closed_form_palm(model, 20)

    def test_non_finite_sum_raises_numeric_error(self):
        # rho_1 = 2 is in range, but 2 * 1e308 + 1e308 is not
        model = example_two_state(arrivals=(2.0, 1.0))
        with pytest.raises(NumericError, match="^two-state Palm moments overflowed double precision$"):
            palm_from_shifted(model, np.full((2, 2), 1e308))

    def test_underflowed_transform_raises_numeric_error(self):
        # tau_1(3) = exp(-900) is 0 in double precision and has no reciprocal
        model = example_two_state(arrivals=(1.0, 1.0), sojourns=(Deterministic(300.0), Exponential(1.0)))
        with pytest.raises(NumericError, match="order 3"):
            closed_form_palm(model, 3)

    def test_order_zero_is_one(self):
        assert np.all(closed_form_palm(example_two_state(arrivals=(2.0, 1.0)), 0) == 1.0)

    @pytest.mark.parametrize("family", ["gamma", "deterministic", "hyperexponential", "exponential"])
    def test_matches_general_recursion(self, family):
        rng = np.random.default_rng(hash(family) % 2 ** 32)
        for _ in range(5):
            model = random_two_state_model(rng, family)
            assert general_palm(model, 8) == pytest.approx(closed_form_palm(model, 8), rel=1e-8)

    def test_negative_rho_star_matches_general_recursion(self):
        # load of state 1 dominating pins the sign conventions
        model = example_two_state(arrivals=(3.0, 0.5))
        assert general_palm(model, 6) == pytest.approx(closed_form_palm(model, 6), rel=1e-9)

    def test_swap_symmetry_both_exponential(self):
        # both exponential: the paper's state 1 is the model's first state
        # in either order, so the two evaluations differ in rounding only
        model = example_two_state(
            arrivals=(0.7, 1.9), service=(0.6, 0.9), sojourns=(Exponential(1.3), Exponential(0.8))
        )
        assert closed_form_palm(relabelled(model), 6)[::-1] == pytest.approx(closed_form_palm(model, 6), rel=1e-12)

    @pytest.mark.parametrize("family", ["gamma", "deterministic", "hyperexponential"])
    def test_labelling_invariance_with_one_exponential_state(self, family):
        # listing the states in the other order swaps the rows bit for bit
        # and leaves every verdict's residual as it was
        rng = np.random.default_rng(len(family))
        for _ in range(5):
            model = random_two_state_model(rng, family)
            other = relabelled(model)
            assert roles(model) == (0, 1) and roles(other) == (1, 0)
            assert np.array_equal(shifted_palm_moments(other, 20), shifted_palm_moments(model, 20)[::-1])
            assert np.array_equal(closed_form_palm(other, 20), closed_form_palm(model, 20)[::-1])
            table = compute_moment_table(model, n_max=20)
            other_table = dataclasses.replace(table, palm=tuple(v[::-1] for v in table.palm))
            verdicts = [(v.name, v.residual) for v in structural_checks(model, table)]
            assert [(v.name, v.residual) for v in structural_checks(other, other_table)] == verdicts


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
            reference = kummer_reference(**kummer_parameters(model), n_max=8)
            assert shifted_palm_moments(model, 8)[0] == pytest.approx(reference, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kummer_reference(0.0, 1.0, 1.0, 3)

    @pytest.mark.parametrize("n_max", [2.5, True])
    def test_order_must_be_an_integer(self, n_max):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            kummer_reference(1.0, 1.0, 1.0, n_max)


class TestGammaReference:
    def test_matches_product_form(self):
        rng = np.random.default_rng(88)
        for _ in range(10):
            model = random_two_state_model(rng, "gamma")
            assert gamma_sojourn_reference(model, 8) == pytest.approx(shifted_palm_moments(model, 8), rel=1e-10)

    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.0])
    def test_shape_sweep(self, shape):
        model = example_two_state(arrivals=(0.4, 1.0), sojourns=(Gamma(shape=shape, rate=1.3), Exponential(1.0)))
        assert gamma_sojourn_reference(model, 8) == pytest.approx(shifted_palm_moments(model, 8), rel=1e-10)

    def test_unit_shape_collapses_to_kummer(self):
        model = example_two_state(arrivals=(0.4, 1.0), sojourns=(Gamma(shape=1.0, rate=1.3), Exponential(1.0)))
        reference = gamma_sojourn_reference(model, 8)[0]
        assert reference == pytest.approx(kummer_reference(**kummer_parameters(model), n_max=8), rel=1e-12)

    def test_wrong_family_rejected(self):
        with pytest.raises(ModelError):
            gamma_sojourn_reference(example_two_state(), 4)

    def test_overflow_raises_numeric_error(self):
        # (1 + n / g)^shape = 1.5^2000 leaves double precision though the model is valid
        model = example_two_state(arrivals=(1.0, 0.5), sojourns=(Gamma(2000.0, 2.0), Exponential(1.0)))
        with pytest.raises(NumericError, match="overflowed"):
            gamma_sojourn_reference(model, 20)

    def test_vanishing_denominator_raises_model_error(self):
        # g = 1e17 leaves (1 + 1 / g)^2 at 1.0, and h = 1e20 absorbs the + 1 of h + 1
        model = example_two_state(
            arrivals=(1.0, 1.0), service=(1e-17, 1e-17), sojourns=(Gamma(2.0, 1.0), Exponential(1e3))
        )
        with pytest.raises(ModelError, match=r"^degenerate two-state model: gamma-form denominator 0\.0 at order 1 "):
            gamma_sojourn_reference(model, 1)

    def test_sharply_peaked_sojourn_stays_in_range(self):
        # g^shape = 300^300 is beyond double precision, but no factor over it is
        model = example_two_state(arrivals=(0.5, 2.0), sojourns=(Gamma(300.0, 300.0), Exponential(1.0)))
        assert gamma_sojourn_reference(model, 20) == pytest.approx(shifted_palm_moments(model, 20), rel=1e-10)
