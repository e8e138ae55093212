import dataclasses
import importlib.util
import math
import warnings
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
    SimulationConfig,
    chain_statics,
    closedform,
    compute_moment_table,
    estimate_factorial_moments,
    load_model,
    palm_moment_vectors,
    rate_conservation_residuals,
    stationary_moment_vectors,
)
from mminfenv import environment, moments
from mminfenv.cli import main
from mminfenv.moments import _require_nonnegative, _weights

from conftest import (
    MODELS_DIR,
    identical_state_model,
    random_exponential_model,
    random_mixed_model,
    random_routing,
    ring_model,
    split_state,
    stirling_sums,
    stirling_triangle,
)


def seeded(build, k_count):
    return build(k_count, np.random.default_rng(k_count))


def load_module(path):
    """A Python file outside the package and the tests, such as a benchmark module, imported by path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fast_service_model(k_count, rng):
    """All-exponential, every service rate at least 200 times every exit rate.

    tau_1 <= 2 / (2 + 400) gives an a-priori series length of at most 6
    products at order 1 and less above it: at K = 64 (budget 6.4) every
    order takes the series.
    """
    return EnvironmentModel(
        arrival_rates=rng.uniform(0.2, 3.0, k_count),
        speeds=rng.uniform(0.5, 1.0, k_count),
        sojourns=tuple(Exponential(rate=float(r)) for r in rng.uniform(0.5, 2.0, k_count)),
        mu=800.0,
        routing=random_routing(k_count, rng),
    )


def fast_service_mixed_model(k_count, rng):
    """Fast service beside every sojourn family, a quarter of the states without arrivals.

    State 0 is Deterministic with mu_k d = 50, so its tau underflows to 0
    from order 15 on.  Every order of K = 64 still takes the series.
    """
    sojourns = [Deterministic(50.0 / 400.0)]
    for family in rng.integers(0, 4, k_count - 1):
        if family == 0:
            sojourns.append(Exponential(rate=float(rng.uniform(0.5, 2.0))))
        elif family == 1:
            sojourns.append(Gamma(shape=float(rng.uniform(1.0, 3.0)), rate=float(rng.uniform(0.5, 2.0))))
        elif family == 2:
            sojourns.append(Deterministic(value=float(rng.uniform(0.3, 2.0))))
        else:
            sojourns.append(HyperExponential(probs=(0.3, 0.7), rates=tuple(rng.uniform(0.5, 2.0, 2))))
    arrivals = rng.uniform(0.2, 3.0, k_count)
    arrivals[rng.permutation(k_count)[: k_count // 4]] = 0.0
    return EnvironmentModel(
        arrival_rates=arrivals,
        speeds=np.concatenate(([1.0], rng.uniform(0.5, 1.0, k_count - 1))),
        sojourns=tuple(sojourns),
        mu=400.0,
        routing=random_routing(k_count, rng),
    )


def zero_speed_model(k_count, rng):
    """All-exponential with state 0 at speed 0 (tau_0 = 1 at every order) and near-uniform routing.

    Row 0 of |Q - 1 pi'| sums to about 0.05, so deflation bounds every
    order's series by q_n ~ 0.05 though tau_max = 1.
    """
    routing = rng.uniform(0.95, 1.05, (k_count, k_count))
    np.fill_diagonal(routing, 0.0)
    return EnvironmentModel(
        arrival_rates=np.concatenate(([0.0], rng.uniform(0.2, 3.0, k_count - 1))),
        speeds=np.concatenate(([0.0], rng.uniform(0.3, 1.0, k_count - 1))),
        sojourns=tuple(Exponential(rate=float(r)) for r in rng.uniform(0.5, 2.0, k_count)),
        mu=float(rng.uniform(0.8, 1.5)),
        routing=routing / routing.sum(axis=1, keepdims=True),
    )


def zero_speed_state_model():
    """A deterministic state with zero speed and zero arrivals between two exponential states."""
    return EnvironmentModel(
        arrival_rates=[2.0, 0.0, 1.0],
        speeds=[1.0, 0.0, 0.5],
        sojourns=(Exponential(1.0), Deterministic(0.5), Exponential(2.0)),
        mu=1.0,
        routing=[[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
    )


def long_deterministic_model(value, arrival_rates=(1.0, 1.0)):
    """Deterministic(value) alternating with Exponential(1): tau = exp(-n value) underflows at high orders."""
    return EnvironmentModel(
        arrival_rates=list(arrival_rates),
        speeds=[1.0, 1.0],
        sojourns=(Deterministic(value), Exponential(1.0)),
        mu=1.0,
        routing=[[0.0, 1.0], [1.0, 0.0]],
    )


def conservation_residuals(model, n_max):
    """``rate_conservation_residuals`` of the model's Palm and stationary vectors."""
    palm = palm_moment_vectors(model, n_max)
    return rate_conservation_residuals(model, palm, stationary_moment_vectors(model, palm))


CONDITION_MODELS = [
    pytest.param(partial(load_model, path), id=path.stem)
    for path in sorted(MODELS_DIR.glob("*.yaml"))
] + [
    pytest.param(partial(seeded, build, k_count), id=f"{build.__name__}-k{k_count}")
    for build in (random_exponential_model, random_mixed_model)
    for k_count in (5, 20, 60)
] + [
    # every order of this model takes the Neumann series, none the LU
    pytest.param(partial(seeded, fast_service_model, 64), id="fast_service_model-k64"),
]

# the shipped models and mixed draws up to K = 60: no order of theirs is within the series budget
LU_MODELS = CONDITION_MODELS[:5] + [
    pytest.param(partial(seeded, random_mixed_model, k_count), id=f"random_mixed_model-k{k_count}")
    for k_count in (5, 20, 50, 60)
]


# the shipped models, mixed draws up to K = 200, a zero-speed state and an underflowing tau
CONSERVATION_MODELS = CONDITION_MODELS[:5] + [
    pytest.param(partial(seeded, random_mixed_model, k_count), id=f"random_mixed_model-k{k_count}")
    for k_count in (3, 8, 60, 200)
] + [
    pytest.param(zero_speed_state_model, id="zero_speed_state_model"),
    pytest.param(partial(long_deterministic_model, 300.0, (3.0, 0.2)), id="deterministic-300"),
]


# every model above, and the mixed fast-service and K = 200 models the grant tests meet: all
# with dense routing
GRANT_MODELS = CONDITION_MODELS + [
    pytest.param(partial(seeded, fast_service_mixed_model, 64), id="fast_service_mixed_model-k64"),
] + [
    pytest.param(partial(seeded, build, 200), id=f"{build.__name__}-k200")
    for build in (random_exponential_model, random_mixed_model, zero_speed_model)
]


def tau_max_lengths(taus):
    """Per order, the a-priori plain series length from tau_max alone, ceil(log(u (1 - t)) / log(t)).

    It counts the terms the tail rule looks at, one more than the products.
    """
    lengths = []
    for t in taus.max(axis=1).tolist():
        if t >= 1.0:
            lengths.append(math.inf)
        elif t == 0.0:
            lengths.append(1)
        else:
            lengths.append(math.ceil(math.log(2.0**-53 * (1.0 - t)) / math.log(t)))
    return lengths


def diagonal_weights(model, n_max=20):
    """taus[n, k] = w_k[n, n], the diagonal weights of every order."""
    return np.diagonal(_weights(model.sojourns, model.service_rates, n_max)).T


def series_grants(model, budget=None, monkeypatch=None):
    """``_series_grants`` of a model, under the given budget of products if one is given."""
    if budget is not None:
        monkeypatch.setattr(moments, "_series_budget", lambda k_count: budget)
    routing = model.statics.reversed_routing
    return moments._series_grants(diagonal_weights(model), routing, model.statics.pi, np.empty_like(routing))


def long_double_palm(model, n_max=20):
    """Palm vectors from the same weights in x87 long double (64-bit significand).

    Each order's system is solved by an LU in double precision refined
    with residuals in long double until the correction stops moving it,
    so the result carries about 19 digits wherever the condition number
    is far below 1e16.
    """
    ld = np.longdouble
    routing = model.statics.reversed_routing.astype(ld)
    weights = _weights(model.sojourns, model.service_rates, n_max).astype(ld)
    rho = model.offered_loads.astype(ld)
    taus = np.diagonal(weights).T
    vectors, routed = [np.ones(model.num_states, dtype=ld)], [routing @ np.ones(model.num_states, dtype=ld)]
    for n in range(1, n_max + 1):
        rhs = sum(weights[n, j] * rho ** (n - j) * routed[j] for j in range(n))
        matrix = np.eye(model.num_states) - taus[n].astype(float)[:, np.newaxis] * model.statics.reversed_routing
        x = np.linalg.solve(matrix, rhs.astype(float)).astype(ld)
        for _ in range(10):
            residual = rhs - (x - taus[n] * (routing @ x))
            correction = np.linalg.solve(matrix, residual.astype(float))
            x = x + correction
            if np.abs(correction).max() <= 1e-19 * float(np.abs(x).max()):
                break
        vectors.append(x)
        routed.append(routing @ x)
    return vectors


def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call; return the record."""
    calls = []
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(1) or original(*args))
    return calls


def rates_and_loads(model):
    """The service rates speeds * mu and offered loads lambda_k / (beta_k mu), computed here."""
    service = model.speeds * model.mu
    rho = np.zeros(model.num_states)
    active = model.arrival_rates > 0.0
    rho[active] = model.arrival_rates[active] / service[active]
    return service, rho


class TestOfferedLoads:
    def test_definition(self):
        model = EnvironmentModel(
            arrival_rates=[2.0, 3.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert model.offered_loads == pytest.approx([2.0, 3.0])

    def test_zero_arrival_state(self):
        model = EnvironmentModel(
            arrival_rates=[4.0, 0.0],
            speeds=[1.0, 0.5],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=2.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert model.offered_loads == pytest.approx([2.0, 0.0])

    def test_zero_speed_zero_arrivals_allowed(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 0.0],
            speeds=[1.0, 0.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert model.offered_loads == pytest.approx([1.0, 0.0])

    def test_identical_states_scalar_load(self):
        model = identical_state_model(rho=2.0)
        assert model.offered_loads == pytest.approx([2.0, 2.0, 2.0])

    def test_divergent_load_rejected(self):
        # no model with a divergent load can be built, and building one
        # divides by no zero service rate on the way to saying so
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="state 1 has positive arrivals but zero speed"):
                EnvironmentModel(
                    arrival_rates=[1.0, 1.0],
                    speeds=[1.0, 0.0],
                    sojourns=(Exponential(1.0), Exponential(1.0)),
                    mu=1.0,
                    routing=[[0.0, 1.0], [1.0, 0.0]],
                )

    def test_fields_are_read_only(self):
        model = identical_state_model()
        for values in (model.service_rates, model.offered_loads):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

    def test_fields_are_bit_equal_to_their_definitions(self):
        rng = np.random.default_rng(26)
        models = [load_model(path) for path in sorted(MODELS_DIR.glob("*.yaml"))]
        models += [random_mixed_model(int(rng.integers(2, 6)), rng) for _ in range(20)]
        for model in models:
            service, rho = rates_and_loads(model)
            assert np.array_equal(model.service_rates, service)
            assert np.array_equal(model.offered_loads, rho)

    def test_replace_recomputes_the_fields(self):
        model = identical_state_model(rho=2.0)
        faster = dataclasses.replace(model, mu=2.0)
        service, rho = rates_and_loads(faster)
        assert np.array_equal(faster.service_rates, service)
        assert np.array_equal(faster.offered_loads, rho)
        assert faster.offered_loads == pytest.approx(model.offered_loads * model.mu / 2.0, rel=1e-15)


def order_matrix(model, order):
    """I - diag(tau) Q of the order-n Palm solve, tau_k = w_k[n, n], built here from the weights."""
    tau = _weights(model.sojourns, model.service_rates, order)[order, order]
    return np.eye(len(tau)) - tau[:, np.newaxis] * model.statics.reversed_routing


class TestRecursionMatrix:
    """The condition number each order of the Palm solve records, against the explicit matrix."""

    def test_two_state_hand_value(self):
        # sojourns Exp(1), unit service rates, alternating routing, order 1
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        # tau = 1 / (1 + 1) in both states: I - diag(tau) Q
        assert order_matrix(model, 1) == pytest.approx(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        assert palm_moment_vectors(model, 1).condition[1] == pytest.approx(3.0)

    @pytest.mark.parametrize("build", CONDITION_MODELS)
    def test_condition_is_exact(self, build):
        # the value from the ones column of the solve must match the
        # explicit-inverse inf-norm condition number
        model = build()
        palm = palm_moment_vectors(model, 20)
        for order in range(1, 21):
            expected = np.linalg.cond(order_matrix(model, order), np.inf)
            assert palm.condition[order] == pytest.approx(expected, rel=1e-12)

    def test_series_model_never_factorises(self, monkeypatch):
        model = seeded(fast_service_model, 64)
        solves = counting(monkeypatch, np.linalg, "solve")
        palm = palm_moment_vectors(model, 20)
        assert solves == []
        assert np.all(np.isfinite(palm.condition[1:]))
        assert np.nanmax(palm.solve_residual) < 1e-14


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
        references = closedform.palm_from_shifted(model, closedform.shifted_palm_moments(model, 20))
        palm = palm_moment_vectors(model, n_max=20)
        computed = np.array(palm.vectors).T
        for k in range(2):
            assert computed[k] == pytest.approx(references[k], rel=1e-12, abs=0.0)

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
            model = identical_state_model()
            palm_moment_vectors(model, n_max=21)

    @pytest.mark.parametrize("n_max", [2.7, 2.0, True, "3"])
    def test_order_must_be_an_integer(self, n_max):
        # an order is neither truncated nor read off a bool
        with pytest.raises(ValueError, match="n_max must be an integer"):
            compute_moment_table(identical_state_model(), n_max=n_max)

    def test_failed_lu_raises(self, monkeypatch, k3_mixed_model):
        # an order matrix is a nonsingular M-matrix for every valid model:
        # stand in a failed factorisation (K = 3 solves every order by LU)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericError, match=r"^order-1 system is singular: Singular matrix$"):
            palm_moment_vectors(k3_mixed_model, n_max=2)

    def test_invalid_model_rejected(self):
        # an invalid model never reaches the recursion: construction refuses it
        with pytest.raises(ModelError, match=r"invalid model: routing diagonal entry p\[0,0\] = 0.2"):
            EnvironmentModel(
                arrival_rates=[1.0, 1.0],
                speeds=[1.0, 1.0],
                sojourns=(Exponential(1.0), Exponential(1.0)),
                mu=1.0,
                routing=[[0.2, 0.8], [1.0, 0.0]],
            )


# a fault planted in order 2's solve: its right-hand side scaled before
# the solve (the residual passes, the signs fail) or its solution scaled
# after it (the residual fails), as (error, rhs factor, solution factor)
PLANTS = {
    "residual": (r"^order-2 solve is ill-conditioned: relative residual", 1.0, 1.001),
    "negative": (r"^palm moment vector at order 2: moment entries turned negative", -1.0, 1.0),
    "non-finite": (r"^palm moment vector at order 2: non-finite moment entries", np.inf, 1.0),
    # within an order the residual is checked before the signs
    "residual-and-negative": (r"^order-2 solve is ill-conditioned: relative residual", 1.0, -1.0),
}


class TestFailurePrecedence:
    """Every order is checked after the loop, and the earliest failure raises, as a check after each order would."""

    @staticmethod
    def plant(monkeypatch, rhs_factor, solution_factor, raise_at):
        # _solve as it is, but order 2 gets the fault and order ``raise_at`` raises
        solve = moments._solve

        def planted(n, *args):
            if n == raise_at:
                raise NumericError(f"stand-in failure at order {n}")
            if n != 2:
                return solve(n, *args)
            block = args[-2]
            block[0] *= rhs_factor
            solution, condition, steps = solve(n, *args)
            return solution * solution_factor, condition, steps

        monkeypatch.setattr(moments, "_solve", planted)

    @pytest.mark.parametrize("raise_at", [4, None])
    @pytest.mark.parametrize("plant", PLANTS, ids=list(PLANTS))
    def test_earliest_order_raises(self, monkeypatch, k3_mixed_model, plant, raise_at):
        pattern, rhs_factor, solution_factor = PLANTS[plant]
        self.plant(monkeypatch, rhs_factor, solution_factor, raise_at)
        with pytest.raises(NumericError, match=pattern) as failure:
            palm_moment_vectors(k3_mixed_model, n_max=6)
        if raise_at is not None:
            # the later solve did raise, and the check of the orders below it won
            assert str(failure.value.__context__) == "stand-in failure at order 4"

    def test_failing_solve_raises_when_the_orders_below_it_pass(self, monkeypatch, k3_mixed_model):
        self.plant(monkeypatch, 1.0, 1.0, 4)
        with pytest.raises(NumericError, match="^stand-in failure at order 4$"):
            palm_moment_vectors(k3_mixed_model, n_max=6)

    def test_stationary_earliest_order_raises(self, k3_mixed_model):
        # Palm vectors turned negative at orders 3 and 5: the stationary
        # vectors of both fail, and order 3 is named
        palm = palm_moment_vectors(k3_mixed_model, n_max=6)
        vectors = [-vec if n in (3, 5) else vec for n, vec in enumerate(palm.vectors)]
        with pytest.raises(NumericError, match="^stationary moment vector at order 3: moment entries turned negative"):
            stationary_moment_vectors(k3_mixed_model, dataclasses.replace(palm, vectors=tuple(vectors)))


class TestSolverChoice:
    """Per order, the deflated series where it is cheaper than one LU, the LU elsewhere."""

    @pytest.mark.parametrize("build, k_count", [
        pytest.param(fast_service_model, 64, id="fast_service_model"),
        pytest.param(fast_service_mixed_model, 64, id="fast_service_mixed_model"),
        pytest.param(random_exponential_model, 200, id="random_exponential_model-k200"),
        pytest.param(fast_service_mixed_model, 200, id="fast_service_mixed_model-k200"),
        pytest.param(fast_service_mixed_model, 500, id="fast_service_mixed_model-k500"),
        pytest.param(random_exponential_model, 500, id="random_exponential_model-k500"),
        pytest.param(zero_speed_model, 200, id="zero_speed_model-k200"),
        # the ring's rows of |Q - 1 pi'| sum to nearly 2, so q_n ~ 2 tau_max:
        # its fast service still grants every order a short series
        pytest.param(partial(ring_model, mu=800.0), 64, id="ring_model-k64"),
    ])
    def test_series_agrees_with_the_lu_on_every_order(self, build, k_count, monkeypatch):
        # every order is granted its series here (a budget of 200 products)
        # and solved both ways; the budgeted call must agree with both
        model = seeded(build, k_count)
        statics = model.statics
        routing = statics.reversed_routing
        palm = palm_moment_vectors(model, 20)
        grants, bounds = series_grants(model, 200.0, monkeypatch)
        assert all(grants[1:])
        weights = _weights(model.sojourns, model.service_rates, 20)
        taus = np.diagonal(weights).T
        rho = model.offered_loads
        routed = [routing @ vec for vec in palm.vectors]
        matrix = np.empty_like(routing)
        for n in range(1, 21):
            rhs = sum(weights[n, j] * rho ** (n - j) * routed[j] for j in range(n))
            block = np.vstack((rhs, taus[n]))
            tau_max = taus[n].max()
            negated = -taus[n][:, np.newaxis]
            series, series_condition, used = moments._solve(
                n, routing, taus[n], negated, tau_max, statics.pi, bounds[n], grants[n], block, matrix
            )
            lu, lu_condition, _ = moments._solve(n, routing, taus[n], negated, tau_max, None, 0.5, 0, block, matrix)
            assert 1 <= used <= grants[n]
            assert np.abs(series - lu).max() <= 1e-14 * np.abs(lu).max()
            expected = np.linalg.cond(np.eye(k_count) - taus[n][:, np.newaxis] * routing, np.inf)
            assert series_condition == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert lu_condition == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert np.abs(palm.vectors[n] - lu).max() <= 1e-14 * np.abs(lu).max()
        if build is fast_service_mixed_model:
            # the premises: zero right-hand side entries and an underflowed tau
            assert np.any(rho == 0.0)
            assert taus[14, 0] > 0.0 and taus[15, 0] == 0.0

    @pytest.mark.parametrize("build, tried", [
        pytest.param(partial(seeded, random_exponential_model, 200), 2, id="random_exponential_model-k200"),
        pytest.param(partial(seeded, random_exponential_model, 500), 0, id="random_exponential_model-k500"),
        pytest.param(partial(seeded, fast_service_mixed_model, 500), 0, id="fast_service_mixed_model-k500"),
        # orders 4-20 of K = 120 (budget 14) and 1-6 of K = 150 (budget 20)
        # are granted nothing but certify their trials
        pytest.param(partial(seeded, random_exponential_model, 120), 17, id="random_exponential_model-k120"),
        pytest.param(partial(seeded, random_mixed_model, 150), 6, id="random_mixed_model-k150"),
    ])
    def test_palm_vectors_match_a_long_double_solve(self, build, tried):
        # ``tried``: the orders that take the series though granted nothing
        model = build()
        palm = palm_moment_vectors(model, 20)
        assert palm.steps[1:].any()
        assert sum(1 for grant, used in zip(series_grants(model)[0], palm.steps) if used and not grant) == tried
        for computed, reference in zip(palm.vectors[1:], long_double_palm(model)[1:]):
            error = np.abs(computed - reference).max() / np.abs(reference).max()
            assert float(error) <= 1e-14

    def test_budget_rule(self):
        # K/10 up to K = 100, K/5 - 10 beyond, capped at 40: the rule the
        # measured LU / step ratios in the comment of _SERIES_SHARE were
        # checked against
        sizes = [9, 10, 50, 64, 100, 150, 200, 300, 500, 627, 628, 1000]
        expected = [0.9, 1.0, 5.0, 6.4, 10.0, 20.0, 30.0, 40.0, 40.0, 40.0, 40.0, 40.0]
        assert [moments._series_budget(k_count) for k_count in sizes] == pytest.approx(expected, rel=1e-15)

    def test_step_counts(self):
        # uniform tau: zero speed (tau = 1) takes the LU, since q_n is the
        # largest row sum of |Q - 1 pi'| (over 0.5); tau = 0 takes one
        # product with no log(0); tau = 2 / 402 gives q_n ~ 0.003 and 6
        # products, within the budget K/10 at K = 64 but not at K = 55
        taus = np.array([[1.0], [0.0], [2.0 / 402.0], [2.0 / 402.0], [0.5]])
        for k_count, expected in ((64, [0, 1, 6, 6, 0]), (55, [0, 1, 0, 0, 0])):
            routing = random_routing(k_count, np.random.default_rng(k_count))
            pi = dataclasses.replace(seeded(random_exponential_model, k_count), routing=routing).statics.pi
            grants, _ = moments._series_grants(np.repeat(taus, k_count, axis=1), routing, pi, np.empty_like(routing))
            assert grants == expected

    def test_trial_gate_is_twice_the_budget(self, monkeypatch):
        # uniform tau (identical states): an order granted nothing whose
        # a-priori length is exactly twice the budget tries the series and
        # certifies it within the budget; one product more takes the LU
        k_count = 64
        rng = np.random.default_rng(k_count)
        model = EnvironmentModel(
            arrival_rates=rng.uniform(0.2, 3.0, k_count),
            speeds=np.ones(k_count),
            sojourns=(Exponential(1.0),) * k_count,
            mu=1.0,
            routing=random_routing(k_count, rng),
        )
        length = int(moments._series_length(series_grants(model, 1e6, monkeypatch)[1][1])[0])
        for budget, tries in ((length / 2.0, True), ((length - 1) / 2.0, False)):
            assert series_grants(model, budget, monkeypatch)[0][1] == 0
            solves = counting(monkeypatch, np.linalg, "solve")
            steps = palm_moment_vectors(model, 1).steps[1]
            assert (0 < steps <= budget) if tries else steps == 0
            assert len(solves) == (not tries)

    def test_trial_that_runs_out_takes_one_lu(self, monkeypatch):
        # the ring at K = 200 under a budget of 14.5: orders 1-15 are
        # longer than 29 products, so order 16 (29) tries first, runs out
        # of its 14 products (it needs 15) and takes one LU.  Orders 17-20
        # are within the gate too, and 19 and 20 would certify in 14, but
        # no order tries after a failed trial
        model = ring_model(200, np.random.default_rng(200))
        monkeypatch.setattr(moments, "_series_budget", lambda k_count: 14.5)
        solve = moments._solve
        calls = []

        def recorded(n, *args):
            # (order, products allowed, products reported), the trial's own LU first
            result = solve(n, *args)
            calls.append((n, args[6], result[2]))
            return result

        monkeypatch.setattr(moments, "_solve", recorded)
        solves = counting(monkeypatch, np.linalg, "solve")
        palm = palm_moment_vectors(model, 20)
        assert not any(series_grants(model)[0])
        assert calls[15:] == [(16, 0, 0), (16, -14, 0), (17, 0, 0), (18, 0, 0), (19, 0, 0), (20, 0, 0)]
        assert all(steps == 0 for _, steps, _ in calls[:15])
        assert len(solves) == 20 and not palm.steps.any()
        for computed, reference in zip(palm.vectors[1:], long_double_palm(model)[1:]):
            assert float(np.abs(computed - reference).max() / np.abs(reference).max()) <= 1e-14

    def test_two_state_cyclic_grant(self, monkeypatch):
        # Q swaps the states and pi = (1/2, 1/2): each row of |Q - 1 pi'|
        # sums to 1, so q_n = tau_max (1 + 8u).  tau_max = 0.5 needs
        # 0.5^(i+1) <= u / 2, i = 53 products, and the rounding margin makes
        # it 54; tau_max = 0.12 gives 17.  Zero speed keeps the LU however
        # large the budget, and an underflowed tau takes one product
        routing = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = np.array([0.5, 0.5])
        taus = np.array([[1.0, 1.0], [0.5, 0.02], [0.12, 0.1], [2.0 / 402.0] * 2, [1.0, 0.3], [0.0, 0.0]])
        buffer = np.empty((2, 2))
        assert moments._series_grants(taus, routing, pi, buffer)[0] == [0, 0, 0, 0, 0, 0]
        monkeypatch.setattr(moments, "_series_budget", lambda k_count: 20.0)
        assert moments._series_grants(taus, routing, pi, buffer)[0] == [0, 0, 17, 6, 0, 1]
        monkeypatch.setattr(moments, "_series_budget", lambda k_count: 1e6)
        grants, bounds = moments._series_grants(taus, routing, pi, buffer)
        assert grants == [0, 54, 17, 6, 0, 1]
        assert bounds[1] == 0.5 + 8.0 * 2.0**-53 * 0.5

    @staticmethod
    def pass_grants(taus, routing, pi):
        """Grants and q_n of every order from the K^2 pass over |Q - 1 pi'|, never skipped."""
        k_count = len(routing)
        bound = (taus * np.abs(routing - pi).sum(axis=1)).max(axis=1) + 4.0 * k_count * 2.0**-53 * taus.max(axis=1)
        q = np.clip(bound, np.finfo(float).tiny, 1.0 - 2.0**-53)
        grant = np.maximum(np.ceil(np.log(2.0**-53 * (1.0 - q)) / np.log(q)) - 1.0, 1.0)
        return np.where(grant <= moments._series_budget(k_count), grant, 0.0).astype(int).tolist(), q

    def test_skipped_pass_moves_no_grant(self):
        # dense and sparse (ring) routings from K = 10 to 200, some with
        # orders that take the series, and the benchmark's K = 50, 200 and
        # 500 models: the grants are those of the full pass, and a call that
        # skips the pass leaves its buffer unwritten
        modelgen = load_module(MODELS_DIR.parent / "perfbench" / "modelgen.py")
        models = [
            build(k_count, np.random.default_rng(k_count + seed))
            for k_count in (10, 16, 25, 40, 50, 64, 80, 100)
            for seed, build in enumerate((random_exponential_model, random_mixed_model, ring_model))
        ]
        models += [
            ring_model(k_count, np.random.default_rng(k_count), mu=mu)
            for k_count in (12, 50, 64, 90)
            for mu in (1.0, 800.0)
        ]
        # orders that take the series: fast service, and a zero-speed state on near-uniform routing
        models += [seeded(fast_service_model, 64), seeded(fast_service_mixed_model, 64)]
        models += [seeded(zero_speed_model, k_count) for k_count in (20, 100, 200)]
        benchmark = [modelgen.build_model(modelgen.exponential_params(k_count)) for k_count in (50, 200, 500)]
        skipped = []
        for model in models + benchmark:
            statics = model.statics
            routing, taus = statics.reversed_routing, diagonal_weights(model)
            buffer = np.full_like(routing, np.nan)
            grants, bounds = moments._series_grants(taus, routing, statics.pi, buffer)
            expected, q = self.pass_grants(taus, routing, statics.pi)
            assert grants == expected
            skipped.append(bool(np.isnan(buffer).all()))
            if skipped[-1]:
                assert not any(grants) and np.all(bounds == 1.0)
            else:
                assert np.array_equal(bounds, q)
        assert skipped[-3:] == [True, False, False]
        assert 0 < sum(skipped[:-3]) < len(models)

    @pytest.mark.parametrize("build", GRANT_MODELS)
    def test_grant_is_within_the_tau_max_length(self, build, monkeypatch):
        # on dense routing q_n <= tau_max (1 + 4Ku): deflation never
        # lengthens an order's series past the plain one, so it never moves
        # an order from the series to the LU (sparse routing, like the
        # ring's, can: there q_n ~ 2 tau_max)
        model = build()
        budget = moments._series_budget(model.num_states)
        grants, _ = series_grants(model)
        for grant, length in zip(grants, tau_max_lengths(diagonal_weights(model))):
            assert grant <= length
            assert grant > 0 or length > budget
        # and with any budget, no grant exceeds the plain one
        grants, _ = series_grants(model, 1e6, monkeypatch)
        for grant, length in zip(grants, tau_max_lengths(diagonal_weights(model))):
            assert grant <= length

    def test_short_grant_raises(self, monkeypatch):
        # the ring's order 1 is granted nothing but certifies its trial in
        # the 6 products of the budget, orders 2 and 3 take 5 of their 6
        # granted products, and the order-4 rule fires on the last product
        # granted (5)
        model = ring_model(64, np.random.default_rng(64), mu=800.0)
        assert palm_moment_vectors(model, n_max=4).steps.tolist() == [0, 6, 5, 5, 5]
        grant = moments._series_grants
        monkeypatch.setattr(
            moments, "_series_grants",
            lambda *args: ([max(s - 1, 0) for s in grant(*args)[0]], *grant(*args)[1:]),
        )
        with pytest.raises(NumericError, match="order-4 Neumann series did not reach its tail bound within 4"):
            palm_moment_vectors(model, n_max=20)

    def test_broken_determinant_sign_raises(self):
        # 1 - p.z > 0 holds for any p by the determinant lemma; a second row
        # that is not tau (here 40 tau) breaks it, and the solve refuses
        model = seeded(fast_service_model, 64)
        statics = model.statics
        grants, bounds = series_grants(model)
        tau = diagonal_weights(model)[1]
        block = np.vstack((np.ones(64), 40.0 * tau / (statics.pi @ tau)))
        with pytest.raises(NumericError, match="order-1 deflated series lost the sign of its determinant"):
            moments._solve(
                1, statics.reversed_routing, tau, -tau[:, np.newaxis], tau.max(), statics.pi, bounds[1], grants[1],
                block, np.empty((64, 64)),
            )

    def test_zero_speed_state_certifies_its_trials(self, monkeypatch):
        # speed 0 gives tau_0 = 1: with dense random routing the bound, row 0
        # of |Q - 1 pi'| (about 0.45), grants more than K/5 - 10 = 30
        # products at K = 200 but at most twice that, so every order tries
        # the series and certifies it.  Speed 0 and speed 1e-9 take the same
        # solver per order
        base = seeded(fast_service_model, 200)
        slow, model = (
            dataclasses.replace(
                base,
                arrival_rates=np.concatenate(([0.0], base.arrival_rates[1:])),
                speeds=np.concatenate(([speed], base.speeds[1:])),
            )
            for speed in (1e-9, 0.0)
        )
        assert not any(series_grants(model)[0])
        solves = counting(monkeypatch, np.linalg, "solve")
        slow_steps = palm_moment_vectors(slow, 20).steps
        palm = palm_moment_vectors(model, 20)
        assert solves == []
        assert palm.steps[1:].all() and slow_steps[1:].all()
        expected = np.linalg.cond(order_matrix(model, 20), np.inf)
        assert palm.condition[20] == pytest.approx(expected, rel=1e-12)

    def test_zero_speed_state_deflates(self, monkeypatch):
        # near-uniform routing: row 0 of |Q - 1 pi'| sums to about 0.05, and
        # every order sums the series though tau_max = 1
        model = seeded(zero_speed_model, 200)
        solves = counting(monkeypatch, np.linalg, "solve")
        palm = palm_moment_vectors(model, 20)
        assert solves == []
        assert palm.steps[1:].all()
        assert series_grants(model)[1][1:].max() < 0.05

    @pytest.mark.parametrize("build", LU_MODELS)
    def test_small_models_take_one_lu_per_order(self, build, monkeypatch):
        # the solver of every order is picked once per call, before the loop
        model = build()
        solves = counting(monkeypatch, np.linalg, "solve")
        choices = counting(monkeypatch, moments, "_series_grants")
        palm = palm_moment_vectors(model, 20)
        assert len(solves) == 20
        assert len(choices) == 1
        assert not palm.steps.any()


class TestStationaryVectors:
    def test_all_exponential_equals_palm_exactly(self):
        rng = np.random.default_rng(21)
        for k_count in (2, 3, 5):
            model = random_exponential_model(k_count, rng)
            palm = palm_moment_vectors(model, n_max=6)
            stationary = stationary_moment_vectors(model, palm)
            for palm_vec, stat_vec in zip(palm.vectors, stationary):
                assert np.max(np.abs(palm_vec - stat_vec)) == 0.0

    def test_order_zero_is_ones(self, k3_mixed_model):
        palm = palm_moment_vectors(k3_mixed_model, n_max=3)
        stationary = stationary_moment_vectors(k3_mixed_model, palm)
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
        palm = palm_moment_vectors(model, n_max=1)
        stationary = stationary_moment_vectors(model, palm)
        rho = model.offered_loads
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
        # the inverse is mpmath's first-kind triangle, summed at 40 digits
        table = compute_moment_table(k3_mixed_model, n_max=8)
        first = stirling_triangle(1, 8)
        for weighting in ("embedded", "occupancy"):
            back = stirling_sums(first, table.raw[weighting])
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

    def test_accessors_take_the_weighting(self, k3_mixed_model):
        # both weightings are always computed; the accessors read occupancy unless told
        table = compute_moment_table(k3_mixed_model, n_max=3)
        for weighting in ("embedded", "occupancy"):
            assert table.factorial_moments(weighting) is table.aggregated[weighting]
            assert table.raw_moments(weighting) is table.raw[weighting]
        assert table.factorial_moments() is table.aggregated["occupancy"]
        assert table.raw_moments() is table.raw["occupancy"]
        with pytest.raises(KeyError):
            table.factorial_moments("nonsense")
        with pytest.raises(TypeError):
            compute_moment_table(k3_mixed_model, n_max=3, weighting="embedded")

    @pytest.mark.parametrize("build", CONSERVATION_MODELS)
    def test_identity_residuals_recorded(self, build):
        # rate conservation applies to every model and holds to roundoff at every order
        table = compute_moment_table(build(), n_max=20)
        residuals = table.conservation_residuals
        assert residuals is not None and residuals.shape == (21,)
        assert np.max(residuals) <= 1e-14

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
        statics = model.statics
        table = compute_moment_table(model, n_max=1)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(NumericError, match="non-finite"):
            _require_nonnegative(np.array([1.0, bad, 2.0]), "unit test")

    def test_block_names_its_first_failing_row(self):
        # row i is named by the context at first + i, with the row itself
        rows = np.array([[1.0, 2.0], [1.0, -np.inf], [1.0, -0.5], [np.nan, 1.0]])
        with pytest.raises(NumericError) as failure:
            _require_nonnegative(rows, "order {}", 3)
        assert str(failure.value) == f"order 4: non-finite moment entries {rows[1]!r}"
        with pytest.raises(NumericError) as failure:
            _require_nonnegative(rows[2:], "order {}", 1)
        assert str(failure.value).startswith(f"order 1: moment entries turned negative ({rows[2]!r})")
        _require_nonnegative(rows[:1], "order {}", 1)
        _require_nonnegative(rows[:0], "order {}", 1)

    @staticmethod
    def former_verdict(vec):
        # the guard as it was first written, with numpy reductions
        if not np.all(np.isfinite(vec)):
            return "non-finite"
        floor = -1e-10 * max(1.0, float(np.max(np.abs(vec))))
        return "negative" if np.any(vec < floor) else None

    @pytest.mark.parametrize("scale", [1.0, 0.25, 3e6])
    def test_floor_edges_match_the_former_guard(self, scale):
        floor = -1e-10 * max(1.0, scale)
        cases = [
            np.array([scale, floor]),
            np.array([scale, np.nextafter(floor, 0.0)]),
            np.array([scale, np.nextafter(floor, -1.0)]),
            np.array([np.nextafter(floor, -1.0), scale]),
            np.array([-scale, 0.5]),
        ]
        for vec in cases:
            expected = self.former_verdict(vec)
            if expected is None:
                _require_nonnegative(vec, "unit test")
            else:
                with pytest.raises(NumericError, match=expected):
                    _require_nonnegative(vec, "unit test")
        # just above the floor passes, just below raises
        _require_nonnegative(np.array([scale, np.nextafter(floor, 0.0)]), "unit test")
        with pytest.raises(NumericError, match="negative"):
            _require_nonnegative(np.array([scale, np.nextafter(floor, -1.0)]), "unit test")


VERB_ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ["moments", "--order", "3"],
        ["validate", "--order", "3"],
        ["simulate", "--reps", "4", "--warmup", "10", "--horizon", "60"],
        ["compare", "--reps", "4", "--warmup", "10", "--horizon", "60"],
    ],
    ids=lambda argv: argv[0],
)


class TestFixedCosts:
    """Per-call work that must not come back: counted, never timed."""

    @VERB_ARGVS
    def test_each_verb_validates_the_model_once(self, argv, monkeypatch, capsys):
        calls = []
        original = environment._violations
        monkeypatch.setattr(environment, "_violations", lambda model: calls.append(1) or original(model))
        code = main(argv[:1] + ["--model", str(MODELS_DIR / "k3_mixed.yaml")] + argv[1:])
        capsys.readouterr()
        assert code in (0, 1)
        assert len(calls) == 1

    @VERB_ARGVS
    def test_each_verb_builds_the_statics_once(self, argv, monkeypatch, capsys):
        # every chain_statics call enters the series for pi once, so this
        # counts the statics a verb builds
        calls = []
        original = environment._stationary_series
        monkeypatch.setattr(
            environment, "_stationary_series", lambda *args: calls.append(1) or original(*args)
        )
        code = main(argv[:1] + ["--model", str(MODELS_DIR / "k3_mixed.yaml")] + argv[1:])
        capsys.readouterr()
        assert code in (0, 1)
        assert len(calls) == 1

    def test_built_models_are_not_validated_again(self, k3_mixed_model, monkeypatch):
        calls = []
        original = environment._violations
        monkeypatch.setattr(environment, "_violations", lambda model: calls.append(1) or original(model))
        compute_moment_table(k3_mixed_model, n_max=5)
        config = SimulationConfig(warmup=10.0, horizon=60.0, replications=4, master_seed=7)
        estimate_factorial_moments(k3_mixed_model, config)
        assert calls == []
        # a changed copy is a new model, checked like any other
        dataclasses.replace(k3_mixed_model, mu=2.0)
        assert len(calls) == 1
        with pytest.raises(ModelError, match="mu must be positive"):
            dataclasses.replace(k3_mixed_model, mu=0.0)
        assert len(calls) == 2

    @pytest.mark.parametrize("k_count, solves", [(2, 1), (3, 1), (5, 1), (9, 1), (500, 0)])
    def test_statics_solve_only_where_the_series_cannot_run(self, k_count, solves, monkeypatch):
        # below K = 10 pi always takes the LU; on a dense K = 500 chain the
        # series certifies it with no K x K solve
        model = seeded(random_exponential_model, k_count)
        calls = []
        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(a.shape) or original(a, b))
        assert (chain_statics(model).steps > 0) == (solves == 0)
        assert len(calls) == solves

    def test_stacked_gauss_rules_equal_one_rule_at_a_time(self):
        # one stacked eigen-solve gives every rule bit for bit as one solve per rule
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.5, 4.0, 200), rng.uniform(0.01, 1.0, 200)
        nodes, probs = moments._gauss_beta(a, b, moments._PANEL_NODES)
        for i in range(200):
            single = moments._gauss_beta(float(a[i]), float(b[i]), moments._PANEL_NODES)
            assert np.array_equal(nodes[i], single[0]) and np.array_equal(probs[i], single[1])
        # and the graded rules of many gamma states at once, as one at a time
        c = 10.0 ** rng.uniform(-2.0, 8.0, 40)
        together = moments._gamma_scale_rules(a[:40].tolist(), b[:40].tolist(), c.tolist())
        for i, (rule_nodes, rule_probs) in enumerate(together):
            alone_nodes, alone_probs = moments._gamma_scale_rules([float(a[i])], [float(b[i])], [float(c[i])])[0]
            assert np.array_equal(rule_nodes, alone_nodes) and np.array_equal(rule_probs, alone_probs)

    def test_gamma_rules_take_one_eigen_solve_per_table(self, monkeypatch):
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda matrix: calls.append(matrix.shape) or original(matrix))
        rng = np.random.default_rng(3)
        laws = [Gamma(shape=float(s), rate=1.0) for s in rng.uniform(0.5, 3.0, 30)]
        service = 10.0 ** rng.uniform(-1.0, 3.0, 30)
        moments._legendre_rule(moments._PANEL_NODES)
        for residual in (False, True):
            calls.clear()
            _weights(laws, service, 20, residual=residual)
            # one stack of 16-point Jacobi matrices, at least one per state
            assert len(calls) == 1
            assert calls[0][0] >= 30 and calls[0][1:] == (16, 16)

    def test_legendre_rule_is_built_once(self, monkeypatch):
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda matrix: calls.append(1) or original(matrix))
        moments._legendre_rule.cache_clear()
        first = _weights([Deterministic(1.5)], [0.9], 20, residual=True)
        second = _weights([Deterministic(1.5)], [0.9], 20, residual=True)
        assert len(calls) == 1
        assert np.array_equal(first, second)
        nodes, probs = moments._legendre_rule(40)
        assert not nodes.flags.writeable and not probs.flags.writeable


class TestIdentityChecks:
    def test_markovian_identity_randomized(self):
        # exponential sojourns: rate conservation is the generator identity of the Markov environment
        rng = np.random.default_rng(41)
        for _ in range(5):
            assert np.max(conservation_residuals(random_exponential_model(3, rng), 6)) < 1e-9

    def test_rate_conservation_randomized(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            residuals = conservation_residuals(random_mixed_model(int(rng.integers(2, 5)), rng), 6)
            assert residuals.shape == (7,)
            assert np.max(residuals) < 1e-9

    def test_markovian_identity_identical_state_first_order(self):
        model = EnvironmentModel(
            arrival_rates=[1.0, 1.0],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(2.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert conservation_residuals(model, 1)[1] < 1e-13

    def test_order_zero_is_stationarity(self, k3_mixed_model):
        assert conservation_residuals(k3_mixed_model, 0)[0] < 1e-14

    def test_symmetric_two_state(self):
        model = EnvironmentModel(
            arrival_rates=[1.5, 1.5],
            speeds=[1.0, 1.0],
            sojourns=(Exponential(1.0), Exponential(1.0)),
            mu=1.0,
            routing=[[0.0, 1.0], [1.0, 0.0]],
        )
        assert np.max(conservation_residuals(model, 4)) < 1e-13

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_long_deterministic_sojourn(self):
        # tau = exp(-700) at order 20: a relation that divided by tau
        # overflowed to NaN on these correct moments
        residuals = conservation_residuals(long_deterministic_model(35.0), 20)
        assert np.all(np.isfinite(residuals))
        assert np.max(residuals) <= 1e-12


class TestStateSplit:
    """A state split in series into laws that sum to its own leaves the occupancy moments unchanged."""

    @staticmethod
    def neighbours_model(law, speed):
        return EnvironmentModel(
            arrival_rates=[1.2, 0.4, 2.0],
            speeds=[speed, 1.0, 0.5],
            sojourns=(law, Deterministic(0.8), HyperExponential(probs=(0.3, 0.7), rates=(0.6, 2.5))),
            mu=1.0,
            routing=[[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]],
        )

    def assert_split_agrees(self, law, speed, first, second):
        # measured: at most 3.0e-15 over orders 0-20
        model = self.neighbours_model(law, speed)
        whole = compute_moment_table(model, 20).factorial_moments()
        split = compute_moment_table(split_state(model, 0, first, second), 20).factorial_moments()
        np.testing.assert_allclose(split, whole, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "shape, rate, speed", [(2.6, 0.4, 0.8), (46.19, 1.0, 0.01), (80.3, 229.2, 0.2286), (307.6, 272.1, 0.3035)]
    )
    def test_gamma_split_at_half_its_shape(self, shape, rate, speed):
        # s / 2 is not the floor(s) cut the builder itself makes
        half = Gamma(shape / 2, rate)
        self.assert_split_agrees(Gamma(shape, rate), speed, half, Gamma(shape - half.shape, rate))

    @pytest.mark.parametrize("rate", [0.05, 1.3, 40.0])
    def test_exponential_split_into_two_gammas(self, rate):
        self.assert_split_agrees(Exponential(rate), 0.8, Gamma(0.4, rate), Gamma(0.6, rate))


WEIGHT_RATE = 0.8
# gamma shapes far below 1, whose residual rows hold 1e-14 against the
# extended-precision reference but whose Palm rows do not (up to 1.2e-4 at
# shape 1e-12): the first panel's Beta(f, 1) Gauss-Jacobi nodes and weights
# come from a symmetric eigensolve, accurate only in absolute terms.  A
# residual rule built by size-biasing the Palm rule would inherit that error.
RESIDUAL_ONLY_SHAPES = (1e-12, 1e-6, 1e-3)
WEIGHT_FAMILIES = {
    "exponential": Exponential(1.3),
    "hyperexponential": HyperExponential(probs=(0.4, 0.0, 0.6), rates=(0.5, 1.0, 2.0)),
    # probabilities summing to 1 only within the accepted 1e-12
    "hyperexponential-inexact": HyperExponential(probs=(0.4, 0.6 - 5e-13), rates=(0.5, 2.0)),
    "erlang": Gamma(shape=3.0, rate=1.5),
    "erlang-7": Gamma(7.0, 2.0),
    "gamma-5.4": Gamma(5.4, 0.9),
    "gamma-0.7": Gamma(shape=0.7, rate=1.2),
    "gamma-2.6": Gamma(shape=2.6, rate=0.4),
    # sojourns 8000 times longer than a service time
    "gamma-slow": Gamma(shape=2.5, rate=1e-4),
    "deterministic": Deterministic(1.5),
    "deterministic-long": Deterministic(40.0),
    "deterministic-short": Deterministic(0.05),
}


class TestWeights:
    """Rows of w[n, j] = E[P(Bin(n, X) = j)], X = exp(-mu_k T), per family."""

    @staticmethod
    def rows(dist, rate, residual):
        table = _weights([dist], [rate], 20, residual=residual)
        return [table[n, : n + 1].T for n in range(21)]

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

    @pytest.mark.parametrize("name", ["deterministic-short", "deterministic", "gamma-0.7", "gamma-2.6", "gamma-5.4"])
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

    @pytest.mark.parametrize("shape, rate, service, kind", [
        (307.6, 272.1, 0.3035, "weight"),
        (307.6, 272.1, 0.3035, "residual weight"),
        (80.3, 229.2, 0.2286, "weight"),
    ])
    def test_large_gamma_diagonal(self, shape, rate, service, kind):
        # these order-20 diagonals were off their closed forms by up to
        # 1.5e-03 when the graded rule took the whole shape; the product
        # build reads them within 1.4e-14 (measured at 307.6, "weight")
        table = _weights([Exponential(1.0), Gamma(shape, rate)], [0.5, service], 20, residual=kind != "weight")
        with mpmath.workdps(60):
            s, c = mpmath.mpf(shape), mpmath.mpf(service) / mpmath.mpf(rate)
            palm = (1 + 20 * c) ** -s
            expected = float(palm if kind == "weight" else (1 - palm) / (20 * c * s))
        assert table[20, 20, 1] == pytest.approx(expected, rel=5e-14, abs=0.0)

    @pytest.mark.parametrize(
        "shape, ratio",
        [(0.7, 1e3), (2.6, 1e4), (5.4, 1e3)]
        + [(shape, ratio) for shape in (0.7, 2.6, 5.4) for ratio in (0.02, 0.005, 1e-4)]
        + [(shape, ratio) for shape in (0.3, 40.5) for ratio in (1e-4, 1.0, 1e8)]
        + [(shape, ratio) for shape in (46.19, 80.3, 307.6) for ratio in (1e-4, 0.02, 1.0, 1e3, 1e8)]
        + [(80.0, 1e3), (300.0, 1.0)]
        + [(shape, ratio) for shape in RESIDUAL_ONLY_SHAPES for ratio in (1e-4, 1.0, 1e3)],
    )
    def test_slow_gamma_rows_match_extended_precision(self, shape, ratio):
        # c = mu_k / rate large: the rows, rational in the gamma time scale,
        # have poles crowding towards its end point 0; c small (at most
        # 1 / 40): the rule still cuts [0, 1] once, at 1/4.  Every weight of
        # the rows of orders 1, 5 and 20 must hold its relative accuracy,
        # unless its value is below the smallest normal double.
        # Reference: the alternating binomial sum of transform values at
        # 250 digits, which its cancellation needs at c = 1e-4 (60 digits
        # suffice at c = 1e3).  Every shape above 1 is a Gamma(f) *
        # Erlang(floor(s)) product; from 46 on the rows read up to 2.0e-14
        # (at 307.6), as the exact Erlang(307) rows do alone (2.03e-14), and
        # are held to 5e-14.  The exact Erlang(80) rows at c = 1e3 and
        # Erlang(300) rows at c = 1 have entries of 1e-308 to 1e-306, whose
        # w / C(n, j) is subnormal unless the reduction is scaled; they read
        # 1.7e-14
        bound = 5e-14 if shape > 46 else 1e-14
        dist = Gamma(shape=shape, rate=WEIGHT_RATE / ratio)
        tiny = np.finfo(float).tiny
        with mpmath.workdps(250):
            s, c = mpmath.mpf(shape), mpmath.mpf(WEIGHT_RATE) / mpmath.mpf(dist.rate)
            palm = [(1 + p * c) ** -s for p in range(21)]
            residual = [mpmath.mpf(1)] + [(1 - palm[p]) / (p * c * s) for p in range(1, 21)]
            checked = ((True, residual),) if shape in RESIDUAL_ONLY_SHAPES else ((False, palm), (True, residual))
            for is_residual, transform in checked:
                rows = self.rows(dist, WEIGHT_RATE, is_residual)
                for n in (1, 5, 20):
                    for j in range(n + 1):
                        terms = [(-1) ** i * mpmath.binomial(n - j, i) * transform[j + i] for i in range(n - j + 1)]
                        expected = float(mpmath.binomial(n, j) * mpmath.fsum(terms))
                        if expected >= tiny:
                            assert rows[n][0, j] == pytest.approx(expected, rel=bound, abs=0.0)
                        else:
                            assert rows[n][0, j] < tiny

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
            assert np.array_equal(short, full[:7, :7])
            # order-major and C-contiguous, from every builder: row n of
            # every state is the one block table[n, : n + 1]
            assert short.shape == (7, 7, len(sojourns)) and short.flags.c_contiguous
            assert full.shape == (21, 21, len(sojourns)) and full.flags.c_contiguous
            for dist in sojourns:
                for rate in (WEIGHT_RATE, 0.0):
                    table = _weights([dist], [rate], 20, residual=residual)
                    assert table.shape == (21, 21, 1) and table.flags.c_contiguous

    @pytest.mark.parametrize("residual", [False, True], ids=["palm", "residual"])
    def test_one_rate_laws_give_the_exponential_table(self, residual):
        # exponential states form their top rows apart from the Erlang
        # mixtures; a one-branch hyperexponential and a unit-shape gamma must
        # give their table bit for bit, and the degree reduction must treat
        # each state's column alone, whatever its neighbours
        for rate in (0.05, 1.3, 40.0):
            laws = [Exponential(rate), HyperExponential(probs=(1.0,), rates=(rate,)), Gamma(shape=1.0, rate=rate)]
            alone = [_weights([law], [WEIGHT_RATE], 20, residual=residual) for law in laws]
            together = _weights(laws, np.full(3, WEIGHT_RATE), 20, residual=residual)
            for k, table in enumerate(alone):
                assert np.array_equal(table, alone[0])
                assert np.array_equal(together[:, :, k : k + 1], alone[0])


def test_zero_speed_state_supported():
    # a state may have zero speed when it also has zero arrivals; the
    # order-n diagonal entry there is 1 and the system stays invertible
    model = zero_speed_state_model()
    palm = palm_moment_vectors(model, n_max=5)
    assert np.nanmax(palm.solve_residual) < 1e-10
    assert np.max(conservation_residuals(model, 5)) < 1e-9
