import math

import numpy as np
import pytest
from scipy.integrate import quad

from mminfenv import (
    Deterministic,
    Exponential,
    Gamma,
    HyperExponential,
    ModelError,
)

ALL_FAMILIES = [
    Exponential(rate=2.0),
    Gamma(shape=2.0, rate=3.0),
    Gamma(shape=0.5, rate=1.0),
    Deterministic(value=1.0),
    HyperExponential(probs=(0.3, 0.7), rates=(0.5, 2.0)),
]


def test_laplace_at_zero_is_one_exactly():
    for dist in ALL_FAMILIES:
        assert dist.laplace(0.0) == 1.0


def test_gamma_laplace_closed_form():
    # (1 + s/rate)^(-shape) at s = rate gives 2^(-shape)
    assert Gamma(shape=2.0, rate=3.0).laplace(3.0) == pytest.approx(0.25, rel=1e-15)


def test_deterministic_laplace():
    assert Deterministic(value=1.0).laplace(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)


def test_negative_argument_is_domain_error():
    for dist in ALL_FAMILIES:
        with pytest.raises(ValueError):
            dist.laplace(-0.5)
        with pytest.raises(ValueError):
            dist.residual_laplace(-1e-9)


def test_non_finite_argument_is_domain_error():
    for dist in ALL_FAMILIES:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                dist.laplace(bad)
            with pytest.raises(ValueError):
                dist.residual_laplace(bad)


def test_laplace_monotone_decreasing_in_unit_interval():
    grid = np.linspace(0.0, 8.0, 60)
    for dist in ALL_FAMILIES:
        values = np.array([dist.laplace(s) for s in grid])
        assert np.all(values > 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) < 0.0)


def test_means():
    assert Exponential(rate=2.0).mean() == pytest.approx(0.5)
    assert Gamma(shape=2.0, rate=3.0).mean() == pytest.approx(2.0 / 3.0)
    assert Deterministic(value=1.7).mean() == pytest.approx(1.7)
    assert HyperExponential(probs=(0.3, 0.7), rates=(0.5, 2.0)).mean() == pytest.approx(
        0.3 / 0.5 + 0.7 / 2.0
    )


def test_exponential_residual_equals_plain_transform_exactly():
    dist = Exponential(rate=1.3)
    for s in (0.0, 0.2, 1.0, 7.5):
        assert dist.residual_laplace(s) == dist.laplace(s)
        # the generic algebra (1 - tau(s)) / (s mean) agrees up to roundoff
        if s > 0.0:
            generic = (1.0 - dist.laplace(s)) / (s * dist.mean())
            assert generic == pytest.approx(dist.laplace(s), rel=1e-12)


def test_residual_laplace_at_zero_is_one():
    for dist in ALL_FAMILIES:
        assert dist.residual_laplace(0.0) == 1.0


def test_deterministic_residual_transform_against_quadrature():
    # independent oracle: the residual density of a point mass at d is
    # uniform on [0, d], so the transform is the integral of e^(-st)/d
    dist = Deterministic(value=2.0)
    s = 1.0
    oracle, err = quad(lambda t: math.exp(-s * t) / 2.0, 0.0, 2.0)
    assert err < 1e-12
    assert oracle == pytest.approx(0.43233235838169365, rel=1e-12)  # frozen oracle value
    assert dist.residual_laplace(s) == pytest.approx(oracle, rel=1e-12)


def test_residual_transform_against_quadrature_all_families():
    # oracle: integrate e^(-st) times the integrated-tail density S(t)/mean
    from scipy.stats import gamma as gamma_dist

    survival = {
        "exp": lambda t: math.exp(-2.0 * t),
        "gamma": lambda t: float(gamma_dist.sf(t, 2.0, scale=1.0 / 3.0)),
        "hyper": lambda t: 0.3 * math.exp(-0.5 * t) + 0.7 * math.exp(-2.0 * t),
    }
    dists = {
        "exp": Exponential(rate=2.0),
        "gamma": Gamma(shape=2.0, rate=3.0),
        "hyper": HyperExponential(probs=(0.3, 0.7), rates=(0.5, 2.0)),
    }
    for name, dist in dists.items():
        for s in (0.5, 2.0):
            oracle, _ = quad(lambda t: math.exp(-s * t) * survival[name](t) / dist.mean(), 0.0, 60.0)
            assert dist.residual_laplace(s) == pytest.approx(oracle, rel=1e-9), name


def test_sampling_matches_mean():
    rng = np.random.default_rng(101)
    for dist in ALL_FAMILIES:
        draws = np.array([dist.sample(rng) for _ in range(4000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - dist.mean()) < max(4.0 * se, 1e-12)


def test_vector_sampling_matches_mean():
    rng = np.random.default_rng(404)
    for dist in ALL_FAMILIES:
        draws = dist.sample(rng, 4000)
        assert draws.shape == (4000,)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - dist.mean()) < max(4.0 * se, 1e-12), type(dist).__name__


def test_hyperexponential_skips_zero_probability_branch():
    dist = HyperExponential(probs=(0.5, 0.5, 0.0), rates=(1.0, 2.0, 1e-9))
    draws = dist.sample(np.random.default_rng(5), 20000)
    # a draw from the rate-1e-9 branch would be of order 1e9
    assert draws.max() < 100.0


def test_residual_sampling_matches_equilibrium_mean():
    # E[T_e] = E[T^2] / (2 E[T]), with E[T^2] in closed form per family
    second_moments = {
        0: 2.0 / 2.0 ** 2,                        # Exponential(2)
        1: 2.0 * 3.0 / 3.0 ** 2,                  # Gamma(2,3): k(k+1)/r^2
        2: 0.5 * 1.5 / 1.0 ** 2,                  # Gamma(0.5,1)
        3: 1.0,                                   # Deterministic(1)
        4: 0.3 * 2.0 / 0.5 ** 2 + 0.7 * 2.0 / 2.0 ** 2,  # HyperExponential
    }
    rng = np.random.default_rng(202)
    for index, dist in enumerate(ALL_FAMILIES):
        target = second_moments[index] / (2.0 * dist.mean())
        draws = np.array([dist.sample_residual(rng) for _ in range(4000)])
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - target) < max(4.0 * se, 1e-12), type(dist).__name__


def test_gamma_residual_sampling_cdf_against_quadrature():
    # distributional check at a few quantiles, not just the mean
    from scipy.stats import gamma as gamma_dist

    dist = Gamma(shape=2.0, rate=3.0)
    rng = np.random.default_rng(303)
    draws = np.array([dist.sample_residual(rng) for _ in range(4000)])
    for t in (0.2, 0.5, 1.0):
        oracle, _ = quad(
            lambda x: (1.0 - gamma_dist.cdf(x, 2.0, scale=1.0 / 3.0)) / dist.mean(), 0.0, t
        )
        empirical = float((draws <= t).mean())
        assert abs(empirical - oracle) < 4.0 * math.sqrt(oracle * (1 - oracle) / draws.size)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Exponential(rate=0.0),
        lambda: Exponential(rate=-1.0),
        lambda: Gamma(shape=0.0, rate=1.0),
        lambda: Gamma(shape=1.0, rate=float("inf")),
        lambda: Deterministic(value=0.0),
        lambda: HyperExponential(probs=(0.5, 0.4), rates=(1.0, 2.0)),
        lambda: HyperExponential(probs=(0.5, 0.5), rates=(1.0, 0.0)),
        lambda: HyperExponential(probs=(1.0,), rates=()),
        lambda: HyperExponential(probs=(-0.2, 1.2), rates=(1.0, 2.0)),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ModelError):
        bad()
