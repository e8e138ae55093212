"""Sojourn-time distributions of the random environment.

Every family exposes its Laplace transform at nonnegative real arguments
together with its mean; these two quantities are all the analytic
machinery ever needs.  For simulation each family can also draw full
sojourns, one or a vector of them per call, and an equilibrium
(integrated-tail) residual sojourn, the latter being what a stationary
observer sees of the in-progress sojourn.  The residual is drawn exactly
as U times a length-biased sojourn, U uniform on [0, 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError

__all__ = [
    "SojournDistribution",
    "Exponential",
    "Gamma",
    "Deterministic",
    "HyperExponential",
]


def _check_transform_arg(s) -> float:
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"Laplace transform argument must be a finite nonnegative real, got {s}")
    return s


def _normalised_cdf(probabilities) -> np.ndarray:
    """Cumulative sums along the last axis, divided by their totals.

    Trailing entries after the last positive probability equal the total,
    so they become exactly 1 and a uniform draw in [0, 1) searched with
    side "right" never lands on a zero-probability index.
    """
    cdf = np.cumsum(probabilities, axis=-1)
    return cdf / cdf[..., -1:]


class SojournDistribution:
    """Common interface of all sojourn-time laws."""

    def laplace(self, s: float) -> float:
        """E[exp(-s T)] for s >= 0, exact at s = 0."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng: "np.random.Generator", size: int = None):
        """Draw one full sojourn, or an array of ``size`` independent ones."""
        raise NotImplementedError

    def sample_residual(self, rng: "np.random.Generator") -> float:
        """Draw from the equilibrium (integrated-tail) law of the sojourn."""
        raise NotImplementedError

    def residual_laplace(self, s: float) -> float:
        """Transform of the equilibrium residual law: (1 - laplace(s)) / (s mean).

        Continuous at s = 0 where it equals 1.
        """
        s = _check_transform_arg(s)
        if s == 0.0:
            return 1.0
        return (1.0 - self.laplace(s)) / (s * self.mean())


@dataclass(frozen=True)
class Exponential(SojournDistribution):
    """Exponential sojourn with rate `rate` (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ModelError(f"Exponential rate must be positive and finite, got {self.rate}")

    def laplace(self, s: float) -> float:
        s = _check_transform_arg(s)
        return self.rate / (self.rate + s)

    def residual_laplace(self, s: float) -> float:
        # memoryless: the residual law is the sojourn law itself; returning
        # laplace() keeps the identity exact in floating point
        return self.laplace(s)

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def sample_residual(self, rng) -> float:
        return rng.exponential(1.0 / self.rate)


@dataclass(frozen=True)
class Gamma(SojournDistribution):
    """Gamma sojourn with shape `shape` and rate `rate` (mean shape/rate)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.shape) and self.shape > 0.0):
            raise ModelError(f"Gamma shape must be positive and finite, got {self.shape}")
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ModelError(f"Gamma rate must be positive and finite, got {self.rate}")

    def laplace(self, s: float) -> float:
        s = _check_transform_arg(s)
        return (1.0 + s / self.rate) ** (-self.shape)

    def mean(self) -> float:
        return self.shape / self.rate

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    def sample_residual(self, rng) -> float:
        # the length-biased law of Gamma(k, r) is Gamma(k + 1, r)
        return rng.random() * rng.gamma(self.shape + 1.0, 1.0 / self.rate)


@dataclass(frozen=True)
class Deterministic(SojournDistribution):
    """Point mass at `value`."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ModelError(f"Deterministic value must be positive and finite, got {self.value}")

    def laplace(self, s: float) -> float:
        s = _check_transform_arg(s)
        return math.exp(-s * self.value)

    def mean(self) -> float:
        return self.value

    def sample(self, rng, size=None):
        return self.value if size is None else np.full(size, self.value)

    def sample_residual(self, rng) -> float:
        # integrated tail of a point mass is uniform on [0, value]
        return self.value * rng.random()


@dataclass(frozen=True)
class HyperExponential(SojournDistribution):
    """Mixture of exponentials: branch i has probability probs[i] and rate rates[i]."""

    probs: tuple
    rates: tuple

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "rates", rates)
        if len(probs) != len(rates) or len(probs) == 0:
            raise ModelError("HyperExponential needs matching, nonempty probs and rates")
        if any(p < 0.0 or not math.isfinite(p) for p in probs):
            raise ModelError(f"HyperExponential branch probabilities must be nonnegative, got {probs}")
        total = sum(probs)
        if abs(total - 1.0) > 1e-12:
            raise ModelError(f"HyperExponential branch probabilities must sum to 1, got {total}")
        # normalised once, so that every layer reads the same law
        object.__setattr__(self, "probs", tuple(p / total for p in probs))
        if any(r <= 0.0 or not math.isfinite(r) for r in rates):
            raise ModelError(f"HyperExponential branch rates must be positive, got {rates}")

    def laplace(self, s: float) -> float:
        s = _check_transform_arg(s)
        return sum(p * r / (r + s) for p, r in zip(self.probs, self.rates))

    def mean(self) -> float:
        return sum(p / r for p, r in zip(self.probs, self.rates))

    def _branch_sample(self, rng, weights, size):
        # pick branches by the normalised cumulative weights, then scale
        # unit exponentials
        branch = np.searchsorted(_normalised_cdf(weights), rng.random(size), side="right")
        draws = rng.exponential(1.0, size) / np.asarray(self.rates)[branch]
        return float(draws) if size is None else draws

    def sample(self, rng, size=None):
        return self._branch_sample(rng, self.probs, size)

    def sample_residual(self, rng) -> float:
        # length biasing reweights branch i by its mean: p_i / r_i, and the
        # residual of an exponential branch is that exponential again
        return self._branch_sample(rng, [p / r for p, r in zip(self.probs, self.rates)], None)
