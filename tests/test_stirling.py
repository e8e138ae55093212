import numpy as np
import pytest

from mminfenv import raw_from_factorial
from mminfenv.moments import MAX_ORDER, _second_kind

from conftest import stirling_sums, stirling_triangle

# Poisson(1) raw moments: Bell numbers
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def exact_rows(size: int) -> list:
    """The library's float triangle as exact integers, row l cut at its diagonal."""
    table = _second_kind()
    return [[int(x) for x in table[l, : l + 1]] for l in range(size)]


def test_known_rows():
    rows = exact_rows(MAX_ORDER + 1)
    assert rows[4] == [0, 1, 7, 6, 1]
    assert rows[0] == [1]
    assert rows == stirling_triangle(2, 20)
    # zero above the diagonal, and no write reaches the cached triangle
    assert not np.triu(_second_kind(), 1).any()
    assert not _second_kind().flags.writeable


def test_recurrences_hold():
    s2 = exact_rows(13)
    for l in range(1, 13):
        for j in range(1, l):
            assert s2[l][j] == j * s2[l - 1][j] + s2[l - 1][j - 1]


def test_triangles_are_exact_mutual_inverses_through_20():
    # the second-kind triangle against mpmath's signed first-kind one
    second = exact_rows(21)
    first = stirling_triangle(1, 20)
    for l in range(21):
        for m in range(l + 1):
            composed = sum(second[l][j] * first[j][m] for j in range(m, l + 1))
            assert composed == (1 if l == m else 0)


def test_poisson_one_raw_moments_are_bell_numbers():
    factorial = np.ones(9)  # Poisson(1) factorial moments are all 1
    raw = raw_from_factorial(factorial)
    assert raw == pytest.approx(BELL, rel=1e-12)


def test_raw_moments_match_the_40_digit_forward_sums():
    # mixed-Poisson factorial moments (moments of a two-point mixing law)
    # are positive, so every term of the transform is positive and the
    # float64 sum of row l is within about l unit roundoffs of the exact
    # sum: 1e-14 holds by that bound alone at every order through 20
    reference = stirling_triangle(2, MAX_ORDER)
    rng = np.random.default_rng(5)
    orders = np.arange(MAX_ORDER + 1)
    for _ in range(20):
        weight = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.3, 1.0)
        b = rng.uniform(1.7, 4.0)
        factorial = weight * a**orders + (1.0 - weight) * b**orders
        size = int(rng.integers(1, MAX_ORDER + 2))
        expected = stirling_sums(reference, factorial[:size])
        np.testing.assert_allclose(raw_from_factorial(factorial[:size]), expected, rtol=1e-14, atol=0.0)


def test_order_overflow_rejected():
    raw_from_factorial(np.ones(MAX_ORDER + 1))
    with pytest.raises(ValueError):
        raw_from_factorial(np.ones(MAX_ORDER + 2))


def test_contractions_match_the_numpy_scalar_sums_bit_for_bit():
    # the former form: generator sums of exact integers times numpy
    # scalars, left to right; the list form must give the same bits
    second = exact_rows(MAX_ORDER + 1)
    rng = np.random.default_rng(17)
    for size in (1, 2, 9, 21):
        for values in (rng.uniform(0.0, 5.0, size) ** np.arange(size), rng.standard_normal(size) * 1e3):
            expected = np.array([sum(second[l][j] * values[j] for j in range(l + 1)) for l in range(size)])
            assert np.array_equal(raw_from_factorial(values), expected)


def test_contraction_sums_each_row_left_to_right():
    # the same sums as a plain left-to-right loop, bit for bit, for every
    # length
    second = exact_rows(MAX_ORDER + 1)
    rng = np.random.default_rng(12)
    for _ in range(1000):
        size = int(rng.integers(1, 22))
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
        expected = []
        for row in second[:size]:
            total = 0.0
            for coefficient, value in zip(row, values.tolist()):
                total += coefficient * value
            expected.append(total)
        assert raw_from_factorial(values).tobytes() == np.array(expected).tobytes()
