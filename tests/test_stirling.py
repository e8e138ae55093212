import numpy as np
import pytest

from mminfenv import StirlingTables

from conftest import stirling_triangle

# Poisson(1) raw moments: Bell numbers
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_known_rows():
    tables = StirlingTables(20)
    assert tables.second_kind[4] == [0, 1, 7, 6, 1]
    assert tables.second_kind[0] == [1]
    assert tables.second_kind == stirling_triangle(2, 20)


def test_recurrences_hold():
    s2 = StirlingTables(12).second_kind
    for l in range(1, 13):
        for j in range(1, l):
            assert s2[l][j] == j * s2[l - 1][j] + s2[l - 1][j - 1]


def test_triangles_are_exact_mutual_inverses_through_20():
    # the second-kind triangle against mpmath's signed first-kind one
    second = StirlingTables(20).second_kind
    first = stirling_triangle(1, 20)
    for l in range(21):
        for m in range(l + 1):
            composed = sum(second[l][j] * first[j][m] for j in range(m, l + 1))
            assert composed == (1 if l == m else 0)


def test_poisson_one_raw_moments_are_bell_numbers():
    tables = StirlingTables(8)
    factorial = np.ones(9)  # Poisson(1) factorial moments are all 1
    raw = tables.raw_from_factorial(factorial)
    assert raw == pytest.approx(BELL, rel=1e-12)


def test_round_trip_raw_factorial():
    # genuine mixed-Poisson factorial-moment sequences (moments of the
    # mixing law); arbitrary per-order values would not be a moment
    # sequence and would cancel catastrophically under inversion.  The
    # inverse sums mpmath's first-kind triangle left to right in float64:
    # summed exactly, the rounding of raw^(10) alone, amplified by the
    # alternating sum, reads 1.3e-10 on one of these draws
    tables = StirlingTables(10)
    first = stirling_triangle(1, 10)
    rng = np.random.default_rng(5)
    orders = np.arange(11)
    for _ in range(10):
        weight = rng.uniform(0.1, 0.9)
        a = rng.uniform(0.3, 1.0)
        b = rng.uniform(1.7, 4.0)
        factorial = weight * a ** orders + (1.0 - weight) * b ** orders
        raw = tables.raw_from_factorial(factorial).tolist()
        back = [sum(coefficient * value for coefficient, value in zip(row, raw)) for row in first]
        assert back == pytest.approx(factorial, rel=1e-10)


def test_order_overflow_rejected():
    tables = StirlingTables(3)
    with pytest.raises(ValueError):
        tables.raw_from_factorial(np.ones(6))
    with pytest.raises(ValueError):
        StirlingTables(-1)


def test_contractions_match_the_numpy_scalar_sums_bit_for_bit():
    # the former form: generator sums of exact integers times numpy
    # scalars, left to right; the list form must give the same bits
    tables = StirlingTables(20)
    rng = np.random.default_rng(17)
    for size in (1, 2, 9, 21):
        for values in (rng.uniform(0.0, 5.0, size) ** np.arange(size), rng.standard_normal(size) * 1e3):
            expected = np.array(
                [sum(tables.second_kind[l][j] * values[j] for j in range(l + 1)) for l in range(size)]
            )
            assert np.array_equal(tables.raw_from_factorial(values), expected)


def test_contraction_sums_each_row_left_to_right():
    # the same sums as a plain left-to-right loop, bit for bit, for every
    # length
    tables = StirlingTables(20)
    rng = np.random.default_rng(12)
    for _ in range(1000):
        size = int(rng.integers(1, 22))
        values = rng.standard_normal(size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
        expected = []
        for row in tables.second_kind[:size]:
            total = 0.0
            for coefficient, value in zip(row, values.tolist()):
                total += coefficient * value
            expected.append(total)
        assert tables.raw_from_factorial(values).tobytes() == np.array(expected).tobytes()
