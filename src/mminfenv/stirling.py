"""Stirling-number tables and the factorial/raw moment conversions.

The tables are held as exact Python integers so that the two triangles
are mutual inverses with no rounding at all; conversions to and from
moment sequences happen in float64.
"""

import numpy as np

__all__ = ["StirlingTables"]


class StirlingTables:
    """Triangular tables of Stirling numbers up to a maximum order.

    ``second_kind[l][j]`` partitions an l-set into j blocks;
    ``first_kind[l][j]`` is the signed first-kind number.  Both triangles
    are built from their standard recurrences and are exact integers.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        self.n_max = int(n_max)
        second = [[1]]
        first = [[1]]
        for l in range(1, self.n_max + 1):
            prev_s2 = second[l - 1]
            prev_s1 = first[l - 1]
            row_s2 = []
            row_s1 = []
            for j in range(l + 1):
                left_s2 = prev_s2[j - 1] if 1 <= j else 0
                same_s2 = prev_s2[j] if j <= l - 1 else 0
                row_s2.append(j * same_s2 + left_s2)
                left_s1 = prev_s1[j - 1] if 1 <= j else 0
                same_s1 = prev_s1[j] if j <= l - 1 else 0
                row_s1.append(left_s1 - (l - 1) * same_s1)
            second.append(row_s2)
            first.append(row_s1)
        self.second_kind = second
        self.first_kind = first
        # float copies for the contractions, zero above the diagonal
        self._second_float, self._first_float = (
            np.array([row + [0] * (self.n_max - l) for l, row in enumerate(triangle)], dtype=float)
            for triangle in (second, first)
        )

    def compose(self) -> list:
        """Product of the two triangles in exact integer arithmetic.

        Returns the lower-triangular composition sum_j S2[l][j] s1[j][m];
        it equals the identity when the tables are consistent.
        """
        out = []
        for l in range(self.n_max + 1):
            row = []
            for m in range(l + 1):
                row.append(
                    sum(
                        self.second_kind[l][j] * self.first_kind[j][m]
                        for j in range(m, l + 1)
                    )
                )
            out.append(row)
        return out

    def raw_from_factorial(self, factorial_moments) -> np.ndarray:
        """Raw moments from factorial moments: m^(l) = sum_j S2[l][j] f^(j)."""
        return self._contract(self._second_float, factorial_moments)

    def factorial_from_raw(self, raw_moments) -> np.ndarray:
        """Factorial moments from raw moments via the signed first-kind triangle."""
        return self._contract(self._first_float, raw_moments)

    def _contract(self, triangle, moments) -> np.ndarray:
        """sum_j triangle[l][j] moments[j] for each l, summed left to right in float64.

        Row l's running sum is read at its diagonal, before the zeros above
        it are added.
        """
        values = np.asarray(moments, dtype=float)
        self._check_len(values)
        size = values.size
        return np.cumsum(triangle[:size, :size] * values, axis=1).diagonal().copy()

    def _check_len(self, seq) -> None:
        if seq.size - 1 > self.n_max:
            raise ValueError(
                f"moment sequence of order {seq.size - 1} exceeds table order {self.n_max}"
            )
