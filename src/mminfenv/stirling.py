"""The second-kind Stirling triangle and the raw moments it gives.

The factorial moments of the customer count are what the recursion
computes; the raw moments follow from them by the second-kind Stirling
transform m^(l) = sum_j S2[l][j] f^(j).  The triangle is held as exact
Python integers and contracted in float64.
"""

import numpy as np

__all__ = ["StirlingTables"]


class StirlingTables:
    """Triangular table of second-kind Stirling numbers up to a maximum order.

    ``second_kind[l][j]`` counts the partitions of an l-set into j
    blocks, built from its standard recurrence in exact integers.
    """

    def __init__(self, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {n_max}")
        self.n_max = int(n_max)
        second = [[1]]
        for l in range(1, self.n_max + 1):
            prev = second[l - 1]
            row = []
            for j in range(l + 1):
                left = prev[j - 1] if 1 <= j else 0
                same = prev[j] if j <= l - 1 else 0
                row.append(j * same + left)
            second.append(row)
        self.second_kind = second
        # float copy for the contraction, zero above the diagonal
        self._second_float = np.array(
            [row + [0] * (self.n_max - l) for l, row in enumerate(second)], dtype=float
        )

    def raw_from_factorial(self, factorial_moments) -> np.ndarray:
        """Raw moments from factorial moments: m^(l) = sum_j S2[l][j] f^(j).

        Row l is summed left to right in float64 and read at its
        diagonal, before the zeros above it are added.
        """
        values = np.asarray(factorial_moments, dtype=float)
        if values.size - 1 > self.n_max:
            raise ValueError(
                f"moment sequence of order {values.size - 1} exceeds table order {self.n_max}"
            )
        size = values.size
        return np.cumsum(self._second_float[:size, :size] * values, axis=1).diagonal().copy()
