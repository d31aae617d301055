"""Exact rational linear algebra: one fraction-free elimination.

``solve`` scales each row of [A | B] by the least common multiple of its
denominators, so that the system is over the integers, and runs Bareiss's
one-step elimination (Bareiss, Math. Comp. 22, 1968) on Python ints.  Every
division in it is exact, and its last pivot is the determinant.  Back
substitution solves for det * X, which is an integer matrix, and rationals
appear only when that is divided by the determinant, so systems like
I + tau L stay exact even for astronomically large tau.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np


def solve(a, b) -> tuple[Fraction, np.ndarray]:
    """(det A, X) with A X = B, both exact, for a square nonsingular A.

    A and B hold ints or Fractions; X is an object array of Fractions.  B
    may have no columns, which leaves only the determinant.  A singular A
    raises ZeroDivisionError.
    """
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    n = a.shape[0]
    if a.shape != (n, n) or b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"need a square A and a B of equal height, got {a.shape} and {b.shape}")
    scale, rows = 1, []
    for row in np.hstack([a, b]):
        s = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    m = np.array(rows, dtype=object).reshape(n, n + b.shape[1])

    sign, prev = 1, 1
    for k in range(n):
        if m[k, k] == 0:
            r = next((r for r in range(k + 1, n) if m[r, k] != 0), None)
            if r is None:
                raise ZeroDivisionError("matrix is singular")
            m[[k, r]] = m[[r, k]]
            sign = -sign
        pivot = m[k, k]
        m[k + 1:, k + 1:] = (m[k + 1:, k + 1:] * pivot - m[k + 1:, k, None] * m[k, None, k + 1:]) // prev
        prev = pivot

    # prev is now the determinant of the row-permuted integer A, so
    # y = prev * X is an integer matrix and each division below is exact
    y = np.empty((n, b.shape[1]), dtype=object)
    for i in range(n - 1, -1, -1):
        y[i] = (prev * m[i, n:] - m[i, i + 1:n] @ y[i + 1:]) // m[i, i]
    return Fraction(sign * prev, scale), y / Fraction(prev)
