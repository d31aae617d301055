"""Column and row Laplacian matrices and weighted degree vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digraph import Digraph

DEGREE_KINDS = (
    "weighted-indegree",
    "weighted-outdegree",
    "arc-count-indegree",
    "arc-count-outdegree",
)


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    """n x n Laplacian with off-diagonal -w_ij; orientation fixes the diagonal.

    Column orientation zeroes every column sum (diagonal = weighted indegree),
    row orientation zeroes every row sum (diagonal = weighted outdegree).
    """

    entries: np.ndarray
    orientation: str

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def exact(self) -> bool:
        return self.entries.dtype == object


def _as_float(value: Fraction, what: str) -> float:
    """float(value); ValueError when it overflows or a nonzero value rounds to
    0.0, which would change the digraph the float Laplacian describes."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or (x == 0) != (value == 0):
        raise ValueError(f"{what} is outside the float range")
    return x


def _laplacian(g: Digraph, orientation: str, exact: bool) -> LaplacianMatrix:
    n = g.n
    if exact:
        entries = np.full((n, n), Fraction(0), dtype=object)
    else:
        entries = np.zeros((n, n))
    # Diagonals come from exact rational sums of the off-diagonal column/row,
    # so the corresponding sums vanish instead of accumulating roundoff.
    diag = [Fraction(0)] * n
    for a in g.arcs:
        i, j = a.tail - 1, a.head - 1
        entries[i, j] = -a.weight if exact else -_as_float(a.weight, f"weight of arc ({a.tail}, {a.head})")
        if orientation == "column":
            diag[j] += a.weight
        else:
            diag[i] += a.weight
    for i in range(n):
        entries[i, i] = diag[i] if exact else _as_float(diag[i], f"weighted degree of vertex {i + 1}")
    return LaplacianMatrix(entries, orientation)


def column_laplacian(g: Digraph, exact: bool = False) -> LaplacianMatrix:
    """Laplacian whose columns sum to zero; input to the forest recurrence."""
    return _laplacian(g, "column", exact)


def row_laplacian(g: Digraph, exact: bool = False) -> LaplacianMatrix:
    """Same off-diagonal entries, diagonal chosen to zero the row sums."""
    return _laplacian(g, "row", exact)


@dataclass(frozen=True, eq=False)
class DegreeVector:
    values: np.ndarray
    kind: str


def degrees(g: Digraph, kind: str) -> DegreeVector:
    """Per-vertex degree vector; weighted kinds sum arc weights, count kinds count arcs."""
    if kind not in DEGREE_KINDS:
        raise ValueError(f"unknown degree kind {kind!r}; expected one of {DEGREE_KINDS}")
    incoming = "indegree" in kind
    weighted = kind.startswith("weighted")
    totals = [Fraction(0)] * g.n
    for a in g.arcs:
        v = a.head if incoming else a.tail
        totals[v - 1] += a.weight if weighted else 1
    values = np.array([float(t) for t in totals])
    return DegreeVector(values, kind)
