"""Scores and rankings from preference digraphs and incomplete tournaments.

The nullspace of the column Laplacian is spanned by columns of the
maximum-forest projection, one per source knot; the mean of all its columns
gives a canonical score vector.  For strongly connected digraphs the
classical single-vector solution (spanning-tree weights per root) is also
provided, and the generalized Borda method maps the out-minus-in degree
vector through the symmetrized graph's parametric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .calculus import forest_stack, max_forest_matrix, resolvent
from .digraph import Arc, Digraph, induced_subgraph, source_knots
from .laplacian import degrees
from .oracle import MAX_VERTICES, enumerate_out_forests

TIE_RTOL = 1e-10
NULLSPACE_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ScoreBasis:
    """One maximum-forest column per source knot: an orthogonal basis of the
    Laplacian nullspace.  Column s is supported on knot s and carries the
    relative weights of the knot's internal spanning trees."""

    columns: tuple[np.ndarray, ...]
    knots: tuple[frozenset[int], ...]
    representatives: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ScoreVector:
    values: np.ndarray
    method: str
    parameters: dict


def _knot_tree_weights(g: Digraph, knot: frozenset[int]) -> dict[int, Fraction]:
    """Exact weights of the spanning diverging trees of the knot's restriction,
    keyed by root vertex (original ids)."""
    if len(knot) == 1:
        (v,) = knot
        return {v: Fraction(1)}
    sub, ids = induced_subgraph(g, knot)
    fs = enumerate_out_forests(sub)
    weights = {v: Fraction(0) for v in knot}
    for tree in fs.forests(len(knot) - 1):
        (root,) = tree.roots
        weights[ids[root - 1]] += tree.weight
    return weights


def score_basis(g: Digraph) -> ScoreBasis:
    """Basis of solutions to L x = 0, one column per source knot.

    Picks the lowest-numbered vertex of each knot, verifies the nullspace
    and orthogonality properties, and on enumeration-sized digraphs also the
    closed form through the knot's spanning-tree weights.
    """
    stack = forest_stack(g)
    sk = stack.knots
    jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
    lap = stack.lap.entries
    columns = []
    reps = []
    for knot in sk.knots:
        rep = min(knot)
        column = jbar[:, rep - 1].copy()
        if float(np.abs(lap @ column).max()) > NULLSPACE_TOL:
            raise ArithmeticError(f"basis column for knot {sorted(knot)} is not in the nullspace")
        columns.append(column)
        reps.append(rep)
    for a in range(len(columns)):
        for b in range(a + 1, len(columns)):
            if abs(float(columns[a] @ columns[b])) > ORTHOGONALITY_TOL:
                raise ArithmeticError("basis columns are not orthogonal")
    if g.n <= MAX_VERTICES:
        for knot, column in zip(sk.knots, columns):
            tree_weights = _knot_tree_weights(g, knot)
            total = sum(tree_weights.values(), Fraction(0))
            for v in g.vertices:
                expected = float(tree_weights[v] / total) if v in knot else 0.0
                if abs(column[v - 1] - expected) > NULLSPACE_TOL:
                    raise ArithmeticError(
                        f"basis column for knot {sorted(knot)} deviates from tree weights"
                    )
    return ScoreBasis(tuple(columns), sk.knots, tuple(reps))


def mean_score(g: Digraph) -> ScoreVector:
    """Arithmetic mean of the maximum-forest matrix columns.

    Nonnegative, sums to one, vanishes outside the source knots, and solves
    L x = 0; it equals the uniform-start limiting distribution of any
    inversely corresponding Markov chain.
    """
    stack = forest_stack(g)
    jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
    values = jbar @ np.full(g.n, 1.0 / g.n)
    if float(np.abs(stack.lap.entries @ values).max()) > NULLSPACE_TOL:
        raise ArithmeticError("mean score failed the nullspace residual check")
    return ScoreVector(values, "mean-jbar", {})


def daniels_scores_strong(g: Digraph) -> ScoreVector:
    """Spanning-tree weight of each root, for strongly connected digraphs.

    By the matrix-tree theorem this is the single column of the score basis,
    which already sums to 1 and, at enumeration size, is checked against the
    enumerated tree weights.  Raises for digraphs that are not strong: with
    several source knots no single score ray exists and the caller should
    use the basis or the mean.
    """
    sk = source_knots(g)
    if sk.d_prime != 1 or len(sk.knots[0]) != g.n:
        raise ValueError("spanning-tree scores require a strongly connected digraph")
    return ScoreVector(score_basis(g).columns[0], "daniels", {})


def _symmetrized(g: Digraph) -> Digraph:
    """Undirected counterpart: each unordered pair carries the summed weight
    of its two possible arcs, in both directions."""
    arcs = []
    for i in g.vertices:
        for j in g.vertices:
            if i < j:
                w = g.weight_of(i, j) + g.weight_of(j, i)
                if w > 0:
                    arcs.append(Arc(i, j, w))
                    arcs.append(Arc(j, i, w))
    return Digraph(g.n, tuple(arcs))


def generalized_borda(g: Digraph, tau: float, degree_kind: str = "weighted") -> ScoreVector:
    """Map the out-minus-in degree vector through the symmetrized graph's
    parametric matrix.  ``degree_kind`` picks weighted sums (default) or raw
    arc counts."""
    if degree_kind not in ("weighted", "count"):
        raise ValueError(f"degree_kind must be 'weighted' or 'count', got {degree_kind!r}")
    prefix = "weighted" if degree_kind == "weighted" else "arc-count"
    out_deg = degrees(g, f"{prefix}-outdegree").values
    in_deg = degrees(g, f"{prefix}-indegree").values
    values = resolvent(forest_stack(_symmetrized(g)).lap, tau) @ (out_deg - in_deg)
    return ScoreVector(values, "generalized-borda", {"tau": tau, "degrees": degree_kind})


def rank_order(scores: ScoreVector) -> list[list[int]]:
    """Vertices by descending score, grouped into ties.

    Scores within a relative gap of each other merge into one group; within
    a group vertices keep ascending id order.
    """
    values = np.asarray(scores.values, dtype=float)
    scale = max(1.0, float(np.abs(values).max()))
    order = sorted(range(1, len(values) + 1), key=lambda v: (-values[v - 1], v))
    groups: list[list[int]] = []
    for v in order:
        if groups and values[groups[-1][-1] - 1] - values[v - 1] <= TIE_RTOL * scale:
            groups[-1].append(v)
        else:
            groups.append([v])
    return groups
