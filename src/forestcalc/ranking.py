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

import numpy as np

from .calculus import forest_stack, max_forest_matrix, resolvent
from .digraph import Arc, Digraph
from .laplacian import degrees

TIE_RTOL = 1e-10


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


def score_basis(g: Digraph) -> ScoreBasis:
    """Basis of solutions to L x = 0, one column per source knot.

    Column s is the Jbar column of knot s's lowest-numbered vertex.  Its
    support is the knot, so the columns are orthogonal; ``verify_suite``
    compares them with the knots' enumerated spanning-tree weights.
    """
    stack = forest_stack(g)
    jbar = max_forest_matrix(stack).entries
    reps = tuple(min(knot) for knot in stack.knots.knots)
    columns = tuple(np.array(jbar[:, rep - 1], dtype=float) for rep in reps)
    return ScoreBasis(columns, stack.knots.knots, reps)


def mean_score(g: Digraph) -> ScoreVector:
    """Arithmetic mean of the maximum-forest matrix columns.

    Nonnegative, sums to one, vanishes outside the source knots, and solves
    L x = 0; it equals the uniform-start limiting distribution of any
    inversely corresponding Markov chain.
    """
    jbar = np.asarray(max_forest_matrix(forest_stack(g)).entries, dtype=float)
    values = jbar @ np.full(g.n, 1.0 / g.n)
    return ScoreVector(values, "mean-jbar", {})


def daniels_scores_strong(g: Digraph) -> ScoreVector:
    """Spanning-tree weight of each root, for strongly connected digraphs.

    By the matrix-tree theorem this is the single column of the score basis,
    which sums to 1.  Raises for digraphs that are not strong: with several
    source knots no single score ray exists and the caller should use the
    basis or the mean.
    """
    sk = forest_stack(g).knots
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
