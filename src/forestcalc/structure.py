"""Matrix routes to reachability and source-knot detection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact
from .calculus import MaxForestMatrix, forest_stack, resolvent, ForestMatrixStack
from .digraph import Digraph, SourceKnotSet, reachable_from, source_knots
from .laplacian import column_laplacian

SIGN_RTOL = 1e-9
EXACT_LIMIT = 12


@dataclass(frozen=True, eq=False)
class TopReachabilityMatrix:
    """0/1 matrix marking (i, j) with i in a source knot and j reachable from i."""

    entries: np.ndarray


def sign_pattern(matrix) -> np.ndarray:
    """Entrywise 0/1 sign of a nonnegative matrix.

    The positivity threshold is relative to the largest entry, separating
    structural zeros from roundoff.
    """
    m = np.asarray(matrix, dtype=float)
    top = float(np.abs(m).max())
    threshold = SIGN_RTOL * top
    return (m > threshold).astype(int)


def support(matrix) -> np.ndarray:
    """0/1 pattern of the positive entries of a solved J(tau) or Jbar.

    Their solves neither swap rows nor cancel, so a structural zero comes
    out as an exact zero and no threshold is needed.
    """
    return (np.asarray(matrix, dtype=float) > 0).astype(int)


def reachability_from_parametric(g: Digraph, tau: float) -> np.ndarray:
    """Reachability as the sign pattern of the parametric forest matrix."""
    return support(resolvent(forest_stack(g).lap, tau))


def reachability_from_top_layers(stack: ForestMatrixStack) -> np.ndarray:
    """Reachability from the top two stack layers alone.

    All reachability information concentrates in the maximum forests and the
    forests with one arc fewer; with m = 0 the identity layer is used alone.
    """
    if stack.m == 0:
        return sign_pattern(stack.j(0))
    return sign_pattern(np.asarray(stack.j(stack.m), dtype=float)
                        + np.asarray(stack.j(stack.m - 1), dtype=float))


def top_reachability(max_forest: MaxForestMatrix) -> TopReachabilityMatrix:
    return TopReachabilityMatrix(support(max_forest.entries))


def structural_top_reachability(g: Digraph) -> TopReachabilityMatrix:
    """Traversal ground truth for the top reachability matrix."""
    sk = source_knots(g)
    entries = np.zeros((g.n, g.n), dtype=int)
    for i in sk.union:
        for j in reachable_from(g, (i,)):
            entries[i - 1, j - 1] = 1
    return TopReachabilityMatrix(entries)


def source_knots_from_matrix(max_forest: MaxForestMatrix) -> SourceKnotSet:
    """Recover the source knots from the maximum-forest matrix alone.

    Vertices i, j share a knot exactly when both (i, j) and (j, i) entries
    are positive; knot membership itself shows on the diagonal.
    """
    rhat = support(max_forest.entries)
    n = rhat.shape[0]
    mutual = rhat * rhat.T
    in_knot = [i for i in range(n) if rhat[i, i]]
    remaining = set(in_knot)
    knots = []
    while remaining:
        seed = min(remaining)
        knot = frozenset(v + 1 for v in remaining if mutual[seed, v])
        knots.append(knot)
        remaining -= {v - 1 for v in knot}
    knots.sort(key=min)
    reaches = [frozenset(j + 1 for j in range(n) if rhat[min(knot) - 1, j]) for knot in knots]
    return SourceKnotSet.from_reaches(knots, reaches)


def top_reachability_by_threshold(g: Digraph, limit: int = EXACT_LIMIT) -> TopReachabilityMatrix:
    """Exact threshold test for top reachability on unit-weight digraphs.

    With sigma the determinant of I + L, the parametric matrix at tau equal
    to sigma squared separates the maximum-forest support from the rest at
    the level 1/sigma.  Runs entirely in rational arithmetic: tau is far too
    large for floating point.
    """
    if not g.unit_weights():
        raise ValueError("threshold test requires all arc weights equal to 1")
    if g.n > limit:
        raise ValueError(f"exact arithmetic limited to {limit} vertices, got {g.n}")
    lap = column_laplacian(g, exact=True)
    sigma = exact.determinant((np.eye(g.n, dtype=int) + lap.entries).tolist())
    j_tau = resolvent(lap, sigma * sigma)
    return TopReachabilityMatrix(np.array(j_tau >= 1 / sigma, dtype=int))
