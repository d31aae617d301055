"""Forest-based vertex accessibility measures and their condition checkers.

The out measure at parameter tau is the normalized parametric forest matrix;
the in measure is its dual through arc reversal.  tau = inf selects the
limiting measures built on maximum forests only.  Each desirable-property
condition is an executable, exhaustive check returning pass or the first
failing witness in lexicographic tuple order.  The monotonicity checks raise
one arc weight at a time in a copy of the measured digraph's cached column
Laplacian, so they build no digraph and cache no stack but that digraph's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import ForestMatrixStack, forest_stack, max_forest_matrix, resolvent
from .digraph import Digraph, SuccessorLists, as_weight, mediates, reachability_bfs, reverse
from .laplacian import LaplacianMatrix
from .structure import support

STRICT_TOL = 1e-10
PERTURBATION_STEPS = (0.1, 1.0)

CONDITIONS = (
    "nonnegativity",
    "reachability-condition",
    "self-accessibility",
    "triangle-inequality",
    "transit-property",
    "monotonicity",
    "convexity",
)
_PARTITIONED = {
    "self-accessibility",
    "triangle-inequality",
    "transit-property",
    "monotonicity",
    "convexity",
}


@dataclass(frozen=True, eq=False)
class ProximityMatrix:
    """Accessibility of column vertex from row vertex; tau may be math.inf."""

    entries: np.ndarray
    direction: str
    tau: float


@dataclass(frozen=True, eq=False)
class ConditionReport:
    condition: str
    variant: str | None
    mode: str
    verdict: str
    witness: dict | None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        return {
            "condition": self.condition,
            "variant": self.variant,
            "mode": self.mode,
            "verdict": self.verdict,
            "witness": self.witness,
        }


def _out_entries(stack: ForestMatrixStack, tau: float) -> np.ndarray:
    return max_forest_matrix(stack).entries if tau == math.inf else resolvent(stack.lap, tau)


def out_accessibility(g: Digraph, tau: float) -> ProximityMatrix:
    """Relative weight of i -> j connections among the out-connections of i.

    tau is positive and finite, or math.inf for the limiting measure Jbar.
    """
    return ProximityMatrix(_out_entries(forest_stack(g), tau), "out", tau)


def in_accessibility(g: Digraph, tau: float) -> ProximityMatrix:
    """Dual measure: the out measure of the reversed digraph, transposed."""
    dual = out_accessibility(reverse(g), tau)
    return ProximityMatrix(dual.entries.T.copy(), "in", tau)


def _measure(g: Digraph, direction: str, tau: float) -> np.ndarray:
    if direction == "out":
        return out_accessibility(g, tau).entries
    if direction == "in":
        return in_accessibility(g, tau).entries
    raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")


def _gt(a: float, b: float, mode: str) -> bool:
    # strict ">" keeps a tolerance margin; nonstrict ">=" only rejects
    # clearly negative differences
    if mode == "strict":
        return a - b > STRICT_TOL
    return a - b > -STRICT_TOL


def _fail(condition, variant, mode, part, vertices, values) -> ConditionReport:
    witness = {
        "part": part,
        "vertices": vertices,
        "values": {key: float(v) for key, v in values.items()},
    }
    return ConditionReport(condition, variant, mode, "fail", witness)


def _variants(condition: str, variant: str | None) -> tuple[str, ...]:
    if condition not in _PARTITIONED:
        return ()
    if variant in (None, "both"):
        return ("A", "B")
    if variant in ("A", "B"):
        return (variant,)
    raise ValueError(f"variant for {condition} must be 'A', 'B' or 'both', got {variant!r}")


def check_condition(
    g: Digraph,
    condition: str,
    *,
    direction: str = "out",
    tau: float = 1.0,
    variant: str | None = None,
    mode: str = "strict",
) -> ConditionReport:
    """Exhaustively evaluate one accessibility condition for one measure.

    ``variant`` selects the (A)/(B) half of partitioned conditions ("both"
    checks both); the unpartitioned parts of monotonicity are always
    evaluated.  ``mode="nonstrict"`` replaces strict inequalities in the
    conclusions by their weak forms.
    """
    if mode not in ("strict", "nonstrict"):
        raise ValueError(f"mode must be 'strict' or 'nonstrict', got {mode!r}")
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")
    p = _measure(g, direction, tau)
    checker = {
        "nonnegativity": _check_nonnegativity,
        "reachability-condition": _check_reachability,
        "self-accessibility": _check_self_accessibility,
        "triangle-inequality": _check_triangle,
        "transit-property": _check_transit,
        "monotonicity": _check_monotonicity,
        "convexity": _check_convexity,
    }[condition]
    return checker(g, p, direction, tau, variant, mode)


def _check_nonnegativity(g, p, direction, tau, variant, mode):
    for i in range(g.n):
        for j in range(g.n):
            if p[i, j] < -STRICT_TOL:
                return _fail("nonnegativity", variant, mode, "entry",
                             {"i": i + 1, "j": j + 1}, {"p_ij": p[i, j]})
    return ConditionReport("nonnegativity", variant, mode, "pass", None)


def _check_reachability(g, p, direction, tau, variant, mode):
    if variant in (None, "both"):
        parts = ("forward", "backward")
    elif variant in ("forward", "backward"):
        parts = (variant,)
    else:
        raise ValueError(
            f"variant for reachability-condition must be 'forward', 'backward' "
            f"or 'both', got {variant!r}"
        )
    reach = reachability_bfs(g)
    positive = support(p)
    for i in range(g.n):
        for j in range(g.n):
            if "forward" in parts and positive[i, j] == 0 and reach[i, j] == 1:
                return _fail("reachability-condition", variant, mode, "forward",
                             {"i": i + 1, "j": j + 1},
                             {"p_ij": p[i, j], "reachable": reach[i, j]})
            if "backward" in parts and reach[i, j] == 0 and positive[i, j] == 1:
                return _fail("reachability-condition", variant, mode, "backward",
                             {"i": i + 1, "j": j + 1},
                             {"p_ij": p[i, j], "reachable": reach[i, j]})
    return ConditionReport("reachability-condition", variant, mode, "pass", None)


def _check_self_accessibility(g, p, direction, tau, variant, mode):
    for half in _variants("self-accessibility", variant):
        for i in range(g.n):
            for j in range(g.n):
                if i == j:
                    continue
                other = p[i, j] if half == "A" else p[j, i]
                if not _gt(p[i, i], other, mode):
                    return _fail("self-accessibility", variant, mode, half,
                                 {"i": i + 1, "j": j + 1},
                                 {"p_ii": p[i, i], "other": other})
    return ConditionReport("self-accessibility", variant, mode, "pass", None)


def _check_triangle(g, p, direction, tau, variant, mode):
    """The proximity triangle bound is the first step of the convexity walk,
    so it binds exactly when the walk's hypothesis does: the difference on
    the left must be positive.  (Unconditionally the bound is false: one arc
    1 -> 2 at tau = 10 gives p_22 - p_12 < 0 = p_23 - p_13.)  The inequality
    is weak as stated, so the mode does not alter it."""
    for half in _variants("triangle-inequality", variant):
        for i in range(g.n):
            for k in range(g.n):
                for t in range(g.n):
                    if half == "A":
                        lhs, rhs = p[k, i] - p[t, i], p[k, k] - p[t, k]
                    else:
                        lhs, rhs = p[i, k] - p[i, t], p[k, k] - p[k, t]
                    if lhs <= STRICT_TOL:
                        continue
                    if lhs - rhs > STRICT_TOL:
                        return _fail("triangle-inequality", variant, mode, half,
                                     {"i": i + 1, "k": k + 1, "t": t + 1},
                                     {"lhs": lhs, "rhs": rhs})
    return ConditionReport("triangle-inequality", variant, mode, "pass", None)


def _check_transit(g, p, direction, tau, variant, mode):
    for half in _variants("transit-property", variant):
        for i in g.vertices:
            for k in g.vertices:
                for t in g.vertices:
                    if i == t or not mediates(g, k, i, t):
                        continue
                    if half == "A":
                        lhs, rhs = p[i - 1, k - 1], p[i - 1, t - 1]
                    else:
                        lhs, rhs = p[k - 1, t - 1], p[i - 1, t - 1]
                    if not _gt(lhs, rhs, mode):
                        return _fail("transit-property", variant, mode, half,
                                     {"i": i, "k": k, "t": t},
                                     {"lhs": lhs, "rhs": rhs})
    return ConditionReport("transit-property", variant, mode, "pass", None)


def _perturbations(g: Digraph, p: np.ndarray, direction: str, tau: float):
    """Each increase (k, t, delta) of an arc weight of g, with the gain d of
    the measure p on the increased digraph.  That digraph is never built: the
    arc is raised in a copy of the measured digraph's column Laplacian (g's,
    or reverse(g)'s for the in measure) whose two changed entries come from
    exact sums, so the copy equals the increased digraph's Laplacian bit for
    bit."""
    h = g if direction == "out" else reverse(g)
    base = forest_stack(h).lap.entries
    steps = [(delta, as_weight(delta)) for delta in PERTURBATION_STEPS]
    for k in g.vertices:
        for t in g.vertices:
            if k == t:
                continue
            tail, head = (k, t) if direction == "out" else (t, k)
            indegree = sum(h.weight_of(u, head) for u in h.in_adj[head])
            for delta, step in steps:
                entries = base.copy()
                entries[tail - 1, head - 1] = -float(h.weight_of(tail, head) + step)
                entries[head - 1, head - 1] = float(indegree + step)
                measure = _out_entries(ForestMatrixStack(LaplacianMatrix(entries, "column")), tau)
                yield k, t, delta, (measure if direction == "out" else measure.T) - p


def _check_monotonicity(g, p, direction, tau, variant, mode):
    """Items (1) and (2) are unpartitioned and always evaluated; (3A)/(3B)
    follow the variant.  Mediation is judged in the perturbed digraph, where
    a newly added arc already exists."""
    halves = _variants("monotonicity", variant)
    for k, t, delta, d in _perturbations(g, p, direction, tau):
        g2 = g if g.has_arc(k, t) else SuccessorLists({**g.out_adj, k: g.out_adj[k] + (t,)})
        if not _gt(d[k - 1, t - 1], 0.0, mode):
            return _fail("monotonicity", variant, mode, "item1",
                         {"k": k, "t": t, "delta": delta},
                         {"d_kt": d[k - 1, t - 1]})
        for i in g.vertices:
            if i != k and i != t and mediates(g2, t, k, i):
                if not _gt(d[k - 1, i - 1], d[t - 1, i - 1], mode):
                    return _fail("monotonicity", variant, mode, "item2",
                                 {"k": k, "t": t, "i": i, "delta": delta},
                                 {"d_ki": d[k - 1, i - 1], "d_ti": d[t - 1, i - 1]})
                if "A" in halves and not _gt(d[k - 1, t - 1], d[k - 1, i - 1], mode):
                    return _fail("monotonicity", variant, mode, "item3A",
                                 {"k": k, "t": t, "i": i, "delta": delta},
                                 {"d_kt": d[k - 1, t - 1], "d_ki": d[k - 1, i - 1]})
            if i != k and i != t and mediates(g2, k, i, t):
                if not _gt(d[i - 1, t - 1], d[i - 1, k - 1], mode):
                    return _fail("monotonicity", variant, mode, "item2",
                                 {"k": k, "t": t, "i": i, "delta": delta},
                                 {"d_it": d[i - 1, t - 1], "d_ik": d[i - 1, k - 1]})
                if "B" in halves and not _gt(d[k - 1, t - 1], d[i - 1, t - 1], mode):
                    return _fail("monotonicity", variant, mode, "item3B",
                                 {"k": k, "t": t, "i": i, "delta": delta},
                                 {"d_kt": d[k - 1, t - 1], "d_it": d[i - 1, t - 1]})
    return ConditionReport("monotonicity", variant, mode, "pass", None)


def _check_convexity(g, p, direction, tau, variant, mode):
    for half in _variants("convexity", variant):
        for k in g.vertices:
            for t in g.vertices:
                for i in g.vertices:
                    if i == k:
                        continue
                    if half == "A":
                        hypothesis = p[k - 1, i - 1] - p[t - 1, i - 1] > STRICT_TOL
                    else:
                        hypothesis = p[i - 1, k - 1] - p[i - 1, t - 1] > STRICT_TOL
                    if not hypothesis:
                        continue
                    path = convexity_path(g, p, half, k, t, i, mode=mode)
                    if path is None:
                        return _fail("convexity", variant, mode, half,
                                     {"k": k, "t": t, "i": i}, {})
    return ConditionReport("convexity", variant, mode, "pass", None)


def convexity_path(
    g: Digraph,
    entries: np.ndarray,
    variant: str,
    k: int,
    t: int,
    i: int,
    mode: str = "strict",
) -> tuple[int, ...] | None:
    """Explicit path realizing the convexity condition, or None.

    Variant A wants a k -> i path along which p_kj - p_tj decreases as j
    advances; it is found by walking backwards from i, each step moving to an
    in-neighbour with a strictly larger difference (such a neighbour always
    exists for the strict parametric measures).  Variant B reduces to A on
    the reversed digraph with the transposed matrix.  In nonstrict mode a
    plateau-tolerant path search backs up the greedy walk.
    """
    p = np.asarray(entries, dtype=float)
    if variant == "B":
        # A on the reversed digraph, whose in- and out-lists are g's out- and
        # in-lists, with the transposed matrix
        found = _convexity_walk(g.n, g.out_adj, g.in_adj, p.T, k, t, i, mode)
        return None if found is None else tuple(reversed(found))
    if variant != "A":
        raise ValueError(f"variant must be 'A' or 'B', got {variant!r}")
    return _convexity_walk(g.n, g.in_adj, g.out_adj, p, k, t, i, mode)


def _convexity_walk(n, in_adj, out_adj, p, k, t, i, mode):
    """Variant A of ``convexity_path`` on the digraph with these adjacency lists."""
    if i == k:
        raise ValueError("convexity requires i != k")
    diff = p[k - 1] - p[t - 1]
    if diff[i - 1] <= STRICT_TOL:
        raise ValueError("convexity hypothesis p_ki > p_ti does not hold")

    backwards = [i]
    current = i
    for _ in range(n):
        if current == k:
            return tuple(reversed(backwards))
        candidates = [u for u in in_adj[current] if diff[u - 1] > diff[current - 1] + STRICT_TOL]
        if not candidates:
            break
        current = min(candidates)
        backwards.append(current)
    if mode == "strict":
        return None

    # plateau-tolerant search: depth-first over simple k -> i paths with
    # nonincreasing differences, first hit in lexicographic order
    def extend(path: list[int]) -> tuple[int, ...] | None:
        v = path[-1]
        if v == i:
            return tuple(path)
        for w in sorted(out_adj[v]):
            if w in path:
                continue
            if diff[w - 1] <= diff[v - 1] + STRICT_TOL:
                found = extend(path + [w])
                if found is not None:
                    return found
        return None

    return extend([k])


def small_tau_monotonicity_probe(
    g: Digraph, tau: float = 1e-3, direction: str = "out"
) -> ConditionReport:
    """Experimental: at small tau the perturbed pair's gain should dominate
    every other pair's gain.  Reported for observation only."""
    p = _measure(g, direction, tau)
    for k, t, delta, d in _perturbations(g, p, direction, tau):
        gain = d[k - 1, t - 1]
        for i in g.vertices:
            for j in g.vertices:
                if (i, j) == (k, t):
                    continue
                if not gain - d[i - 1, j - 1] > STRICT_TOL:
                    return _fail("addition-to-monotonicity", None, "strict",
                                 "dominance", {"k": k, "t": t, "i": i, "j": j, "delta": delta},
                                 {"d_kt": gain, "d_ij": d[i - 1, j - 1]})
    return ConditionReport("addition-to-monotonicity", None, "strict", "pass", None)
