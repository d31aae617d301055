"""Cross-check suite: every matrix identity against enumeration ground truth.

Apart from the inverse identity in ``parametric_matrices``, the library
functions return their results unchecked; each identity is checked here,
once.  Each check compares an independent route (exhaustive forest
enumeration, traversal reachability, exact determinants, the Cesaro limit,
the power series and the forest-digraph Laplacians) with the linear-algebra
results, and reports one pass/fail entry.  The annihilation and nullspace
bounds scale with max(1, max|L|), as products with L do.  Sized for
enumeration-scale digraphs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .accessibility import in_accessibility, out_accessibility
from .calculus import (
    forest_digraph_laplacians,
    forest_matrix_from_powers,
    forest_stack,
    max_forest_matrix,
    parametric_matrices,
)
from .digraph import Digraph, reachability_bfs, reverse, source_knots
from .markov import cesaro_limit, inverse_corresponding_chain, verify_tree_theorem
from .oracle import MAX_VERTICES, ForestSet, enumerate_out_forests, forest_matrix, normalized_forest_matrix
from .ranking import daniels_scores_strong, mean_score, score_basis
from .structure import (
    reachability_from_parametric,
    reachability_from_top_layers,
    source_knots_from_matrix,
    structural_top_reachability,
    support,
    top_reachability,
    top_reachability_by_threshold,
)

PARAMETRIC_TAUS = (0.1, 1.0, 10.0)
REACHABILITY_TAUS = (0.01, 1.0, 100.0)


def _check(name: str, passed: bool, detail: str = "") -> dict:
    entry = {"name": name, "pass": bool(passed)}
    if detail:
        entry["detail"] = detail
    return entry


def _numeric_rank(matrix: np.ndarray, rtol: float = 1e-8) -> int:
    """Singular values above rtol times the largest one."""
    s = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int((s > rtol * s[0]).sum())


def _knot_tree_columns(fs: ForestSet, knots: tuple[frozenset[int], ...]) -> list[np.ndarray]:
    """Per knot K, the normalized weights of K's spanning trees by root: the
    (|K| - 1)-arc forests of g whose arcs all lie in K."""
    columns = []
    for knot in knots:
        weights = [Fraction(0)] * fs.n
        for forest in fs.forests(len(knot) - 1):
            if all(a.tail in knot and a.head in knot for a in forest.arcs):
                weights[forest.tree_assignment[min(knot)] - 1] += forest.weight
        total = sum(weights)
        columns.append(np.array([float(w / total) for w in weights]))
    return columns


def verify_suite(g: Digraph) -> dict:
    """Run the full identity suite on one digraph; n is capped at
    enumeration size because the oracle must be able to see everything."""
    if g.n > MAX_VERTICES:
        raise ValueError(f"verification needs n <= {MAX_VERTICES}, got {g.n}")
    checks: list[dict] = []
    stack = forest_stack(g)
    lap = stack.lap
    fs = enumerate_out_forests(g)
    jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
    sk = source_knots(g)
    n = g.n
    lap_scale = max(1.0, float(np.abs(lap.entries).max()))

    # enumeration vs recurrence
    sigma_ok = len(stack.sigmas) - 1 == fs.max_arc_count
    q_ok = True
    for k in range(min(stack.m, fs.max_arc_count) + 1):
        sigma_exact = fs.sigma(k)
        scale = max(1.0, float(sigma_exact))
        sigma_ok &= abs(stack.sigmas[k] - float(sigma_exact)) <= 1e-10 * scale
        q_exact = np.array(forest_matrix(fs, k), dtype=float)
        q_ok &= float(np.abs(stack.q(k) - q_exact).max()) <= 1e-10 * scale
    checks.append(_check("forest-weights-match-enumeration", sigma_ok))
    checks.append(_check("forest-matrices-match-enumeration", q_ok))

    col_ok = all(
        float(np.abs(np.asarray(j, dtype=float).sum(axis=0) - 1.0).max()) <= 1e-9
        for j in stack.j_matrices
    )
    checks.append(_check("column-sums-stochastic", col_ok))

    # the resolvent route against the polynomial sum_k tau^k Q_k of the layers
    two_route = True
    for tau in PARAMETRIC_TAUS:
        pm = parametric_matrices(stack, lap, tau)
        powers = [tau**k for k in range(stack.m + 1)]
        sigma_poly = sum(p * s for p, s in zip(powers, stack.sigmas))
        q_poly = sum(p * q for p, q in zip(powers, stack.q_matrices))
        scale = max(1.0, abs(sigma_poly))
        two_route &= abs(pm.sigma_tau - sigma_poly) <= 1e-8 * scale
        two_route &= float(np.abs(pm.q_tau - q_poly).max()) <= 1e-8 * scale
    checks.append(_check("parametric-two-route", two_route))

    ann = max(
        float(np.abs(lap.entries @ jbar).max()),
        float(np.abs(jbar @ lap.entries).max()),
    )
    checks.append(_check("laplacian-annihilation", ann <= 1e-8 * lap_scale, f"max {ann:.2e}"))
    idem = float(np.abs(jbar @ jbar - jbar).max())
    checks.append(_check("projection-idempotent", idem <= 1e-8, f"max {idem:.2e}"))

    d_prime = sk.d_prime
    rank_jbar = _numeric_rank(jbar)
    rank_lap = _numeric_rank(lap.entries)
    checks.append(_check("ranks", rank_jbar == d_prime and rank_lap == n - d_prime,
                         f"rank Jbar {rank_jbar}, rank L {rank_lap}"))
    # the layer after J_m must vanish: rho_{m+1} = tr(L J_m) / (m + 1)
    next_rho = float(np.trace(lap.entries @ stack.j(stack.m))) / (stack.m + 1)
    rho_m = float(stack.rhos[-1]) if stack.m else 1.0
    checks.append(_check("dimension-structural-agreement", abs(next_rho) <= 1e-9 * n * rho_m))

    series_ok = True
    for k in range(stack.m + 1):
        scale = max(1.0, float(stack.sigmas[k]))
        series = forest_matrix_from_powers(stack, lap, k)
        series_ok &= float(np.abs(series - stack.q(k)).max()) <= 1e-8 * scale * n
    checks.append(_check("power-series-route", series_ok))

    # L_{k+1} = L Q_k, tr(L_k) = k sigma_k and L_{k+1} = L (tr(L_k)/k I - L_k)
    layer_tol = 1e-8 * n * max(1.0, float(max(stack.sigmas)), lap_scale)
    layers_ok = True
    layers = forest_digraph_laplacians(stack, lap)
    for k, lk in enumerate(layers, start=1):
        layers_ok &= float(np.abs(lk - lap.entries @ stack.q(k - 1)).max()) <= layer_tol
        layers_ok &= abs(np.trace(lk) - k * stack.sigmas[k]) <= layer_tol
        if k >= 2:
            prev = layers[k - 2]
            target = lap.entries @ ((np.trace(prev) / (k - 1)) * np.eye(n) - prev)
            layers_ok &= float(np.abs(lk - target).max()) <= layer_tol
    checks.append(_check("forest-laplacian-recurrences", layers_ok))

    reach = reachability_bfs(g)
    par_ok = all(
        np.array_equal(reachability_from_parametric(g, tau), reach)
        for tau in REACHABILITY_TAUS
    )
    checks.append(_check("reachability-parametric", par_ok))
    checks.append(_check("reachability-top-layers",
                         np.array_equal(reachability_from_top_layers(stack), reach)))
    rhat = structural_top_reachability(g).entries
    checks.append(_check("top-reachability",
                         np.array_equal(top_reachability(max_forest_matrix(stack)).entries, rhat)))
    checks.append(_check("knots-from-matrix",
                         source_knots_from_matrix(max_forest_matrix(stack)).as_sets() == sk.as_sets()))
    if g.unit_weights():
        checks.append(_check("threshold-top-reachability",
                             np.array_equal(top_reachability_by_threshold(g).entries, rhat)))

    # duality, re-derived from enumeration of the reversed digraph
    dual_ok = True
    p_out = out_accessibility(g, 1.0).entries
    p_in = in_accessibility(g, 1.0).entries
    dual_ok &= float(np.abs(p_out - in_accessibility(reverse(g), 1.0).entries.T).max()) <= 1e-12
    p_in_oracle = np.array(normalized_forest_matrix(enumerate_out_forests(reverse(g))), dtype=float).T
    dual_ok &= float(np.abs(p_in - p_in_oracle).max()) <= 1e-9
    checks.append(_check("duality", dual_ok))

    knot_ok = np.array_equal(support(jbar), rhat)
    for knot, plus in zip(sk.knots, sk.exclusive_reach):
        knot_ok &= abs(sum(jbar[k - 1, k - 1] for k in knot) - 1.0) <= 1e-9
        for k in knot:
            for j in plus:
                knot_ok &= abs(jbar[k - 1, j - 1] - jbar[k - 1, k - 1]) <= 1e-9
        members = sorted(knot)
        base = members[0]
        for other in members[1:]:
            ratio = jbar[other - 1, other - 1] / jbar[base - 1, base - 1]
            knot_ok &= float(np.abs(jbar[other - 1] - ratio * jbar[base - 1]).max()) <= 1e-9
    checks.append(_check("knot-structure", knot_ok))

    chain = inverse_corresponding_chain(g)
    limit = cesaro_limit(chain, tol=1e-8)
    ok, deviation = verify_tree_theorem(g, chain, limit)
    checks.append(_check("cesaro-tree-theorem", ok, f"max {deviation:.2e}"))

    mean = mean_score(g)
    checks.append(_check("mean-score-nullspace",
                         float(np.abs(lap.entries @ mean.values).max()) <= 1e-9 * lap_scale))
    basis = score_basis(g)
    tree_columns = _knot_tree_columns(fs, basis.knots)
    checks.append(_check("score-basis", len(basis.columns) == d_prime and all(
        float(np.abs(got - want).max()) <= 1e-9 for got, want in zip(basis.columns, tree_columns)
    )))
    if d_prime == 1 and len(sk.knots[0]) == n:
        scores = daniels_scores_strong(g).values
        checks.append(_check("spanning-tree-scores",
                             float(np.abs(scores - tree_columns[0]).max()) <= 1e-9))

    return {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
