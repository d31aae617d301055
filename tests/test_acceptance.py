"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; the corpus covers all 64 three-vertex
digraphs plus seeded random weighted and unit digraphs on 4..6 vertices.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from forestcalc import (
    Arc,
    Digraph,
    check_condition,
    column_laplacian,
    enumerate_out_forests,
    extend_path_to_forest,
    forest_matrix,
    forest_matrix_from_powers,
    forest_stack,
    max_forest_matrix,
    mean_score,
    out_accessibility,
    parametric_matrices,
    reachability_bfs,
    reachability_from_parametric,
    reachability_from_top_layers,
    score_basis,
    sign_pattern,
    source_knots,
    source_knots_from_matrix,
    top_reachability,
    top_reachability_by_threshold,
    uniform_start_distribution,
    cesaro_limit,
    inverse_corresponding_chain,
    verify_tree_theorem,
    dissemination_estimate,
)
from forestcalc.oracle import normalized_forest_matrix
from forestcalc.structure import structural_top_reachability
from forestcalc.verification import _numeric_rank

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def _report(num: int, name: str, failures: list, detail: str = ""):
    ok = not failures
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} {name}: {failures[:5]}"


def test_criterion_01_oracle_equivalence(corpus):
    failures = []
    started = time.perf_counter()
    assert len(corpus) >= 30
    for g in corpus:
        stack = forest_stack(g)
        fs = enumerate_out_forests(g)
        if stack.m != fs.max_arc_count:
            failures.append((g, "layer count"))
            continue
        for k in range(stack.m + 1):
            sigma_exact = fs.sigma(k)
            scale = max(1.0, float(sigma_exact))
            if abs(stack.sigmas[k] - float(sigma_exact)) > 1e-10 * scale:
                failures.append((g, k, "sigma"))
            q_exact = np.array(forest_matrix(fs, k), dtype=float)
            if np.abs(stack.q(k) - q_exact).max() > 1e-10 * scale:
                failures.append((g, k, "matrix"))
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(1, "oracle equivalence", failures, f"{len(corpus)} digraphs in {elapsed:.1f}s")


def test_criterion_02_projection_identities(corpus):
    failures = []
    for g in corpus:
        stack = forest_stack(g)
        lap = column_laplacian(g)
        eye = np.eye(g.n)
        jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
        d_prime = source_knots(g).d_prime
        # item 1: column stochasticity of every normalized layer
        for j in stack.j_matrices:
            if np.abs(np.asarray(j, dtype=float).sum(axis=0) - 1.0).max() > 1e-9:
                failures.append((g, "column sums"))
        # item 2: polynomial route equals resolvent route
        for tau in (0.1, 1.0, 10.0):
            pm = parametric_matrices(stack, lap, tau)
            system = eye + tau * lap.entries
            det = float(np.linalg.det(system))
            if abs(pm.sigma_tau - det) > 1e-8 * max(1.0, abs(det)):
                failures.append((g, tau, "sigma vs det"))
            adj = det * np.linalg.inv(system)
            if np.abs(np.asarray(pm.q_tau, dtype=float) - adj).max() > 1e-8 * max(1.0, abs(det)):
                failures.append((g, tau, "q vs adjugate"))
            if np.abs(np.asarray(pm.j_tau, dtype=float).sum(axis=0) - 1.0).max() > 1e-9:
                failures.append((g, tau, "parametric column sums"))
        # items 3, 4: annihilation and idempotence
        scale = max(1.0, float(np.abs(lap.entries).max()))
        if max(np.abs(lap.entries @ jbar).max(), np.abs(jbar @ lap.entries).max()) > 1e-8 * scale:
            failures.append((g, "annihilation"))
        if np.abs(jbar @ jbar - jbar).max() > 1e-8:
            failures.append((g, "idempotence"))
        # item 5: resolvent limit, unit weights
        if g.unit_weights():
            deviations = []
            for tau in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6):
                resolvent = np.linalg.solve(eye + tau * lap.entries, eye)
                deviations.append(float(np.abs(resolvent - jbar).max()))
            if any(b > a * (1 + 1e-9) + 1e-12 for a, b in zip(deviations, deviations[1:])):
                failures.append((g, "limit not decreasing", deviations))
            if deviations[-1] >= 1e-4:
                failures.append((g, "limit at 1e6", deviations[-1]))
        # item 6: numeric ranks via singular values above 1e-8 of the largest
        if _numeric_rank(jbar) != d_prime:
            failures.append((g, "rank of projection"))
        if _numeric_rank(lap.entries) != g.n - d_prime:
            failures.append((g, "rank of laplacian"))
        # item 7: power-series route against the recurrence
        for k in range(stack.m + 1):
            series = forest_matrix_from_powers(stack, lap, k)
            if np.abs(series - stack.q(k)).max() > 1e-8 * max(1.0, float(stack.sigmas[k])) * g.n:
                failures.append((g, k, "power series"))
        # item 8: eigenprojection behavior
        if np.abs(jbar @ jbar - jbar).max() > 1e-8 or np.abs(jbar @ lap.entries).max() > 1e-8 * scale:
            failures.append((g, "eigenprojection"))
    _report(2, "projection identity suite", failures)


def test_criterion_03_knot_structure(corpus):
    failures = []
    for g in corpus:
        jbar = np.asarray(max_forest_matrix(forest_stack(g)).entries, dtype=float)
        sk = source_knots(g)
        reach = reachability_bfs(g)
        pattern = sign_pattern(jbar)
        for i in g.vertices:
            for j in g.vertices:
                expected = 1 if (i in sk.union and reach[i - 1, j - 1]) else 0
                if pattern[i - 1, j - 1] != expected:
                    failures.append((g, i, j, "sign pattern"))
        for knot, plus in zip(sk.knots, sk.exclusive_reach):
            if abs(sum(jbar[k - 1, k - 1] for k in knot) - 1.0) > 1e-9:
                failures.append((g, knot, "diagonal sum"))
            for k in knot:
                if len(knot) == 1 and not g.in_adj[k]:
                    if abs(jbar[k - 1, k - 1] - 1.0) > 1e-9:
                        failures.append((g, k, "source diagonal"))
                for j in plus:
                    if abs(jbar[k - 1, j - 1] - jbar[k - 1, k - 1]) > 1e-9:
                        failures.append((g, k, j, "exclusive reach value"))
            members = sorted(knot)
            for other in members[1:]:
                ratio = jbar[other - 1, other - 1] / jbar[members[0] - 1, members[0] - 1]
                residual = np.abs(jbar[other - 1] - ratio * jbar[members[0] - 1]).max()
                if residual > 1e-9:
                    failures.append((g, knot, "row proportionality", residual))
    _report(3, "knot structure suite", failures)


def test_criterion_04_reachability(corpus):
    failures = []
    for g in corpus:
        reach = reachability_bfs(g)
        stack = forest_stack(g)
        for tau in (0.01, 1.0, 100.0):
            if not np.array_equal(reachability_from_parametric(g, tau), reach):
                failures.append((g, tau, "parametric"))
        if not np.array_equal(reachability_from_top_layers(stack), reach):
            failures.append((g, "top layers"))
        rhat = structural_top_reachability(g).entries
        if not np.array_equal(top_reachability(max_forest_matrix(stack)).entries, rhat):
            failures.append((g, "top reachability"))
        if source_knots_from_matrix(max_forest_matrix(stack)).as_sets() != source_knots(g).as_sets():
            failures.append((g, "mutual top reachability partition"))
        if g.unit_weights() and g.n <= 6:
            if not np.array_equal(top_reachability_by_threshold(g).entries, rhat):
                failures.append((g, "exact threshold"))
    _report(4, "reachability suite", failures)


def _simple_paths(g, start, end):
    if start == end:
        yield (start,)
        return
    stack = [(start, (start,))]
    while stack:
        v, path = stack.pop()
        for w in sorted(g.out_adj[v], reverse=True):
            if w in path:
                continue
            if w == end:
                yield path + (w,)
            else:
                stack.append((w, path + (w,)))


def test_criterion_05_path_extension(small_corpus):
    failures = []
    for g in small_corpus:
        if g.n > 5:
            continue
        fs = enumerate_out_forests(g)
        d_prime = fs.dimension
        max_forests = fs.forests(g.n - d_prime)
        all_pairs = {
            k: {f.arc_pairs for f in fs.forests(k)} for k in fs.by_arc_count
        }
        reach = reachability_bfs(g)
        for i in g.vertices:
            for j in g.vertices:
                if not reach[i - 1, j - 1]:
                    continue
                for path in _simple_paths(g, i, j):
                    path_arcs = set(zip(path, path[1:]))
                    for f_max in max_forests:
                        result = extend_path_to_forest(g, path, f_max)
                        size = len(result.arcs)
                        if size not in (g.n - d_prime, g.n - d_prime - 1):
                            failures.append((g, path, "size", size))
                        elif result.arc_pairs not in all_pairs.get(size, set()):
                            failures.append((g, path, "not an enumerated forest"))
                        if not path_arcs <= result.arc_pairs:
                            failures.append((g, path, "path lost"))
                        if result.tree_assignment[j] != i:
                            failures.append((g, path, "rooting"))
    _report(5, "path extension into top forest layers", failures)


def test_criterion_06_accessibility_conditions(corpus, p3):
    failures = []
    partitioned = ("self-accessibility", "triangle-inequality", "transit-property",
                   "monotonicity", "convexity")
    for g in corpus:
        for tau in (0.1, 1.0, 10.0):
            for direction, half in (("out", "A"), ("in", "B")):
                for condition in ("nonnegativity", "reachability-condition"):
                    rep = check_condition(g, condition, direction=direction, tau=tau)
                    if not rep.passed:
                        failures.append((g, tau, direction, condition, rep.witness))
                for condition in partitioned:
                    rep = check_condition(
                        g, condition, direction=direction, tau=tau, variant=half, mode="strict"
                    )
                    if not rep.passed:
                        failures.append((g, tau, direction, condition, rep.witness))
    # limiting measures: nonstrict forms hold corpus-wide
    for g in corpus:
        for direction, half in (("out", "A"), ("in", "B")):
            if not check_condition(g, "nonnegativity", direction=direction, tau=math.inf).passed:
                failures.append((g, direction, "limit nonnegativity"))
            if not check_condition(
                g, "reachability-condition", direction=direction, tau=math.inf, variant="backward"
            ).passed:
                failures.append((g, direction, "limit reachability backward"))
            if not check_condition(
                g, "triangle-inequality", direction=direction, tau=math.inf, variant=half
            ).passed:
                failures.append((g, direction, "limit triangle"))
            for condition in ("self-accessibility", "transit-property", "monotonicity", "convexity"):
                rep = check_condition(
                    g, condition, direction=direction, tau=math.inf, variant=half, mode="nonstrict"
                )
                if not rep.passed:
                    failures.append((g, direction, "limit nonstrict", condition, rep.witness))
    # prescribed strict-form failures on the two-arc path digraph
    if check_condition(p3, "reachability-condition", tau=math.inf, variant="forward").passed:
        failures.append(("p3", "forward reachability should fail"))
    if out_accessibility(p3, math.inf).entries[1, 2] != 0.0:
        failures.append(("p3", "entry (2,3) should vanish"))
    for condition in ("self-accessibility", "transit-property", "monotonicity", "convexity"):
        if check_condition(p3, condition, tau=math.inf, variant="A", mode="strict").passed:
            failures.append(("p3", condition, "strict form should fail"))
    _report(6, "accessibility condition suites", failures)


def test_criterion_07_cesaro_limits(corpus):
    failures = []
    for g in corpus:
        default_alpha = inverse_corresponding_chain(g).alpha
        for alpha in (default_alpha, 0.5 * default_alpha):
            chain = inverse_corresponding_chain(g, alpha)
            limit = cesaro_limit(chain, tol=1e-8)
            ok, deviation = verify_tree_theorem(g, chain, limit, tol=1e-6)
            if not ok:
                failures.append((g, alpha, deviation))
            if alpha == default_alpha:
                via_chain = limit.matrix.T @ np.full(g.n, 1.0 / g.n)
                if np.abs(mean_score(g).values - via_chain).max() > 1e-6:
                    failures.append((g, "mean score vs uniform-start chain limit"))
        if np.abs(uniform_start_distribution(g) - mean_score(g).values).max() > 1e-8:
            failures.append((g, "uniform start vs mean score"))
    _report(7, "Cesaro limit suite", failures)


def _knot_tree_weights(g, knot):
    """Spanning-tree weight of each root of the knot's induced subgraph,
    normalized to sum 1, as a column over all of g's vertices."""
    column = np.zeros(g.n)
    if len(knot) == 1:
        column[min(knot) - 1] = 1.0
        return column
    ids = sorted(knot)
    index = {old: new for new, old in enumerate(ids, start=1)}
    sub = Digraph(len(ids), tuple(Arc(index[a.tail], index[a.head], a.weight)
                                  for a in g.arcs if a.tail in index and a.head in index))
    weights = {v: Fraction(0) for v in knot}
    for tree in enumerate_out_forests(sub).forests(len(knot) - 1):
        (root,) = tree.roots
        weights[ids[root - 1]] += tree.weight
    total = sum(weights.values())
    for v, w in weights.items():
        column[v - 1] = float(w / total)
    return column


def test_criterion_08_score_basis(corpus):
    failures = []
    for g in corpus:
        lap = column_laplacian(g).entries
        basis = score_basis(g)
        if len(basis.columns) != source_knots(g).d_prime:
            failures.append((g, "dimension"))
        for knot, column in zip(basis.knots, basis.columns):
            if np.abs(column - _knot_tree_weights(g, knot)).max() > 1e-9:
                failures.append((g, sorted(knot), "tree weights"))
        for v in basis.columns:
            if np.abs(lap @ v).max() > 1e-9:
                failures.append((g, "nullspace residual"))
        for a in range(len(basis.columns)):
            for b in range(a + 1, len(basis.columns)):
                if abs(float(basis.columns[a] @ basis.columns[b])) > 1e-12:
                    failures.append((g, "orthogonality"))
    _report(8, "score basis suite", failures)


def test_criterion_09_dissemination():
    failures = []
    started = time.perf_counter()
    cases = [
        Digraph.build(3, [(1, 2), (2, 3)]),
        Digraph.build(3, [(1, 2, Fraction(1, 2)), (2, 3, Fraction(1, 2))]),
        Digraph.build(2, [(1, 2), (2, 1)]),
        Digraph.build(2, [(1, 2, Fraction(1, 2)), (2, 1, 1)]),
    ]
    for g in cases:
        est = dissemination_estimate(g, 100000, seed=1234)
        again = dissemination_estimate(g, 100000, seed=1234)
        if not (np.array_equal(est.estimate, again.estimate) and est.successes == again.successes):
            failures.append((g, "not reproducible"))
        target = np.array(normalized_forest_matrix(enumerate_out_forests(g)), dtype=float)
        for i in range(g.n):
            for j in range(g.n):
                p = target[i, j]
                bound = 4 * math.sqrt(p * (1 - p) / est.successes)
                if abs(est.estimate[i, j] - p) > bound:
                    failures.append((g, i + 1, j + 1, est.estimate[i, j], p))
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(9, "dissemination Monte-Carlo", failures, f"{elapsed:.1f}s")


def test_criterion_10_cli_determinism():
    failures = []
    for name in ("p3.txt", "two_sources.txt", "cycle2.txt", "weighted.txt"):
        args = [sys.executable, "-m", "forestcalc", "verify", "--input", str(SAMPLES / name)]
        first = subprocess.run(args, capture_output=True, text=True)
        second = subprocess.run(args, capture_output=True, text=True)
        if first.returncode != 0:
            failures.append((name, "exit code", first.returncode))
            continue
        doc = json.loads(first.stdout)
        if not doc["all_pass"]:
            failures.append((name, [c for c in doc["checks"] if not c["pass"]]))
        if first.stdout != second.stdout:
            failures.append((name, "not byte identical"))
    _report(10, "CLI verification determinism", failures)
