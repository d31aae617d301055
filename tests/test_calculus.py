import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestcalc import (
    Digraph,
    ForestMatrixStack,
    RecurrenceBreakdownError,
    column_laplacian,
    dense_forest_matrix,
    enumerate_out_forests,
    forest_digraph_laplacians,
    forest_dimension,
    forest_matrix_from_powers,
    forest_recurrence,
    forest_stack,
    in_forest_stack,
    load_digraph,
    max_forest_matrix,
    parametric_matrices,
    reverse,
    source_knots,
)
from forestcalc.laplacian import LaplacianMatrix, row_laplacian
from forestcalc.structure import structural_top_reachability

from conftest import NAN_JBAR_N3, seeded_weighted_digraph
from test_digraph import digraphs

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


class TestRecurrence:
    def test_p3_stack(self, p3):
        stack = forest_stack(p3)
        assert np.allclose(stack.sigmas, [1, 2, 1])
        assert np.allclose(stack.q(1), [[2, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert np.allclose(stack.q(2), [[1, 1, 1], [0, 0, 0], [0, 0, 0]])
        assert stack.d_prime == 1

    def test_cycle2_stack(self, cycle2):
        stack = forest_stack(cycle2)
        assert np.allclose(stack.sigmas, [1, 2])
        assert np.allclose(stack.q(1), [[1, 1], [1, 1]])
        assert stack.d_prime == 1

    def test_edgeless_stack(self, edgeless4):
        stack = forest_stack(edgeless4)
        assert stack.m == 0
        assert np.array_equal(stack.q(0), np.eye(4))
        assert stack.d_prime == 4

    def test_exact_mode_is_exact(self, p3):
        stack = forest_stack(p3, exact=True)
        assert stack.sigmas == (Fraction(1), Fraction(2), Fraction(1))
        assert stack.q(2).tolist()[0] == [Fraction(1)] * 3

    def test_rejects_row_laplacian(self, p3):
        with pytest.raises(ValueError):
            forest_recurrence(row_laplacian(p3))

    def test_negative_trace_breaks_down(self, p3):
        fake = LaplacianMatrix(-column_laplacian(p3).entries, "column")
        with pytest.raises(RecurrenceBreakdownError):
            forest_recurrence(fake)

    def test_matches_oracle_exactly_in_exact_mode(self, three_vertex_corpus):
        for g in three_vertex_corpus:
            stack = forest_stack(g, exact=True)
            fs = enumerate_out_forests(g)
            assert stack.m == fs.max_arc_count
            for k in range(stack.m + 1):
                assert stack.sigmas[k] == fs.sigma(k)

    @settings(max_examples=25, deadline=None)
    @given(digraphs(max_n=5))
    def test_columns_of_every_layer_sum_to_one(self, g):
        stack = forest_stack(g)
        for j in stack.j_matrices:
            assert np.allclose(np.asarray(j, dtype=float).sum(axis=0), 1.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(digraphs(max_n=5))
    def test_dimension_matches_structure(self, g):
        assert forest_dimension(forest_stack(g), g) == source_knots(g).d_prime

    def test_structural_stop_on_old_failures(self, recurrence_failures):
        # the old cutoff stopped early (wrong-from-n8) or let roundoff through
        # as a layer m = n (roundoff-layer-n8)
        for g in recurrence_failures.values():
            stack = forest_recurrence(column_laplacian(g))
            assert stack.m == g.n - source_knots(g).d_prime
            assert len(stack.sigmas) == stack.m + 1
            for got, sigma in zip(stack.sigmas, forest_stack(g, exact=True).sigmas):
                assert abs(got - float(sigma)) <= 1e-10 * max(1.0, float(sigma))

    def test_knots_of_the_pattern_of_l_are_the_digraphs(self, corpus):
        for g in corpus:
            for exact in (False, True):
                assert forest_stack(g, exact=exact).knots == source_knots(g)

    def test_knots_of_a_long_path(self):
        n = 1500
        stack = ForestMatrixStack(column_laplacian(Digraph.build(n, [(i, i + 1) for i in range(1, n)])))
        assert stack.knots.knots == (frozenset({1}),)

    def test_layers_run_only_when_read(self):
        stack = ForestMatrixStack(column_laplacian(Digraph.build(3, [(1, 2), (2, 3), (3, 2)])))
        max_forest_matrix(stack)
        assert "_layers" not in vars(stack)
        stack.sigmas
        assert "_layers" in vars(stack)


class TestParametric:
    def test_p3_at_one(self, p3):
        pm = parametric_matrices(forest_stack(p3), column_laplacian(p3), 1.0)
        assert pm.sigma_tau == pytest.approx(4.0)
        expected = np.array([[4, 2, 1], [0, 2, 1], [0, 0, 2]]) / 4
        assert np.allclose(pm.j_tau, expected)

    def test_edgeless_identity(self, edgeless4):
        for tau in (0.5, 1.0, 3.0):
            pm = parametric_matrices(forest_stack(edgeless4), column_laplacian(edgeless4), tau)
            assert np.allclose(pm.j_tau, np.eye(4))

    def test_column_stochastic_for_various_tau(self, corpus):
        for g in corpus[:20]:
            stack = forest_stack(g)
            lap = column_laplacian(g)
            for tau in (0.1, 1.0, 10.0):
                pm = parametric_matrices(stack, lap, tau)
                assert np.allclose(np.asarray(pm.j_tau, dtype=float).sum(axis=0), 1.0, atol=1e-9)

    def test_exact_parametric(self, p3):
        stack = forest_stack(p3, exact=True)
        pm = parametric_matrices(stack, column_laplacian(p3, exact=True), Fraction(1))
        assert pm.sigma_tau == 4
        assert pm.j_tau[0, 2] == Fraction(1, 4)

    def test_rejects_nonpositive_tau(self, p3):
        with pytest.raises(ValueError):
            parametric_matrices(forest_stack(p3), column_laplacian(p3), 0.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_nan_and_infinite_tau(self, p3, tau):
        with pytest.raises(ValueError):
            parametric_matrices(forest_stack(p3), column_laplacian(p3), tau)


class TestMaxForestMatrix:
    def test_p3(self, p3):
        assert np.allclose(
            max_forest_matrix(forest_stack(p3)).entries,
            [[1, 1, 1], [0, 0, 0], [0, 0, 0]],
        )

    def test_cycle2(self, cycle2):
        assert np.allclose(max_forest_matrix(forest_stack(cycle2)).entries, np.full((2, 2), 0.5))

    def test_two_sources(self, two_sources):
        expected = np.array([[2, 0, 1], [0, 2, 1], [0, 0, 0]]) / 2
        assert np.allclose(max_forest_matrix(forest_stack(two_sources)).entries, expected)

    def test_exact_projection_is_the_top_layer(self, three_vertex_corpus):
        for g in three_vertex_corpus:
            stack = forest_stack(g, exact=True)
            assert max_forest_matrix(stack).entries.tolist() == stack.j(stack.m).tolist()

    def test_entries_within_unit_interval_on_old_failures(self, recurrence_failures):
        for g in recurrence_failures.values():
            jbar = max_forest_matrix(forest_stack(g)).entries
            assert jbar.min() >= 0.0 and jbar.max() <= 1.0

    def test_independent_of_weight_scale(self):
        text = (SAMPLES / "weighted.txt").read_text()
        g = load_digraph(text)
        scaled = Digraph.build(g.n, [(a.tail, a.head, a.weight * 10**6) for a in g.arcs])
        unscaled = max_forest_matrix(forest_stack(g)).entries
        assert np.abs(max_forest_matrix(forest_stack(scaled)).entries - unscaled).max() <= 1e-12

    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_projection_identities_at_scale(self, n):
        rng = random.Random(n)
        for arc_count in (n, 2 * n, 3 * n):
            g = seeded_weighted_digraph(rng, n, arc_count)
            stack = forest_stack(g)
            jbar = max_forest_matrix(stack).entries
            lap = stack.lap.entries
            assert np.abs(jbar @ jbar - jbar).max() <= 1e-12
            assert np.abs(lap @ jbar).max() <= 1e-12
            assert np.abs(jbar @ lap).max() <= 1e-12
            assert np.abs(jbar.sum(axis=0) - 1.0).max() <= 1e-12
            assert np.array_equal((jbar > 0).astype(int), structural_top_reachability(g).entries)

    def test_non_finite_entries_raise(self):
        stack = ForestMatrixStack(column_laplacian(load_digraph(NAN_JBAR_N3)))
        with pytest.raises(ArithmeticError), np.errstate(invalid="ignore"):
            max_forest_matrix(stack)

    def test_idempotent_and_annihilated(self, corpus):
        for g in corpus:
            jbar = np.asarray(max_forest_matrix(forest_stack(g)).entries, dtype=float)
            lap = column_laplacian(g).entries
            assert np.abs(jbar @ jbar - jbar).max() < 1e-8
            assert np.abs(lap @ jbar).max() < 1e-8
            assert np.abs(jbar @ lap).max() < 1e-8


class TestPowerSeriesRoute:
    def test_p3_layer_one(self, p3):
        got = forest_matrix_from_powers(forest_stack(p3), column_laplacian(p3), 1)
        assert np.allclose(got, [[2, 1, 0], [0, 1, 1], [0, 0, 1]])

    def test_layer_zero_is_identity(self, two_sources):
        got = forest_matrix_from_powers(forest_stack(two_sources), column_laplacian(two_sources), 0)
        assert np.array_equal(got, np.eye(3))

    def test_cycle2_layer_one(self, cycle2):
        got = forest_matrix_from_powers(forest_stack(cycle2), column_laplacian(cycle2), 1)
        assert np.allclose(got, [[1, 1], [1, 1]])

    def test_out_of_range(self, p3):
        with pytest.raises(ValueError):
            forest_matrix_from_powers(forest_stack(p3), column_laplacian(p3), 3)

    def test_exact_route_equals_the_recurrence(self, three_vertex_corpus):
        for g in three_vertex_corpus:
            stack = forest_stack(g, exact=True)
            for k in range(stack.m + 1):
                assert np.array_equal(forest_matrix_from_powers(stack, stack.lap, k), stack.q(k))


class TestForestDigraphLaplacians:
    def test_p3_values(self, p3):
        lap = column_laplacian(p3)
        layers = forest_digraph_laplacians(forest_stack(p3), lap)
        assert np.allclose(layers[0], lap.entries)  # L_1 = 2I - Q_1 = L Q_0
        assert np.trace(layers[1]) == pytest.approx(2.0)  # tr(L_2) = 2 sigma_2

    def test_edgeless_empty(self, edgeless4):
        assert forest_digraph_laplacians(forest_stack(edgeless4), column_laplacian(edgeless4)) == ()

    def test_exact_recurrences_hold_exactly(self, three_vertex_corpus):
        for g in three_vertex_corpus:
            stack = forest_stack(g, exact=True)
            L = stack.lap.entries
            layers = forest_digraph_laplacians(stack, stack.lap)
            for k, lk in enumerate(layers, start=1):
                assert np.array_equal(lk, L @ stack.q(k - 1))
                assert np.trace(lk) == k * stack.sigmas[k]
                if k >= 2:
                    prev = layers[k - 2]
                    scalar = np.trace(prev) / (k - 1) * np.eye(g.n, dtype=object)
                    assert np.array_equal(lk, L @ (scalar - prev))

    def test_verifications_hold_on_corpus(self, corpus):
        for g in corpus:
            stack = forest_stack(g)
            L = column_laplacian(g).entries
            eye = np.eye(g.n)
            layers = forest_digraph_laplacians(stack, column_laplacian(g))
            assert len(layers) == stack.m
            for k, lk in enumerate(layers, start=1):
                tol = 1e-9 * max(1.0, float(stack.sigmas[k]))
                assert np.abs(lk - L @ stack.q(k - 1)).max() <= tol
                assert abs(np.trace(lk) - k * stack.sigmas[k]) <= tol
                if k >= 2:
                    prev = layers[k - 2]
                    assert np.abs(lk - L @ (np.trace(prev) / (k - 1) * eye - prev)).max() <= tol


class TestDenseForestMatrix:
    def test_p3_closed_form(self, p3):
        stack = forest_stack(p3)
        jbar = max_forest_matrix(stack)
        got = dense_forest_matrix(jbar, 0.25, stack)
        expected = np.eye(3) - 0.2 * np.asarray(jbar.entries, dtype=float)
        assert np.allclose(got, expected)
        assert np.allclose(got, np.linalg.inv(np.eye(3) + 0.25 * np.asarray(jbar.entries, dtype=float)))

    def test_matches_direct_inverse_on_corpus(self, corpus):
        for g in corpus:
            stack = forest_stack(g)
            jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
            alpha = 0.5 * float(stack.rhos[-1]) if stack.m else 3.0
            direct = np.linalg.inv(np.eye(g.n) + alpha * jbar)
            assert np.abs(dense_forest_matrix(max_forest_matrix(stack), alpha, stack) - direct).max() < 1e-12

    def test_alpha_at_weight_ratio_rejected(self, p3):
        # sigma_2 / sigma_1 = 1/2 caps the admissible interval
        stack = forest_stack(p3)
        with pytest.raises(ValueError):
            dense_forest_matrix(max_forest_matrix(stack), 0.5, stack)
        with pytest.raises(ValueError):
            dense_forest_matrix(max_forest_matrix(stack), -1.0, stack)

    def test_edgeless_admits_any_alpha(self, edgeless4):
        stack = forest_stack(edgeless4)
        got = dense_forest_matrix(max_forest_matrix(stack), 9.0, stack)
        assert np.allclose(got, np.eye(4) / 10)

    def test_small_alpha_tends_to_identity(self, cycle2):
        stack = forest_stack(cycle2)
        got = dense_forest_matrix(max_forest_matrix(stack), 1e-9, stack)
        assert np.allclose(got, np.eye(2), atol=1e-8)


class TestInForestStack:
    def test_p3_equals_reversed_out_stack(self, p3):
        direct = in_forest_stack(p3)
        rev = forest_stack(reverse(p3))
        assert direct.sigmas == rev.sigmas
        assert all(np.array_equal(a, b) for a, b in zip(direct.j_matrices, rev.j_matrices))

    def test_symmetric_digraph_keeps_sigmas(self, cycle2):
        assert in_forest_stack(cycle2).sigmas == forest_stack(cycle2).sigmas

    def test_entries_count_converging_forests(self, three_vertex_corpus):
        # independent route: enumerate converging forests directly via
        # out-degree <= 1 + acyclicity, classifying by the root each vertex
        # drains to
        for g in three_vertex_corpus[:16]:
            stack = in_forest_stack(g, exact=True)
            arcs = g.arcs
            totals = {}
            for mask in range(1 << len(arcs)):
                subset = [arcs[b] for b in range(len(arcs)) if mask >> b & 1]
                nxt = {}
                ok = True
                for a in subset:
                    if a.tail in nxt:
                        ok = False
                        break
                    nxt[a.tail] = a.head
                if not ok:
                    continue
                sinks = {}
                for v in g.vertices:
                    seen = set()
                    u = v
                    while u in nxt:
                        if u in seen:
                            ok = False
                            break
                        seen.add(u)
                        u = nxt[u]
                    if not ok:
                        break
                    sinks[v] = u
                if not ok:
                    continue
                weight = Fraction(1)
                for a in subset:
                    weight *= a.weight
                k = len(subset)
                for v, sink in sinks.items():
                    totals[(k, v, sink)] = totals.get((k, v, sink), Fraction(0)) + weight
            for k in range(stack.m + 1):
                q_t = stack.q(k).T
                for i in g.vertices:
                    for j in g.vertices:
                        assert q_t[i - 1, j - 1] == totals.get((k, i, j), Fraction(0))


class TestLimitBehavior:
    def test_parametric_tends_to_projection(self, p3):
        stack = forest_stack(p3)
        lap = column_laplacian(p3)
        jbar = np.asarray(max_forest_matrix(stack).entries, dtype=float)
        deviations = []
        for tau in (10.0, 100.0, 1000.0):
            pm = parametric_matrices(stack, lap, tau)
            deviations.append(np.abs(np.asarray(pm.j_tau, dtype=float) - jbar).max())
        assert deviations[0] > deviations[1] > deviations[2]
