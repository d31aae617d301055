import math
import random

import numpy as np
import pytest

from forestcalc import (
    Digraph,
    forest_stack,
    max_forest_matrix,
    reachability_bfs,
    reachability_from_parametric,
    reachability_from_top_layers,
    sign_pattern,
    source_knots,
    source_knots_from_matrix,
    top_reachability,
    top_reachability_by_threshold,
)
from forestcalc.structure import structural_top_reachability
from forestcalc.verification import REACHABILITY_TAUS

from conftest import seeded_weighted_digraph


def jbar_of(g):
    return max_forest_matrix(forest_stack(g))


def test_sign_pattern_threshold():
    m = np.array([[1.0, 1e-12], [0.0, 0.5]])
    assert sign_pattern(m).tolist() == [[1, 0], [0, 1]]


class TestParametricReachability:
    def test_p3(self, p3):
        assert reachability_from_parametric(p3, 1.0).tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_strong_all_ones(self, cycle2):
        assert reachability_from_parametric(cycle2, 1.0).tolist() == [[1, 1], [1, 1]]

    def test_edgeless_identity(self, edgeless4):
        assert np.array_equal(reachability_from_parametric(edgeless4, 2.0), np.eye(4, dtype=int))

    def test_matches_bfs_across_corpus_and_tau(self, corpus):
        for g in corpus:
            r = reachability_bfs(g)
            for tau in (0.01, 1.0, 100.0):
                assert np.array_equal(reachability_from_parametric(g, tau), r)

    def test_rejects_nonpositive_tau(self, p3):
        with pytest.raises(ValueError):
            reachability_from_parametric(p3, -1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0])
    def test_rejects_nan_and_infinite_tau(self, p3, tau):
        with pytest.raises(ValueError):
            reachability_from_parametric(p3, tau)

    def test_small_tau_keeps_long_paths(self, path6):
        # J(0.01)[1, 6] is about 1e-10, far below any cutoff relative to the diagonal
        assert reachability_from_parametric(path6, 0.01)[0, 5] == 1
        assert np.array_equal(reachability_from_parametric(path6, 0.01), reachability_bfs(path6))

    def test_matches_bfs_on_seeded_weighted_digraphs(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(6, 7)
            g = seeded_weighted_digraph(rng, n, rng.randint(n, 12))
            r = reachability_bfs(g)
            for tau in REACHABILITY_TAUS:
                assert np.array_equal(reachability_from_parametric(g, tau), r)


class TestTopLayerReachability:
    def test_p3(self, p3):
        got = reachability_from_top_layers(forest_stack(p3))
        assert got.tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_two_sources(self, two_sources):
        got = reachability_from_top_layers(forest_stack(two_sources))
        assert got.tolist() == [[1, 0, 1], [0, 1, 1], [0, 0, 1]]

    def test_edgeless_single_layer(self, edgeless4):
        assert np.array_equal(reachability_from_top_layers(forest_stack(edgeless4)), np.eye(4, dtype=int))

    def test_matches_bfs_across_corpus(self, corpus):
        for g in corpus:
            assert np.array_equal(reachability_from_top_layers(forest_stack(g)), reachability_bfs(g))


class TestTopReachability:
    def test_p3(self, p3):
        assert top_reachability(jbar_of(p3)).entries.tolist() == [[1, 1, 1], [0, 0, 0], [0, 0, 0]]

    def test_cycle2_all_ones(self, cycle2):
        assert top_reachability(jbar_of(cycle2)).entries.tolist() == [[1, 1], [1, 1]]

    def test_two_sources(self, two_sources):
        assert top_reachability(jbar_of(two_sources)).entries.tolist() == [
            [1, 0, 1],
            [0, 1, 1],
            [0, 0, 0],
        ]

    def test_matches_structural_across_corpus(self, corpus):
        for g in corpus:
            assert np.array_equal(
                top_reachability(jbar_of(g)).entries,
                structural_top_reachability(g).entries,
            )

    def test_nonzero_rows_exactly_at_knot_vertices(self, corpus):
        for g in corpus:
            entries = top_reachability(jbar_of(g)).entries
            union = source_knots(g).union
            for i in g.vertices:
                assert entries[i - 1].any() == (i in union)


class TestKnotsFromMatrix:
    def test_cycle2(self, cycle2):
        assert source_knots_from_matrix(jbar_of(cycle2)).as_sets() == {frozenset({1, 2})}

    def test_two_sources(self, two_sources):
        sk = source_knots_from_matrix(jbar_of(two_sources))
        assert sk.as_sets() == {frozenset({1}), frozenset({2})}
        assert sk.exclusive_reach == (frozenset({1}), frozenset({2}))

    def test_edgeless(self, edgeless4):
        assert source_knots_from_matrix(jbar_of(edgeless4)).d_prime == 4

    def test_matches_structural_partition(self, corpus):
        for g in corpus:
            from_matrix = source_knots_from_matrix(jbar_of(g))
            structural = source_knots(g)
            assert from_matrix.as_sets() == structural.as_sets()
            assert from_matrix.exclusive_reach == structural.exclusive_reach
            assert from_matrix.union == structural.union


class TestThresholdTopReachability:
    def test_p3(self, p3):
        got = top_reachability_by_threshold(p3)
        assert got.entries.tolist() == [[1, 1, 1], [0, 0, 0], [0, 0, 0]]

    def test_cycle2(self, cycle2):
        assert top_reachability_by_threshold(cycle2).entries.tolist() == [[1, 1], [1, 1]]

    def test_edgeless(self, edgeless4):
        assert np.array_equal(top_reachability_by_threshold(edgeless4).entries, np.eye(4, dtype=int))

    def test_rejects_weighted_input(self):
        g = Digraph.build(2, [(1, 2, 0.5)])
        with pytest.raises(ValueError):
            top_reachability_by_threshold(g)

    def test_matches_sign_of_projection_on_unit_corpus(self, corpus):
        for g in corpus:
            if not g.unit_weights() or g.n > 6:
                continue
            assert np.array_equal(
                top_reachability_by_threshold(g).entries,
                top_reachability(jbar_of(g)).entries,
            )
