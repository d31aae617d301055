import numpy as np
import pytest

from forestcalc import (
    Digraph,
    cesaro_limit,
    column_laplacian,
    daniels_scores_strong,
    forest_stack,
    generalized_borda,
    inverse_corresponding_chain,
    max_forest_matrix,
    mean_score,
    rank_order,
    score_basis,
    source_knots,
)
from forestcalc.ranking import ScoreVector


class TestScoreBasis:
    def test_two_sources(self, two_sources):
        basis = score_basis(two_sources)
        assert [v.tolist() for v in basis.columns] == [[1, 0, 0], [0, 1, 0]]
        assert basis.representatives == (1, 2)

    def test_cycle2_single_vector(self, cycle2):
        basis = score_basis(cycle2)
        assert len(basis.columns) == 1
        assert np.allclose(basis.columns[0], [0.5, 0.5])

    def test_edgeless_unit_vectors(self, edgeless4):
        basis = score_basis(edgeless4)
        assert np.allclose(np.column_stack(basis.columns), np.eye(4))

    def test_nullspace_orthogonality_dimension(self, corpus):
        for g in corpus:
            basis = score_basis(g)
            lap = column_laplacian(g).entries
            assert len(basis.columns) == source_knots(g).d_prime
            for v in basis.columns:
                assert np.abs(lap @ v).max() < 1e-9
            for a in range(len(basis.columns)):
                for b in range(a + 1, len(basis.columns)):
                    assert abs(basis.columns[a] @ basis.columns[b]) < 1e-12

    def test_dimension_equals_nullity(self, corpus):
        for g in corpus[:30]:
            lap = column_laplacian(g).entries
            rank = np.linalg.matrix_rank(lap, tol=1e-8 * max(1.0, np.abs(lap).max()))
            assert len(score_basis(g).columns) == g.n - rank

    def test_alternate_representatives_span_same_space(self, corpus):
        # swapping the chosen knot vertex rescales the column but not the span
        for g in corpus[:40]:
            sk = source_knots(g)
            jbar = np.asarray(max_forest_matrix(forest_stack(g)).entries, dtype=float)
            basis = np.column_stack(score_basis(g).columns)
            projector = basis @ np.linalg.pinv(basis)
            for knot in sk.knots:
                for rep in sorted(knot)[1:]:
                    column = jbar[:, rep - 1]
                    assert np.abs(projector @ column - column).max() < 1e-9


class TestMeanScore:
    def test_p3(self, p3):
        assert np.allclose(mean_score(p3).values, [1, 0, 0])

    def test_two_sources(self, two_sources):
        assert np.allclose(mean_score(two_sources).values, [0.5, 0.5, 0])

    def test_cycle2(self, cycle2):
        assert np.allclose(mean_score(cycle2).values, [0.5, 0.5])

    def test_nonnegative_sums_to_one_zero_off_knots(self, corpus):
        for g in corpus:
            values = mean_score(g).values
            assert values.sum() == pytest.approx(1.0, abs=1e-9)
            assert (values > -1e-12).all()
            union = source_knots(g).union
            for v in g.vertices:
                if v not in union:
                    assert abs(values[v - 1]) < 1e-12

    def test_matches_uniform_start(self, corpus):
        # the uniform-start distribution of the default chain, from its Cesaro limit
        for g in corpus[:25]:
            limit = cesaro_limit(inverse_corresponding_chain(g), tol=1e-8)
            via_chain = limit.matrix.T @ np.full(g.n, 1.0 / g.n)
            assert np.abs(mean_score(g).values - via_chain).max() < 1e-6


class TestDanielsScores:
    def test_cycle2(self, cycle2):
        assert np.allclose(daniels_scores_strong(cycle2).values, [0.5, 0.5])

    def test_cycle3(self, cycle3):
        assert np.allclose(daniels_scores_strong(cycle3).values, [1 / 3, 1 / 3, 1 / 3])

    def test_weighted_cycle(self):
        g = Digraph.build(2, [(1, 2, 2), (2, 1, 1)])
        scores = daniels_scores_strong(g).values
        # tree diverging from 1 = arc (1,2) with weight 2; from 2 = weight 1
        assert np.allclose(scores, [2 / 3, 1 / 3])

    def test_rejects_non_strong(self, p3):
        with pytest.raises(ValueError):
            daniels_scores_strong(p3)

    def test_proportional_to_projection_columns(self, corpus):
        for g in corpus:
            sk = source_knots(g)
            if sk.d_prime != 1 or len(sk.knots[0]) != g.n:
                continue
            scores = daniels_scores_strong(g).values
            jbar = np.asarray(max_forest_matrix(forest_stack(g)).entries, dtype=float)
            for j in range(g.n):
                assert np.abs(scores - jbar[:, j]).max() < 1e-9


class TestGeneralizedBorda:
    def test_balanced_cycle_scores_zero(self, cycle2):
        assert np.allclose(generalized_borda(cycle2, 1.0).values, [0, 0])

    def test_p3_antisymmetric_under_relabeling(self, p3):
        scores = generalized_borda(p3, 1.0).values
        assert scores[0] == pytest.approx(-scores[2])
        assert scores[1] == pytest.approx(0.0)
        assert scores[0] > 0

    def test_edgeless_zero(self, edgeless4):
        assert np.allclose(generalized_borda(edgeless4, 1.0).values, np.zeros(4))

    def test_count_degrees_differ_from_weighted(self):
        g = Digraph.build(3, [(1, 2, 2), (2, 3, 0.5)])
        weighted = generalized_borda(g, 1.0, "weighted").values
        counted = generalized_borda(g, 1.0, "count").values
        assert not np.allclose(weighted, counted)

    def test_constant_shift_preserves_differences(self, p3):
        # the symmetrized parametric matrix is doubly stochastic, so shifting
        # every degree by a constant shifts every score by that constant
        from forestcalc.ranking import _symmetrized
        from forestcalc import parametric_matrices

        sym = _symmetrized(p3)
        pm = parametric_matrices(forest_stack(sym), column_laplacian(sym), 1.0)
        j = np.asarray(pm.j_tau, dtype=float)
        d = np.array([1.0, 0.0, -1.0])
        base = j @ d
        shifted = j @ (d + 5.0)
        assert np.allclose(shifted - base, 5.0)

    def test_bad_degree_kind(self, p3):
        with pytest.raises(ValueError):
            generalized_borda(p3, 1.0, "total")

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0])
    def test_rejects_bad_tau(self, p3, tau):
        with pytest.raises(ValueError):
            generalized_borda(p3, tau)


class TestRankOrder:
    def test_tie_group(self):
        assert rank_order(ScoreVector(np.array([0.5, 0.5, 0.0]), "m", {})) == [[1, 2], [3]]

    def test_trailing_ties(self):
        assert rank_order(ScoreVector(np.array([1.0, 0.0, 0.0]), "m", {})) == [[1], [2, 3]]

    def test_all_zero_single_group(self):
        assert rank_order(ScoreVector(np.zeros(3), "m", {})) == [[1, 2, 3]]

    def test_descending_and_deterministic(self):
        got = rank_order(ScoreVector(np.array([0.1, 0.9, 0.1, 0.5]), "m", {}))
        assert got == [[2], [4], [1, 3]]
