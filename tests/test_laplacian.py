import numpy as np
import pytest

from forestcalc import Digraph, column_laplacian, degrees, load_digraph, row_laplacian

from conftest import TINY_WEIGHT


def test_column_laplacian_p3(p3):
    expected = [[0, -1, 0], [0, 1, -1], [0, 0, 1]]
    assert column_laplacian(p3).entries.tolist() == expected


def test_column_laplacian_cycle2(cycle2):
    assert column_laplacian(cycle2).entries.tolist() == [[1, -1], [-1, 1]]


def test_row_laplacian_p3(p3):
    assert row_laplacian(p3).entries.tolist() == [[1, -1, 0], [0, 1, -1], [0, 0, 0]]


def test_row_laplacian_symmetric_weights(cycle2):
    assert np.array_equal(row_laplacian(cycle2).entries, column_laplacian(cycle2).entries)


def test_edgeless_is_zero(edgeless4):
    assert not column_laplacian(edgeless4).entries.any()
    assert not row_laplacian(edgeless4).entries.any()


def test_column_sums_vanish_bitwise(corpus):
    for g in corpus:
        lap = column_laplacian(g).entries
        assert (lap.sum(axis=0) == 0.0).all()
        assert (row_laplacian(g).entries.sum(axis=1) == 0.0).all()


def test_diagonals_are_weighted_degrees(corpus):
    for g in corpus:
        col = column_laplacian(g).entries
        row = row_laplacian(g).entries
        assert np.allclose(np.diag(col), degrees(g, "weighted-indegree").values)
        assert np.allclose(np.diag(row), degrees(g, "weighted-outdegree").values)
        off = ~np.eye(g.n, dtype=bool)
        assert (col[off] <= 0).all()
        assert np.array_equal(col[off], row[off])


def test_singular_m_matrix(corpus):
    for g in corpus:
        lap = column_laplacian(g).entries
        scale = max(1.0, float(np.abs(lap).max()))
        assert abs(np.linalg.det(lap)) < 1e-9 * scale**g.n


def test_exact_mode_matches_float(p3):
    exact = column_laplacian(p3, exact=True).entries
    assert [[float(x) for x in row] for row in exact] == column_laplacian(p3).entries.tolist()


def test_degree_examples(p3, cycle2):
    assert degrees(p3, "weighted-outdegree").values.tolist() == [1, 1, 0]
    assert degrees(p3, "weighted-indegree").values.tolist() == [0, 1, 1]
    diff = degrees(cycle2, "weighted-outdegree").values - degrees(cycle2, "weighted-indegree").values
    assert diff.tolist() == [0, 0]


def test_arc_count_degrees_ignore_weights():
    g = Digraph.build(3, [(1, 2, 0.5), (1, 3, 2)])
    assert degrees(g, "arc-count-outdegree").values.tolist() == [2, 0, 0]
    assert degrees(g, "weighted-outdegree").values.tolist() == [2.5, 0, 0]


def test_unknown_degree_kind(p3):
    with pytest.raises(ValueError):
        degrees(p3, "indegree")


def test_weights_outside_the_float_range_are_rejected():
    for text in (TINY_WEIGHT, "2\n1 2 1e400\n"):
        g = load_digraph(text)
        for build in (column_laplacian, row_laplacian):
            with pytest.raises(ValueError, match="float range"):
                build(g)
            assert build(g, exact=True).entries[0, 1] == -g.weight_of(1, 2)
