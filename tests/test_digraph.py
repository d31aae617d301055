import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestcalc import (
    Digraph,
    EdgeListError,
    load_digraph,
    mediates,
    reachability_bfs,
    reverse,
    source_knots,
    standard_numeration,
    strong_components,
)
from forestcalc.digraph import SuccessorLists, reachable_from

from conftest import seeded_weighted_digraph


@st.composite
def digraphs(draw, max_n=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weights = [draw(st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2)))) for _ in arcs]
    return Digraph.build(n, [(i, j, w) for (i, j), w in zip(arcs, weights)])


class TestParsing:
    def test_p3(self):
        g = load_digraph("3\n1 2 1\n2 3 1")
        assert g.n == 3
        assert {(a.tail, a.head, a.weight) for a in g.arcs} == {(1, 2, 1), (2, 3, 1)}

    def test_two_cycle(self):
        g = load_digraph("2\n1 2 1\n2 1 1")
        assert g.n == 2 and len(g.arcs) == 2

    def test_default_weight_and_comments(self):
        g = load_digraph("# a comment\n3\n\n1 2\n2 3 0.5\n")
        assert g.weight_of(1, 2) == 1
        assert g.weight_of(2, 3) == Fraction(1, 2)

    @pytest.mark.parametrize(
        "text, fragment, line_no",
        [
            ("2\n1 1 1", "loop", 2),
            ("2\n1 2 1\n1 2 2", "duplicate", 3),
            ("2\n1 2 0", "nonpositive", 2),
            ("2\n1 2 -1", "nonpositive", 2),
            ("2\n1 3 1", "out of range", 2),
            ("2\nx 2 1", "integers", 2),
            ("2\n1 2 abc", "invalid weight", 2),
            ("2\n1 2 1/0", "invalid weight", 2),
            ("2\n1 2 1 9", "expected", 2),
            ("x\n1 2 1", "not an integer", 1),
            ("", "missing vertex count", None),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line_no):
        with pytest.raises(EdgeListError) as err:
            load_digraph(text)
        assert fragment in str(err.value)
        assert err.value.line_no == line_no

    def test_decimal_weights_become_exact_rationals(self):
        g = load_digraph("2\n1 2 0.1")
        assert g.weight_of(1, 2) == Fraction(1, 10)


class TestDigraphInvariants:
    def test_rejects_loops_duplicates_bad_weights(self):
        with pytest.raises(ValueError):
            Digraph.build(2, [(1, 1)])
        with pytest.raises(ValueError):
            Digraph.build(2, [(1, 2), (1, 2)])
        with pytest.raises(ValueError):
            Digraph.build(2, [(1, 2, 0)])
        with pytest.raises(ValueError):
            Digraph.build(1, [])

    def test_weight_matrix(self, p3):
        w = p3.weight_matrix()
        assert w[0, 1] == 1 and w[1, 2] == 1 and w.sum() == 2

    def test_equal_content_hashes_equal(self):
        a = Digraph.build(3, [(1, 2), (2, 3)])
        b = Digraph.build(3, [(2, 3), (1, 2)])
        assert a == b and hash(a) == hash(b)


class TestReverse:
    def test_p3(self, p3):
        assert reverse(p3) == Digraph.build(3, [(3, 2), (2, 1)])

    def test_symmetric_fixed_point(self, cycle2):
        assert reverse(cycle2) == cycle2

    @settings(max_examples=30, deadline=None)
    @given(digraphs())
    def test_involution(self, g):
        assert reverse(reverse(g)) == g

    @settings(max_examples=20, deadline=None)
    @given(digraphs())
    def test_same_strong_partition(self, g):
        ours = {frozenset(c) for c in strong_components(g).components}
        theirs = {frozenset(c) for c in strong_components(reverse(g)).components}
        assert ours == theirs


class TestStrongComponents:
    def test_p3_singletons(self, p3):
        cond = strong_components(p3)
        assert cond.components == (frozenset({1}), frozenset({2}), frozenset({3}))
        assert cond.arcs == {(0, 1), (1, 2)}

    def test_cycle_single_component(self, cycle2):
        assert strong_components(cycle2).components == (frozenset({1, 2}),)

    def test_two_sources(self, two_sources):
        cond = strong_components(two_sources)
        assert len(cond.components) == 3
        assert cond.in_degree(0) == 0 and cond.in_degree(1) == 0
        assert cond.in_degree(2) == 2

    def test_condensation_is_acyclic(self, corpus):
        for g in corpus:
            cond = strong_components(g)
            # Kahn peeling must consume every component
            indeg = {i: cond.in_degree(i) for i in range(len(cond.components))}
            ready = [i for i, d in indeg.items() if d == 0]
            seen = 0
            while ready:
                i = ready.pop()
                seen += 1
                for (a, b) in cond.arcs:
                    if a == i:
                        indeg[b] -= 1
                        if indeg[b] == 0:
                            ready.append(b)
            assert seen == len(cond.components)

    @settings(max_examples=40, deadline=None)
    @given(digraphs(max_n=6))
    def test_shared_component_iff_mutually_reachable(self, g):
        cond = strong_components(g)
        assert strong_components(SuccessorLists(g.out_adj)) == cond
        component = {v: comp for comp in cond.components for v in comp}
        reach = {v: reachable_from(g, (v,)) for v in g.vertices}
        for u in g.vertices:
            for v in g.vertices:
                assert (v in component[u]) == (v in reach[u] and u in reach[v])

    def test_long_path_and_cycle_do_not_recurse(self):
        n = 5000
        path = Digraph.build(n, [(i, i + 1) for i in range(1, n)])
        cycle = Digraph.build(n, [(i, i % n + 1) for i in range(1, n + 1)])
        assert len(strong_components(path).components) == n
        assert source_knots(path).knots == (frozenset({1}),)
        assert strong_components(cycle).components == (frozenset(range(1, n + 1)),)
        assert source_knots(cycle).exclusive_reach == (frozenset(range(1, n + 1)),)


class TestSourceKnots:
    def test_p3(self, p3):
        sk = source_knots(p3)
        assert sk.knots == (frozenset({1}),)
        assert sk.exclusive_reach == (frozenset({1, 2, 3}),)
        assert sk.d_prime == 1

    def test_two_sources(self, two_sources):
        sk = source_knots(two_sources)
        assert sk.as_sets() == {frozenset({1}), frozenset({2})}
        assert sk.exclusive_reach == (frozenset({1}), frozenset({2}))
        assert 3 not in sk.exclusive_reach[0] | sk.exclusive_reach[1]

    def test_edgeless_all_singletons(self, edgeless4):
        sk = source_knots(edgeless4)
        assert sk.d_prime == 4
        assert all(len(k) == 1 for k in sk.knots)

    def test_vertex_basis_property(self, three_vertex_corpus):
        # picking one vertex per knot always covers the digraph, and dropping
        # any single pick breaks the cover
        for g in three_vertex_corpus:
            sk = source_knots(g)
            everything = frozenset(g.vertices)
            for picks in product(*[sorted(k) for k in sk.knots]):
                assert reachable_from(g, picks) == everything
                for drop in range(len(picks)):
                    rest = picks[:drop] + picks[drop + 1 :]
                    if rest:
                        assert reachable_from(g, rest) != everything
                    else:
                        assert g.n > 0  # nothing left: trivially uncovered


class TestReachability:
    def test_p3_upper_triangular(self, p3):
        assert reachability_bfs(p3).tolist() == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]

    def test_strong_all_ones(self, cycle2):
        assert reachability_bfs(cycle2).tolist() == [[1, 1], [1, 1]]

    def test_edgeless_identity(self, edgeless4):
        assert np.array_equal(reachability_bfs(edgeless4), np.eye(4, dtype=int))


class TestMediates:
    def test_p3_middle(self, p3):
        assert mediates(p3, 2, 1, 3)

    def test_bypass_defeats_mediation(self):
        g = Digraph.build(3, [(1, 2), (2, 3), (1, 3)])
        assert not mediates(g, 2, 1, 3)

    def test_endpoint_is_never_mediator(self, p3):
        assert not mediates(p3, 1, 1, 3)
        assert not mediates(p3, 3, 1, 3)

    def test_requires_valid_ids(self, p3):
        with pytest.raises(ValueError):
            mediates(p3, 4, 1, 3)

    def test_implies_reachable_and_cut(self, three_vertex_corpus):
        for g in three_vertex_corpus:
            r = reachability_bfs(g)
            for k in g.vertices:
                for i in g.vertices:
                    for t in g.vertices:
                        if mediates(g, k, i, t):
                            assert r[i - 1, t - 1] == 1
                            assert t not in reachable_from(
                                Digraph.build(
                                    g.n,
                                    [a for a in g.arcs if k not in (a.tail, a.head)],
                                ),
                                (i,),
                            )


def test_seeded_generator_rejects_more_arcs_than_pairs():
    with pytest.raises(ValueError):
        seeded_weighted_digraph(random.Random(0), 3, 7)
    assert len(seeded_weighted_digraph(random.Random(0), 3, 6).arcs) == 6


class TestStandardNumeration:
    def test_already_standard(self, two_sources):
        assert standard_numeration(two_sources) == (1, 2, 3)

    def test_knot_moves_first(self, fan_out):
        assert standard_numeration(fan_out) == (3, 1, 2)

    def test_strong_is_identity(self, cycle3):
        assert standard_numeration(cycle3) == (1, 2, 3)

    def test_is_permutation(self, corpus):
        for g in corpus:
            assert sorted(standard_numeration(g)) == list(g.vertices)
