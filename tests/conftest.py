"""Shared test corpus: every 3-vertex digraph plus seeded random digraphs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from forestcalc import Digraph, load_digraph

THREE_VERTEX_PAIRS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
RANDOM_SHAPES = ((4, 5), (4, 7), (5, 8), (5, 10), (6, 10), (6, 13))
WEIGHT_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(2))
SEED = 20240817


def all_three_vertex_digraphs() -> list[Digraph]:
    graphs = []
    for mask in range(1 << len(THREE_VERTEX_PAIRS)):
        arcs = [THREE_VERTEX_PAIRS[b] for b in range(len(THREE_VERTEX_PAIRS)) if mask >> b & 1]
        graphs.append(Digraph.build(3, arcs))
    return graphs


def random_arc_sets() -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(SEED)
    out = []
    for n, m in RANDOM_SHAPES:
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for _ in range(2):
            out.append((n, sorted(rng.sample(pairs, m))))
    return out


def random_weighted_digraphs() -> list[Digraph]:
    rng = random.Random(SEED + 1)
    graphs = []
    for n, arcs in random_arc_sets():
        weighted = [(i, j, rng.choice(WEIGHT_CHOICES)) for (i, j) in arcs]
        graphs.append(Digraph.build(n, weighted))
    return graphs


def random_unit_digraphs() -> list[Digraph]:
    return [Digraph.build(n, arcs) for n, arcs in random_arc_sets()]


def seeded_weighted_digraph(rng: random.Random, n: int, arc_count: int) -> Digraph:
    """n vertices, arc_count distinct arcs drawn uniformly, weights {1/2, 1, 2}."""
    if arc_count > n * (n - 1):
        raise ValueError(f"{arc_count} arcs do not fit on {n} vertices")
    arcs: set[tuple[int, int]] = set()
    while len(arcs) < arc_count:
        i, j = rng.randint(1, n), rng.randint(1, n)
        if i != j:
            arcs.add((i, j))
    return Digraph.build(n, [(i, j, rng.choice(WEIGHT_CHOICES)) for i, j in sorted(arcs)])


# Digraphs on which the stopping rule of the old recurrence failed.
# WRONG_FROM_N8: weighted, n = 8; the old float stack found d' = 0 against 1.
# ROUNDOFF_LAYER_N8: unit weights, n = 8; roundoff passed as a ninth layer (m = n).
# MONOTONICITY_N6: a perturbed copy broke the old recurrence at tau = 1.
WRONG_FROM_N8 = """8
1 5 1/2
1 7 2
1 8 2
2 1 1/2
2 6 1/2
3 1 1/2
4 8 2
5 4 1/2
5 8 2
6 8 1
7 6 1
8 1 2
8 2 1/2
"""
ROUNDOFF_LAYER_N8 = "8\n" + "\n".join(
    "1 3, 1 5, 1 7, 2 3, 2 5, 3 2, 3 5, 3 8, 5 3, 5 4, 6 4, 6 5, 7 1, 7 3, 7 5, 8 3, 8 5, 8 7".split(", ")
)
MONOTONICITY_N6 = """6
1 5 1/2
2 5 1/2
3 4 1
4 1 2
4 5 1/2
5 1 2
5 3 1/2
6 1 1/2
"""
UNIT_PATH6 = "6\n1 2\n2 3\n3 4\n4 5\n5 6\n"
# The float Jbar of NAN_JBAR_N3 holds NaN; the float weight of TINY_WEIGHT is 0.0.
NAN_JBAR_N3 = "3\n2 1 1e12\n3 1 2\n1 3 1e12\n3 2 1e-300\n2 3 0.5\n"
TINY_WEIGHT = "2\n1 2 1e-400\n"


@pytest.fixture(scope="session")
def recurrence_failures() -> dict[str, Digraph]:
    return {
        "wrong-from-n8": load_digraph(WRONG_FROM_N8),
        "roundoff-layer-n8": load_digraph(ROUNDOFF_LAYER_N8),
        "monotonicity-n6": load_digraph(MONOTONICITY_N6),
    }


@pytest.fixture
def path6() -> Digraph:
    return load_digraph(UNIT_PATH6)


@pytest.fixture(scope="session")
def three_vertex_corpus() -> list[Digraph]:
    return all_three_vertex_digraphs()


@pytest.fixture(scope="session")
def corpus(three_vertex_corpus) -> list[Digraph]:
    return three_vertex_corpus + random_weighted_digraphs() + random_unit_digraphs()


@pytest.fixture(scope="session")
def small_corpus(three_vertex_corpus) -> list[Digraph]:
    """Corpus members small enough for path-by-path exhaustive arguments."""
    extra = [g for g in random_weighted_digraphs() + random_unit_digraphs() if g.n <= 5]
    return three_vertex_corpus + extra


@pytest.fixture
def p3() -> Digraph:
    return Digraph.build(3, [(1, 2), (2, 3)])


@pytest.fixture
def cycle2() -> Digraph:
    return Digraph.build(2, [(1, 2), (2, 1)])


@pytest.fixture
def cycle3() -> Digraph:
    return Digraph.build(3, [(1, 2), (2, 3), (3, 1)])


@pytest.fixture
def two_sources() -> Digraph:
    return Digraph.build(3, [(1, 3), (2, 3)])


@pytest.fixture
def fan_out() -> Digraph:
    return Digraph.build(3, [(3, 1), (3, 2)])


@pytest.fixture
def edgeless4() -> Digraph:
    return Digraph.build(4, [])
