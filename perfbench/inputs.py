"""Seeded digraph generators for the benchmark and the correct-range sweep.

A digraph is a pair (n, arcs) with arcs a sorted tuple of (tail, head,
Fraction weight), vertices 1..n, no loops and at most one arc per ordered
pair.  This module uses only the standard library: the benchmark's checks
build their references from these arcs, never from the program's parse.
"""

from __future__ import annotations

import random
from fractions import Fraction

WEIGHTS = (Fraction(1, 2), Fraction(1), Fraction(2))
UNIT = (Fraction(1),)
SUB_UNIT = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
DENSITIES = (0.15, 0.25, 0.35, 0.45, 0.6)


def random_arcs(rng: random.Random, n: int, p: float, weights) -> tuple:
    """Each ordered pair independently becomes an arc with probability p."""
    return tuple(
        (i, j, rng.choice(weights))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < p
    )


def arcs_with_count(rng: random.Random, n: int, count: int, weights) -> tuple:
    """Exactly ``count`` arcs drawn uniformly among the n(n-1) ordered pairs."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = sorted(rng.sample(pairs, count))
    return tuple((i, j, rng.choice(weights)) for i, j in chosen)


def strong_arcs(rng: random.Random, n: int, extra: int, weights) -> tuple:
    """A Hamiltonian cycle through a random vertex order plus ``extra`` arcs."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = {(order[k], order[(k + 1) % n]) for k in range(n)}
    others = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
              if i != j and (i, j) not in pairs]
    pairs.update(rng.sample(others, min(extra, len(others))))
    return tuple((i, j, rng.choice(weights)) for i, j in sorted(pairs))


def path_arcs(n: int) -> tuple:
    return tuple((i, i + 1, Fraction(1)) for i in range(1, n))


def three_cycle_arcs(n: int) -> tuple:
    """n/3 disjoint directed 3-cycles; n must be a multiple of 3."""
    arcs = []
    for base in range(0, n, 3):
        a, b, c = base + 1, base + 2, base + 3
        arcs += [(a, b, Fraction(1)), (b, c, Fraction(1)), (c, a, Fraction(1))]
    return tuple(sorted(arcs))


def tournament_arcs(rng: random.Random, n: int) -> tuple:
    """Every unordered pair gets one arc, oriented at random, weight 1."""
    arcs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            arcs.append((i, j, Fraction(1)) if rng.random() < 0.5 else (j, i, Fraction(1)))
    return tuple(sorted(arcs))


def edge_list(n: int, arcs) -> str:
    """The CLI's edge-list format: vertex count, then 'tail head weight' lines."""
    lines = [str(n)] + [f"{t} {h} {w}" for t, h, w in arcs]
    return "\n".join(lines) + "\n"


class InputStream:
    """Fresh digraphs of one seeded run; no (n, arcs) pair is handed out twice.

    Each input class cycles its sizes (n, arc count or density) in a fixed
    order, so every run sees the same mix of sizes whatever the seed; the
    seed only places the arcs and picks the weights.
    """

    def __init__(self, label: str, seed: int):
        self.rng = random.Random(f"{label}:{seed}")
        self.seen: set[tuple] = set()
        self.counters: dict[str, int] = {}

    def _next(self, name: str) -> int:
        k = self.counters.get(name, 0)
        self.counters[name] = k + 1
        return k

    def fresh(self, draw) -> tuple:
        """Call ``draw(rng) -> arcs`` until it yields an unseen digraph."""
        for _ in range(1000):
            n, arcs = draw(self.rng)
            if (n, arcs) not in self.seen:
                self.seen.add((n, arcs))
                return n, arcs
        raise RuntimeError("input class exhausted: no unseen digraph in 1000 draws")

    def _random(self, n: int, p: float, weights) -> tuple:
        return self.fresh(lambda r: (n, random_arcs(r, n, p, weights)))

    def _counted(self, n: int, count: int, weights) -> tuple:
        return self.fresh(lambda r: (n, arcs_with_count(r, n, count, weights)))

    # the input classes of the workloads; each returns (n, arcs)

    def float_pipeline(self) -> tuple:
        """Alternately weights {1/2, 1, 2} at n = 4..5 and unit weights at n = 6..7."""
        k = self._next("float")
        j = k // 2
        p = DENSITIES[(j // 2) % len(DENSITIES)]
        if k % 2 == 0:
            return self._random(4 + j % 2, p, WEIGHTS)
        return self._random(6 + j % 2, p, UNIT)

    def conditions(self) -> tuple:
        """Unit weights at n = 4..6."""
        k = self._next("conditions")
        return self._random(4 + k % 3, DENSITIES[(k // 3) % len(DENSITIES)], UNIT)

    def verify(self) -> tuple:
        """Unit weights, n = 5, 8..13 arcs (the oracle walks 2^arcs subsets)."""
        return self._counted(5, 8 + self._next("verify") % 6, UNIT)

    def dissemination(self) -> tuple:
        """Weights in (0, 1], n = 4..5, 4..9 arcs."""
        k = self._next("dissemination")
        return self._counted(4 + k % 2, 4 + (k // 2) % 6, SUB_UNIT)

    def score_basis(self) -> tuple:
        """Weights {1/2, 1, 2}, n = 4..5, 3..12 arcs."""
        k = self._next("score_basis")
        return self._counted(4 + k % 2, 3 + (k // 2) % 10, WEIGHTS)

    def exact_stack(self) -> tuple:
        """Weights {1/2, 1, 2} at n = 10..16 with 2n arcs."""
        n = 10 + self._next("exact_stack") % 7
        return self._counted(n, 2 * n, WEIGHTS)

    def threshold(self) -> tuple:
        """Unit weights at n = 6..12, arc probability 0.2."""
        return self._random(6 + self._next("threshold") % 7, 0.2, UNIT)

    def strong(self) -> tuple:
        """Strongly connected, weights {1/2, 1, 2}, n = 4..5, at most 12 arcs."""
        k = self._next("strong")
        n = 4 + k % 2
        extra = (k // 2) % (13 - n)
        return self.fresh(lambda r: (n, strong_arcs(r, n, extra, WEIGHTS)))
