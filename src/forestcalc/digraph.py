"""Weighted digraph model: parsing, reachability, strong components, source knots.

Vertices are the integers 1..n.  Arc weights are kept as exact rationals so
that the enumeration oracle and the exact-arithmetic code paths never see
rounding; float consumers convert on demand via :meth:`Digraph.weight_matrix`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np


class EdgeListError(ValueError):
    """Malformed edge-list input; remembers the offending 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def as_weight(value) -> Fraction:
    """Coerce a user-supplied weight to an exact rational.

    Floats go through their shortest decimal repr, so 0.1 becomes exactly
    1/10 rather than the nearest binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"invalid weight {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(str(value))


class Arc(NamedTuple):
    tail: int
    head: int
    weight: Fraction


@dataclass(frozen=True)
class Digraph:
    """Loop-free weighted digraph with strictly positive arc weights.

    At most one arc per ordered vertex pair; an absent arc is weight zero in
    the weight matrix.  Instances are immutable and hashable, which lets the
    expensive derived objects (forest stacks, enumerations) be memoised.
    """

    n: int
    arcs: tuple[Arc, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"vertex count must be an integer > 1, got {self.n!r}")
        seen: set[tuple[int, int]] = set()
        canonical = []
        for raw in self.arcs:
            if len(raw) == 2:
                tail, head = raw
                weight = Fraction(1)
            else:
                tail, head, weight = raw
            if not isinstance(tail, int) or not isinstance(head, int):
                raise ValueError(f"vertex ids must be integers, got {raw!r}")
            if not (1 <= tail <= self.n and 1 <= head <= self.n):
                raise ValueError(f"vertex id out of range 1..{self.n}: {raw!r}")
            if tail == head:
                raise ValueError(f"loop arc at vertex {tail}")
            if (tail, head) in seen:
                raise ValueError(f"duplicate arc ({tail}, {head})")
            seen.add((tail, head))
            weight = as_weight(weight)
            if weight <= 0:
                raise ValueError(f"nonpositive weight on arc ({tail}, {head})")
            canonical.append(Arc(tail, head, weight))
        canonical.sort(key=lambda a: (a.tail, a.head))
        object.__setattr__(self, "arcs", tuple(canonical))

    @classmethod
    def build(cls, n: int, arcs: Iterable, default_weight=1) -> "Digraph":
        """Construct from (tail, head) pairs or (tail, head, weight) triples."""
        normalized = []
        for raw in arcs:
            raw = tuple(raw)
            if len(raw) == 2:
                normalized.append(Arc(raw[0], raw[1], as_weight(default_weight)))
            elif len(raw) == 3:
                normalized.append(Arc(raw[0], raw[1], raw[2]))
            else:
                raise ValueError(f"arc must have 2 or 3 entries, got {raw!r}")
        return cls(n, tuple(normalized))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def weights(self) -> dict[tuple[int, int], Fraction]:
        return {(a.tail, a.head): a.weight for a in self.arcs}

    @cached_property
    def out_adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            adj[a.tail].append(a.head)
        return {v: tuple(heads) for v, heads in adj.items()}

    @cached_property
    def in_adj(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            adj[a.head].append(a.tail)
        return {v: tuple(tails) for v, tails in adj.items()}

    def weight_of(self, tail: int, head: int) -> Fraction:
        return self.weights.get((tail, head), Fraction(0))

    def has_arc(self, tail: int, head: int) -> bool:
        return (tail, head) in self.weights

    def weight_matrix(self) -> np.ndarray:
        """Float weight matrix W with W[i-1, j-1] = weight of arc (i, j)."""
        w = np.zeros((self.n, self.n))
        for a in self.arcs:
            w[a.tail - 1, a.head - 1] = float(a.weight)
        return w

    def unit_weights(self) -> bool:
        return all(a.weight == 1 for a in self.arcs)


@dataclass(frozen=True)
class Condensation:
    """Strong components and the acyclic digraph they induce.

    Components are ordered by their smallest member; ``arcs`` holds 0-based
    index pairs into ``components``.
    """

    components: tuple[frozenset[int], ...]
    arcs: frozenset[tuple[int, int]]

    @cached_property
    def index_of(self) -> dict[int, int]:
        return {v: i for i, comp in enumerate(self.components) for v in comp}

    def in_degree(self, comp_index: int) -> int:
        return sum(1 for (_, j) in self.arcs if j == comp_index)


@dataclass(frozen=True)
class SourceKnotSet:
    """Source knots (vertex sets of indegree-0 strong components) of a digraph.

    ``exclusive_reach[i]`` holds the vertices reachable from ``knots[i]`` and
    unreachable from every other knot; ``union`` is the union of the knots.
    """

    knots: tuple[frozenset[int], ...]
    exclusive_reach: tuple[frozenset[int], ...]
    union: frozenset[int]

    @property
    def d_prime(self) -> int:
        return len(self.knots)

    def as_sets(self) -> set[frozenset[int]]:
        return set(self.knots)

    @classmethod
    def from_reaches(cls, knots, reaches) -> "SourceKnotSet":
        """Knots with their exclusive reach: the vertices of each knot's reach
        that no other knot reaches."""
        counts = Counter(v for reach in reaches for v in reach)
        exclusive = tuple(frozenset(v for v in reach if counts[v] == 1) for reach in reaches)
        return cls(tuple(knots), exclusive, frozenset().union(*knots))


def load_digraph(text: str) -> Digraph:
    """Parse an edge-list document.

    First data line is the vertex count n; each following nonempty line is
    "tail head [weight]" (weight defaults to 1).  Lines starting with '#'
    are comments.  Vertex ids are 1-based.
    """
    n: int | None = None
    arcs: list[Arc] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise EdgeListError("expected a single vertex count", line_no)
            try:
                n = int(tokens[0])
            except ValueError:
                raise EdgeListError(f"vertex count is not an integer: {tokens[0]!r}", line_no) from None
            if n < 2:
                raise EdgeListError(f"vertex count must be > 1, got {n}", line_no)
            continue
        if len(tokens) not in (2, 3):
            raise EdgeListError("expected 'tail head [weight]'", line_no)
        try:
            tail, head = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListError(f"vertex ids must be integers: {line!r}", line_no) from None
        if not (1 <= tail <= n and 1 <= head <= n):
            raise EdgeListError(f"vertex id out of range 1..{n}", line_no)
        if tail == head:
            raise EdgeListError(f"loop arc at vertex {tail}", line_no)
        if (tail, head) in seen:
            raise EdgeListError(f"duplicate arc ({tail}, {head})", line_no)
        seen.add((tail, head))
        if len(tokens) == 3:
            try:
                weight = Fraction(tokens[2])
            except (ValueError, ZeroDivisionError):
                raise EdgeListError(f"invalid weight {tokens[2]!r}", line_no) from None
        else:
            weight = Fraction(1)
        if weight <= 0:
            raise EdgeListError(f"nonpositive weight on arc ({tail}, {head})", line_no)
        arcs.append(Arc(tail, head, weight))
    if n is None:
        raise EdgeListError("empty document: missing vertex count")
    return Digraph(n, tuple(arcs))


def reverse(g: Digraph) -> Digraph:
    """Digraph with every arc reversed, weights preserved."""
    return Digraph(g.n, tuple(Arc(a.head, a.tail, a.weight) for a in g.arcs))


def increase_arc(g: Digraph, tail: int, head: int, amount) -> Digraph:
    """Copy of g with the (tail, head) weight increased by ``amount``.

    Adds the arc when absent.  Used by the monotonicity checkers.
    """
    if not (1 <= tail <= g.n and 1 <= head <= g.n) or tail == head:
        raise ValueError(f"invalid arc ({tail}, {head})")
    amount = as_weight(amount)
    if amount <= 0:
        raise ValueError("weight increase must be positive")
    new_weight = g.weight_of(tail, head) + amount
    arcs = [a for a in g.arcs if (a.tail, a.head) != (tail, head)]
    arcs.append(Arc(tail, head, new_weight))
    return Digraph(g.n, tuple(arcs))


def induced_subgraph(g: Digraph, vertices: Iterable[int]) -> tuple[Digraph, tuple[int, ...]]:
    """Restriction of g to a vertex subset, relabeled 1..k.

    Returns (subgraph, original_ids) with original_ids[new - 1] = old id.
    Requires at least two vertices (the digraph type excludes n = 1).
    """
    ids = tuple(sorted(set(vertices)))
    if len(ids) < 2:
        raise ValueError("induced subgraph needs at least two vertices")
    index = {old: new for new, old in enumerate(ids, start=1)}
    arcs = tuple(
        Arc(index[a.tail], index[a.head], a.weight)
        for a in g.arcs
        if a.tail in index and a.head in index
    )
    return Digraph(len(ids), arcs), ids


def strong_components(g: Digraph) -> Condensation:
    """Tarjan partition into strong components plus the condensation arcs."""
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    raw_components: list[frozenset[int]] = []

    def connect(v: int) -> None:
        nonlocal counter
        index[v] = lowlink[v] = counter
        counter += 1
        stack.append(v)
        on_stack.add(v)
        for w in g.out_adj[v]:
            if w not in index:
                connect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif w in on_stack:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                on_stack.remove(w)
                comp.add(w)
                if w == v:
                    break
            raw_components.append(frozenset(comp))

    for v in g.vertices:
        if v not in index:
            connect(v)

    components = tuple(sorted(raw_components, key=min))
    where = {v: i for i, comp in enumerate(components) for v in comp}
    cond_arcs = frozenset(
        (where[a.tail], where[a.head]) for a in g.arcs if where[a.tail] != where[a.head]
    )
    return Condensation(components, cond_arcs)


def reachable_from(g: Digraph, starts: Iterable[int]) -> frozenset[int]:
    """Vertices reachable from any start vertex (starts included)."""
    seen = set(starts)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in g.out_adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen)


def source_knots(g: Digraph) -> SourceKnotSet:
    """Source knots: strong components with indegree 0 in the condensation.

    The exclusive reach of a knot keeps only the vertices no other knot can
    reach; a vertex reachable from two knots belongs to neither reach set.
    """
    cond = strong_components(g)
    heads_with_in = {j for (_, j) in cond.arcs}
    knots = tuple(
        comp for i, comp in enumerate(cond.components) if i not in heads_with_in
    )
    return SourceKnotSet.from_reaches(knots, [reachable_from(g, knot) for knot in knots])


def reachability_bfs(g: Digraph) -> np.ndarray:
    """0/1 reachability matrix by traversal; every vertex reaches itself.

    This is the ground-truth oracle the matrix-based reachability results are
    compared against.
    """
    r = np.zeros((g.n, g.n), dtype=int)
    for v in g.vertices:
        for w in reachable_from(g, (v,)):
            r[v - 1, w - 1] = 1
    return r


def mediates(g: Digraph, k: int, i: int, t: int) -> bool:
    """True when every path from i to t passes through k.

    Requires i != k != t and a path from i to t.  Implemented as vertex
    deletion: t must become unreachable from i once k is removed.
    """
    for v in (k, i, t):
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex id out of range 1..{g.n}: {v}")
    if k == i or k == t:
        return False
    if i == t:
        # t is reachable from itself no matter what gets deleted
        return False
    if t not in reachable_from(g, (i,)):
        return False
    seen = {i}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        for w in g.out_adj[v]:
            if w == k or w in seen:
                continue
            if w == t:
                return False
            seen.add(w)
            queue.append(w)
    return True


def standard_numeration(g: Digraph) -> tuple[int, ...]:
    """Relabeling that numbers knot vertices first, knot by knot.

    Returns ``order`` with ``order[new - 1] = old vertex id``: K_1 vertices
    get the smallest numbers, then K_2, ..., then the vertices outside every
    knot.  Knots are ordered by smallest member; ties keep ascending id.
    """
    sk = source_knots(g)
    order: list[int] = []
    for knot in sk.knots:
        order.extend(sorted(knot))
    order.extend(v for v in g.vertices if v not in sk.union)
    return tuple(order)
