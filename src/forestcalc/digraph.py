"""Weighted digraph model: parsing, reachability, strong components, source knots.

Vertices are the integers 1..n.  Arc weights are kept as exact rationals so
that the enumeration oracle and the exact-arithmetic code paths never see
rounding; float consumers convert on demand via :meth:`Digraph.weight_matrix`.

``strong_components``, ``source_knots``, ``reachable_from`` and ``mediates``
read only ``out_adj``, so a pattern with no weights, such as the off-diagonal
nonzeros of a Laplacian, is passed to them as :class:`SuccessorLists`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

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
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid weight {value!r}") from None


class Arc(NamedTuple):
    tail: int
    head: int
    weight: Fraction


class SuccessorLists(NamedTuple):
    """A digraph's structure alone: vertex -> heads of its arcs."""

    out_adj: dict[int, tuple[int, ...]]


def _checked_arc(n: int, tail, head, weight, seen: set[tuple[int, int]]) -> Arc:
    """The arc (tail, head, weight) of a digraph on 1..n, or ValueError.

    ``seen`` holds the pairs accepted so far; this arc's pair is added."""
    if not isinstance(tail, int) or not isinstance(head, int):
        raise ValueError(f"vertex ids must be integers, got {(tail, head)!r}")
    if not (1 <= tail <= n and 1 <= head <= n):
        raise ValueError(f"vertex id out of range 1..{n}: ({tail}, {head})")
    if tail == head:
        raise ValueError(f"loop arc at vertex {tail}")
    if (tail, head) in seen:
        raise ValueError(f"duplicate arc ({tail}, {head})")
    seen.add((tail, head))
    weight = as_weight(weight)
    if weight <= 0:
        raise ValueError(f"nonpositive weight on arc ({tail}, {head})")
    return Arc(tail, head, weight)


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
            tail, head, weight = raw if len(raw) == 3 else (*raw, Fraction(1))
            canonical.append(_checked_arc(self.n, tail, head, weight, seen))
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
        weight = tokens[2] if len(tokens) == 3 else 1
        try:
            arcs.append(_checked_arc(n, tail, head, weight, seen))
        except ValueError as err:
            raise EdgeListError(str(err), line_no) from None
    if n is None:
        raise EdgeListError("empty document: missing vertex count")
    return Digraph(n, tuple(arcs))


def reverse(g: Digraph) -> Digraph:
    """Digraph with every arc reversed, weights preserved."""
    return Digraph(g.n, tuple(Arc(a.head, a.tail, a.weight) for a in g.arcs))


def strong_components(g: Digraph | SuccessorLists) -> Condensation:
    """Tarjan partition into strong components plus the condensation arcs.

    The depth-first search keeps its own stack of (vertex, remaining
    successors) pairs instead of recursing, so its depth is not bounded by
    the interpreter's recursion limit.
    """
    adj = g.out_adj
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: dict[int, None] = {}  # insertion-ordered, so popitem() pops the latest
    raw_components: list[frozenset[int]] = []
    work: list[tuple[int, Iterator[int]]] = []

    def enter(v: int) -> None:
        index[v] = lowlink[v] = len(index)
        on_stack[v] = None
        work.append((v, iter(adj[v])))

    for root in adj:
        if root in index:
            continue
        enter(root)
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    enter(w)
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = set()
                    while v not in comp:
                        comp.add(on_stack.popitem()[0])
                    raw_components.append(frozenset(comp))

    components = tuple(sorted(raw_components, key=min))
    where = {v: i for i, comp in enumerate(components) for v in comp}
    cond_arcs = frozenset(
        (where[v], where[w]) for v, heads in adj.items() for w in heads if where[v] != where[w]
    )
    return Condensation(components, cond_arcs)


def reachable_from(g: Digraph | SuccessorLists, starts: Iterable[int]) -> frozenset[int]:
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


def source_knots(g: Digraph | SuccessorLists) -> SourceKnotSet:
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


def mediates(g: Digraph | SuccessorLists, k: int, i: int, t: int) -> bool:
    """True when every path from i to t passes through k.

    Requires i != k != t and a path from i to t.  Implemented as vertex
    deletion: t must become unreachable from i once k is removed.
    """
    for v in (k, i, t):
        if v not in g.out_adj:
            raise ValueError(f"vertex id out of range 1..{len(g.out_adj)}: {v}")
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
