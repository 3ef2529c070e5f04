"""Simple graphs, short-cycle machinery, and the relaxation hypothesis check.

Vertices are dense integers ``0..n-1``.  Edges are unordered pairs stored as
sorted tuples, kept in lexicographic order.  A *relaxation set* (R set) is a
subset of the edge set; edges of R count twice in the weighted cycle length
``r_length(C) = |E(C)| + |E(C) ∩ R|``, and a vertex is *R-relaxed* when its
degree is odd or zero, or when it is incident with an R edge.  A cycle is
the plain tuple of its vertices in walk order.  ``r_length`` and
``relaxed_flags`` are the only implementations of the two definitions;
``enumerate_cycles`` cuts its search by the same edge weights,
``hypothesis_check`` reads each cycle's r-length off that search, and their
tests hold both to ``r_length``.

The hypothesis check implemented here accepts exactly the graphs whose cycles
avoid r-lengths 3, 4, and 6 and in which no two cycles of r-length 5 share
exactly one edge.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

Edge = tuple[int, int]
RSet = frozenset  # frozenset[Edge]
Cycle = tuple[int, ...]  # the vertices of a simple cycle in walk order, at least 3


def normalize_edge(u: int, v: int) -> Edge:
    """Return the pair sorted; loops are rejected."""
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    Immutable after construction.  ``edges`` is a tuple of sorted pairs in
    lexicographic order; ``adj[v]`` is the frozen neighbor set of ``v``.
    """

    __slots__ = ("n", "edges", "adj", "_edge_pos")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for u, v in edges:
            e = normalize_edge(int(u), int(v))
            if not (0 <= e[0] and e[1] < n):
                raise ValueError(f"edge {e} out of range for n={n}")
            norm.add(e)
        self._fill(n, tuple(sorted(norm)))

    @classmethod
    def from_sorted_edges(cls, n: int, edges: tuple[Edge, ...]) -> "Graph":
        """The graph on 0..n-1 with ``edges``, which the caller has checked
        to be pairs u < v < n in increasing order, each once; nothing is
        checked again."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, edges: tuple[Edge, ...]) -> None:
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.n = n
        self.edges: tuple[Edge, ...] = edges
        self.adj: tuple[frozenset[int], ...] = tuple(map(frozenset, nbrs))
        self._edge_pos = dict(zip(edges, range(len(edges))))

    # -- basic queries -----------------------------------------------------

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and v in self.adj[u]

    def edge_index(self, e: Edge) -> int:
        return self._edge_pos[normalize_edge(*e)]

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise ValueError(f"unknown vertex {v}")
        return v

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by minimum."""
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        """Whether one search from vertex 0 reaches every vertex."""
        if self.n <= 1:
            return True
        seen, stack = [True] + [False] * (self.n - 1), [0]
        while stack:
            for w in self.adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    def remove_vertex(self, v: int) -> tuple["Graph", dict[int, int]]:
        """Return (G - v, old->new vertex relabeling keeping ids dense)."""
        self.check_vertex(v)
        relabel = {w: (w if w < v else w - 1) for w in range(self.n) if w != v}
        # relabeling keeps the order, so the edges stay sorted
        edges = tuple((relabel[a], relabel[b]) for a, b in self.edges if v not in (a, b))
        return Graph.from_sorted_edges(self.n - 1, edges), relabel

    def add_edge(self, u: int, v: int) -> "Graph":
        e = normalize_edge(u, v)
        if e in self._edge_pos:
            raise ValueError(f"edge {e} already present")
        return Graph(self.n, self.edges + (e,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


# -- named constructors ----------------------------------------------------


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def r_set(g: Graph, edges: Iterable[tuple[int, int]]) -> RSet:
    """Validate a relaxation set: every member must be an edge of ``g``."""
    out = set()
    for u, v in edges:
        e = normalize_edge(u, v)
        if e not in g._edge_pos:
            raise ValueError(f"relaxation edge {e} is not an edge of the graph")
        out.add(e)
    return frozenset(out)


# -- cycles ----------------------------------------------------------------


def r_length(c: Cycle, r: RSet) -> int:
    """|E(C)| + |E(C) ∩ R|: relaxation edges count twice."""
    return len(c) + sum(((a, b) if a < b else (b, a)) in r for a, b in zip(c, c[1:] + c[:1]))


def relaxed_flags(g: Graph, r: RSet) -> list[bool]:
    """Whether each vertex is R-relaxed, from one pass over r."""
    ends = {v for e in r for v in e}
    return [g.degree(v) % 2 == 1 or not g.adj[v] or v in ends for v in range(g.n)]


def enumerate_cycles(
    g: Graph, bound: int, r: RSet = frozenset(), *, r_lengths: list[int] | None = None
) -> list[Cycle]:
    """All simple cycles of r-length at most ``bound``, each once; with
    ``r`` empty that is every cycle of at most ``bound`` edges.  Given a
    list ``r_lengths``, the search appends to it each cycle's r-length, in
    output order.

    Each cycle is produced exactly once up to rotation and reflection: the
    search roots every cycle at its smallest vertex s and fixes the
    direction by requiring second vertex < last vertex.  Output is in
    lexicographic order of the canonical vertex sequences.

    A BFS from each root s over the vertices above it, to radius
    ``bound // 2``, gives dist[w], the fewest edges from w back to s, which
    no r-length back is below.  The search carries the r-length of its path
    and steps to w only if that, counting the step, plus dist[w] still fits
    the bound; it closes a cycle only if the edge back to s fits too.  So it
    builds no cycle over the bound, and its cost is the paths that can
    close, not all paths.  The second vertex is never s's largest neighbor
    above s, since no last vertex could then exceed it, and a root with
    fewer than two neighbors above it is skipped.  Runs on an explicit
    stack.
    """
    if bound < 3:
        raise ValueError("bound must be at least 3")
    out: list[Cycle] = []
    lengths = [] if r_lengths is None else r_lengths
    adj_sorted = [sorted(a) for a in g.adj]
    heavy: list[tuple[int, ...]] = [()] * g.n  # the neighbors across an R edge
    for a, b in r:
        heavy[a] += (b,)
        heavy[b] += (a,)
    far = bound + 1  # no cycle within the bound passes there
    dist = [far] * g.n  # to the root, through vertices above it; far on the path
    for s in range(g.n):
        above = adj_sorted[s][bisect_right(adj_sorted[s], s):]
        if len(above) < 2:
            continue
        reached, frontier = [s], [s]
        for d in range(1, bound // 2 + 1):
            nxt = []
            for u in frontier:
                for w in adj_sorted[u]:
                    if w > s and dist[w] == far:
                        dist[w] = d
                        nxt.append(w)
            reached += nxt
            frontier = nxt
        back = heavy[s]  # from these the edge back to s has r-length 2
        path = [s]
        rooms = [bound]  # the r-length left after each path vertex
        saved = [far]  # dist of each path vertex before it joined the path
        stack = [iter(above[:-1])]
        while stack:
            room = rooms[-1]
            hv = heavy[path[-1]]
            for w in stack[-1]:
                d = dist[w]
                if d < room:  # a step of r-length 1 would fit
                    c = 2 if w in hv else 1
                    if c + d <= room:
                        path.append(w)
                        room -= c
                        if d == 1 and len(path) >= 3 and path[1] < w:
                            rest = room - (2 if w in back else 1)  # after the edge back
                            if rest >= 0:
                                out.append(tuple(path))
                                lengths.append(bound - rest)
                        rooms.append(room)
                        saved.append(d)
                        dist[w] = far
                        stack.append(iter(adj_sorted[w]))
                        break
            else:
                stack.pop()
                rooms.pop()
                dist[path.pop()] = saved.pop()
        for w in reached:
            dist[w] = far
    return out


def one_edge_pairs(cycles: list[Cycle]) -> Iterator[tuple[int, int, Edge]]:
    """(i, j, e) for every pair i < j of ``cycles`` that share exactly one
    edge, e, in (i, j) order.

    Each cycle meets the later cycles through an edge -> cycles index, so the
    cost is the number of (edge, cycle, cycle) incidences, not of pairs.  Per
    cycle a map holds each later cycle met with the edge it shares, or None
    once it shares a second.
    """
    edge_lists = [[(a, b) if a < b else (b, a) for a, b in zip(c, c[1:] + c[:1])] for c in cycles]
    holders: dict[Edge, list[int]] = {}
    for i, es in enumerate(edge_lists):
        for e in es:
            holders.setdefault(e, []).append(i)
    for i, es in enumerate(edge_lists):
        once: dict[int, Edge | None] = {}
        for e in es:
            on_e = holders[e]
            for j in on_e[bisect_right(on_e, i):]:
                once[j] = None if j in once else e
        for j in sorted(once):
            e = once[j]
            if e is not None:
                yield i, j, e


def girth(g: Graph) -> int | float:
    """Minimum cycle edge count; ``math.inf`` for forests.

    One BFS per root vertex.  Each non-tree edge (u, w) met closes a walk
    through the root of dist[u] + dist[w] + 1 edges, which holds a cycle at
    most that long.  Every cycle through the root has a non-tree edge, and
    on each of its edges that sum is at most the cycle's length, so after
    the BFS the best so far is at most the shortest cycle through the root.
    Past depth d every new edge closes at least 2d + 1 edges, so a root's
    BFS stops once that reaches the best so far.  The root is then deleted,
    as no shorter cycle runs through it, and so are the vertices left with
    degree <= 1, which lie on no cycle.
    """
    best: int | float = math.inf
    deg = [len(a) for a in g.adj]
    gone = [False] * g.n
    for root in range(g.n):
        if gone[root]:
            continue
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        d = 0
        while frontier and 2 * d + 1 < best:
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if w == parent[u] or gone[w]:
                        continue
                    if w in dist:
                        best = min(best, d + dist[w] + 1)
                    else:
                        dist[w] = d + 1
                        parent[w] = u
                        nxt.append(w)
            frontier = nxt
            d += 1
        gone[root] = True
        peel = [root]
        while peel:
            for w in g.adj[peel.pop()]:
                if not gone[w]:
                    deg[w] -= 1
                    if deg[w] <= 1:
                        gone[w] = True
                        peel.append(w)
    return best


@dataclass(frozen=True)
class FivePairsJSON:
    """The JSON array of a report's five pairs, written when encoded.

    ``text()`` is what ``json.dumps`` writes for the pairs as
    ``{"cycle_a", "cycle_b", "shared_edge"}`` objects, with its default
    separators and sorted keys, but it writes each distinct cycle and edge
    once: dense graphs pair few cycles many times (K7: 15,120 pairs of 252
    cycles).  ``jsonio.dumps_report`` splices it into a report.
    """

    pairs: tuple[tuple[Cycle, Cycle, Edge], ...]

    def text(self) -> str:
        memo: dict[tuple[int, ...], str] = {}  # cycle or edge -> its JSON array
        out = []
        for a, b, e in self.pairs:
            ta, tb, te = memo.get(a), memo.get(b), memo.get(e)
            if ta is None:
                # vertices are ints, which JSON writes as str() does
                ta = memo[a] = "[" + ", ".join(map(str, a)) + "]"
            if tb is None:
                tb = memo[b] = "[" + ", ".join(map(str, b)) + "]"
            if te is None:
                te = memo[e] = "[" + ", ".join(map(str, e)) + "]"
            out.append(f'{{"cycle_a": {ta}, "cycle_b": {tb}, "shared_edge": {te}}}')
        return "[" + ", ".join(out) + "]"


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the relaxed-cycle hypothesis check with witnesses."""

    passes: bool
    forbidden_cycles: tuple[tuple[Cycle, int], ...]  # (cycle, r_length in {3,4,6})
    five_pairs: tuple[tuple[Cycle, Cycle, Edge], ...]  # r-length-5 pair, shared edge

    def to_json(self) -> dict:
        """The report as data for ``jsonio.dumps_report``.  Cycles stay
        tuples, which JSON encodes as arrays, and ``five_pairs`` is a
        ``FivePairsJSON``, whose text is built only when the report is
        encoded; plain ``json.dumps`` rejects it."""
        return {
            "passes": self.passes,
            "forbidden_cycles": [{"cycle": c, "r_length": L} for c, L in self.forbidden_cycles],
            "five_pairs": FivePairsJSON(self.five_pairs),
        }


def hypothesis_check(g: Graph, r: RSet) -> HypothesisReport:
    """Check the two cycle conditions of the relaxed coloring theorem.

    (a) no cycle has r-length 3, 4, or 6; (b) no two distinct cycles of
    r-length 5 share exactly one edge.  Both speak only of cycles of
    r-length at most 6, and ``enumerate_cycles(g, 6, r)`` builds exactly
    those: its search is cut by r-length, so it never builds a cycle that
    this check would discard, and it hands over the r-length of each.

    (b) is ``one_edge_pairs`` on the r-length-5 cycles: it meets each cycle
    with the later ones through an edge index, so its cost is the number of
    (edge, cycle, cycle) incidences, not all pairs of cycles, and it drops a
    pair as soon as it finds a second shared edge.
    """
    lengths: list[int] = []
    cycles = enumerate_cycles(g, 6, r, r_lengths=lengths)
    forbidden = []
    fives = []
    for c, L in zip(cycles, lengths):
        if L in (3, 4, 6):
            forbidden.append((c, L))
        elif L == 5:
            fives.append(c)
    pairs = [(fives[i], fives[j], e) for i, j, e in one_edge_pairs(fives)]
    return HypothesisReport(
        passes=not forbidden and not pairs,
        forbidden_cycles=tuple(forbidden),
        five_pairs=tuple(pairs),
    )


def one_subdivision(h: Graph) -> Graph:
    """Replace every edge uv by a length-2 path u-w-v through a fresh vertex.

    Edge i of the sorted edge list gets subdivision vertex ``h.n + i``, so
    the output has |V|+|E| vertices and 2|E| edges.
    """
    edges = []
    for i, (u, v) in enumerate(h.edges):
        w = h.n + i
        edges.append((u, w))
        edges.append((w, v))
    return Graph(h.n + len(h.edges), edges)
