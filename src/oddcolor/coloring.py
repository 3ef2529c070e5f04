"""Verifiers and exact solvers for proper, odd, and relaxed-odd list colorings.

An odd coloring is a proper coloring in which every non-isolated vertex sees
some color an odd number of times among its neighbors.  The relaxed variant
exempts R-relaxed vertices (odd or zero degree, or incident with a relaxation
edge): odd-degree vertices satisfy the parity condition automatically in any
coloring, so the odd-coloring check is the relaxed check with an empty
relaxation set.  Both read one scan for the monochromatic edges and the
non-relaxed vertices that see no color an odd number of times.

The solver is an exact, iterative backtracking search over a static vertex
order, highest degree first, that solver_order builds in O(n + m) pushes
and pops on small heaps of ints.  The order, the neighbor tuples and the
parity flags depend only on the graph and the relaxation set, so
odd_chromatic_number and sampled_choosability compute them once per call,
not once per k or per trial.  Each vertex carries the XOR mask of the
colors on its colored neighbors, so a parity check is one comparison with 0.
After each assignment, a neighbor with no color left rejects the choice, and
one with a single color left is colored at once, so chains of forced colors
cost one pass (forced-color propagation).  When every vertex has the same
list, the colors are interchangeable, so a vertex never tries a color above
the highest one already used plus one (value-interchangeability symmetry
breaking).  None of this changes which
coloring the search returns: the first valid one in its fixed order.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable

from .graphs import Edge, Graph, RSet, normalize_edge, relaxed_flags

Coloring = dict[int, int]


class ListViolationError(ValueError):
    """A coloring uses a color outside the vertex's list."""


class PartialColoringError(ValueError):
    """A coloring does not assign every vertex."""


@dataclass(frozen=True)
class ListAssignment:
    """Size-k color list per vertex, indexed by vertex id."""

    lists: tuple[frozenset[int], ...]

    def __post_init__(self):
        sizes = {len(s) for s in self.lists}
        if len(sizes) > 1:
            raise ValueError(f"list sizes must be uniform, got {sorted(sizes)}")

    @property
    def k(self) -> int:
        return len(self.lists[0]) if self.lists else 0

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]

    def __len__(self) -> int:
        return len(self.lists)


def uniform_lists(n: int, k: int) -> ListAssignment:
    """Every vertex gets the palette {1..k}."""
    palette = frozenset(range(1, k + 1))
    return ListAssignment((palette,) * n)


@dataclass(frozen=True)
class RelaxedInstance:
    """A graph with a relaxation edge set and a list assignment."""

    graph: Graph
    r: RSet
    lists: ListAssignment

    def __post_init__(self):
        if len(self.lists) != self.graph.n:
            raise ValueError("list assignment must cover every vertex")
        for e in self.r:
            if e not in self.graph._edge_pos:
                raise ValueError(f"relaxation edge {e} is not in the graph")


def _smallest_odd_color(colors: Iterable[int]) -> int | None:
    counts = Counter(colors)
    odd = [col for col, k in counts.items() if k % 2 == 1]
    return min(odd) if odd else None


def _parity_scan(g: Graph, r: RSet, c: Coloring) -> tuple[list[Edge], list[int]]:
    """The monochromatic edges of a total coloring c, and the vertices that
    are not R-relaxed and see no color an odd number of times."""
    missing = [v for v in range(g.n) if v not in c]
    if missing:
        raise PartialColoringError(f"vertices without a color: {missing[:5]}")
    mono = [(u, v) for u, v in g.edges if c[u] == c[v]]
    relaxed = relaxed_flags(g, r)
    blind = [
        v for v in range(g.n)
        if not relaxed[v] and _smallest_odd_color(c[u] for u in g.adj[v]) is None
    ]
    return mono, blind


def is_odd_coloring(g: Graph, c: Coloring) -> bool:
    """Proper, and every vertex with a nonempty neighborhood has an odd witness."""
    return _parity_scan(g, frozenset(), c) == ([], [])


def is_relaxed_odd(inst: RelaxedInstance, c: Coloring) -> bool:
    """Proper list coloring whose non-relaxed vertices all have odd witnesses.

    A color outside its vertex's list raises ListViolationError (that is an
    ill-formed input, not a failed coloring); properness and parity failures
    return False.
    """
    mono, blind = _parity_scan(inst.graph, inst.r, c)
    for v in range(inst.graph.n):
        if c[v] not in inst.lists[v]:
            raise ListViolationError(f"vertex {v} colored {c[v]} outside its list")
    return not mono and not blind


# -- exact solver ------------------------------------------------------------


def solver_order(g: Graph) -> list[int]:
    """Static vertex order tuned for early parity checks.

    Repeatedly places the unplaced vertex with the largest (degree, number
    of placed neighbors, -id): high-degree vertices come first (their colors
    are what neighborhood parities depend on), ties go toward vertices
    adjacent to the prefix, then to the smaller id.  Since the solver checks
    a constrained vertex the moment its neighborhood completes, whether or
    not the vertex itself is colored, front-loading the high-degree vertices
    turns subdivision-like instances from exponential into trivial; a plain
    degeneracy order scatters them through the order and stalls the search.

    Degree is the first key, so the order runs through the degree classes
    that occur, from the highest degree down.  Within a class the
    placed-neighbor counts only grow.  Members wait in one min-heap of ids
    per count, count 0 included, where an entry goes stale (and is skipped)
    once its vertex is placed or its count grows.  Each vertex gets at most
    one entry per count, so the whole order costs O(n + m) heap pushes and
    pops on small heaps of ints.
    """
    adj = g.adj
    deg = [len(a) for a in adj]
    classes: dict[int, list[int]] = {}
    for v, d in enumerate(deg):
        classes.setdefault(d, []).append(v)
    count = [0] * g.n  # placed neighbors, or -1 once the vertex is placed
    out = []
    for d in sorted(classes, reverse=True):
        members = classes[d]
        heaps: list[list[int]] = [[] for _ in range(d + 1)]
        for v in members:
            heaps[count[v]].append(v)  # appended in id order: a heap
        top = d  # no count above top has a member waiting
        for _ in members:
            while True:  # the smallest id with the largest count
                h = heaps[top]
                if not h:
                    top -= 1
                elif count[h[0]] != top:
                    heappop(h)
                else:
                    v = heappop(h)
                    break
            count[v] = -1
            out.append(v)
            for w in adj[v]:
                c = count[w] + 1
                if c:  # w is not placed
                    count[w] = c
                    if deg[w] == d:
                        heappush(heaps[c], w)
                        if c > top:
                            top = c
    return out


def solve(inst: RelaxedInstance) -> Coloring | None:
    """Exact search for a relaxed-odd list coloring; None iff none exists.

    Iterative depth-first search over solver_order, trying colors in
    increasing order, so the result is the first valid coloring in that
    lexicographic order.  Colors are bits indexed by rank in the union of
    the lists.  Each vertex keeps the XOR mask of the colors on its colored
    neighbors (the colors seen an odd number of times) and its count of
    uncolored neighbors.  A constrained vertex needs a nonzero mask once the
    count is 0, so at count 1 a single-color mask forbids that color to the
    last neighbor.

    After each assignment the search examines every uncolored neighbor and
    the last uncolored neighbor of each constrained neighbor.  One with no
    allowed color rejects the choice; one with exactly one is colored at
    once, recorded on the current level's trail and examined in turn.  A
    forced color holds in every solution that extends the choices made so
    far, so propagation never changes which coloring is returned, and a
    position whose vertex is already colored is passed without branching.
    A dead end backtracks to the latest choice and undoes its trail.

    When every vertex has the same list mask, position p tries only ranks up
    to top[p] + 1, where top[p] is the highest rank on order[:p], forced
    colors included.  This keeps the returned coloring: if the first valid
    coloring gave order[p] a rank c > top[p] + 1, swapping c and top[p] + 1
    everywhere (both unused on the prefix, both in every list) would give a
    valid coloring that comes earlier in the search order.  UNSAT proofs
    shrink by up to k! this way.  Lists that differ anywhere get the full
    search.
    """
    return _search(inst, *_solver_setup(inst.graph, inst.r))


def _solver_setup(
    g: Graph, r: RSet
) -> tuple[list[tuple[int, ...]], list[bool], list[int]]:
    """The part of solve's set-up that the lists do not change: neighbor
    tuples, whether each vertex must see an odd color, and solver_order."""
    return [tuple(a) for a in g.adj], [not x for x in relaxed_flags(g, r)], solver_order(g)


def _search(
    inst: RelaxedInstance,
    adj: list[tuple[int, ...]],
    constrained: list[bool],
    order: list[int],
) -> Coloring | None:
    """solve's search, given _solver_setup(inst.graph, inst.r)."""
    n = inst.graph.n
    if n == 0:
        return {}
    distinct = set(inst.lists.lists)
    palette = sorted(set().union(*distinct))
    rank = {col: i for i, col in enumerate(palette)}
    masks = {}
    for s in distinct:  # set bits in bytes, then read them once: linear in k
        bits = bytearray(len(palette) // 8 + 1)
        for i in map(rank.__getitem__, s):
            bits[i >> 3] |= 1 << (i & 7)
        masks[s] = int.from_bytes(bits, "little")
    list_mask = [masks[s] for s in inst.lists.lists]
    color = [-1] * n
    mask = [0] * n
    uncolored = [len(a) for a in adj]
    trail: list[int] = []  # colored vertices, in the order they were colored

    def allowed(x: int) -> int:
        forbid = 0
        for y in adj[x]:
            if color[y] >= 0:
                forbid |= 1 << color[y]
            if constrained[y] and uncolored[y] == 1 and mask[y] & (mask[y] - 1) == 0:
                forbid |= mask[y]
        return list_mask[x] & ~forbid

    def assign(u: int, c: int) -> None:
        color[u] = c
        trail.append(u)
        for w in adj[u]:
            mask[w] ^= 1 << c
            uncolored[w] -= 1

    def undo(mark: int) -> None:
        """Uncolor the vertices colored since the trail had length mark."""
        while len(trail) > mark:
            u = trail.pop()
            for w in adj[u]:
                mask[w] ^= 1 << color[u]
                uncolored[w] += 1
            color[u] = -1

    def propagate(u: int) -> bool:
        """Color what u's color forces, transitively; False on a wipe-out."""
        todo = [u]
        while todo:
            for w in adj[todo.pop()]:
                if color[w] < 0:
                    left = allowed(w)
                    if not left:
                        return False
                    if not left & (left - 1):
                        assign(w, left.bit_length() - 1)
                        todo.append(w)
                if constrained[w] and uncolored[w] == 1:
                    for x in adj[w]:
                        if color[x] < 0:  # w's last uncolored neighbor
                            left = allowed(x)
                            if not left:
                                return False
                            if not left & (left - 1):
                                assign(x, left.bit_length() - 1)
                                todo.append(x)
                            break
        return True

    # cap[p]: the ranks position p may try, as a bit mask.  With one list
    # everywhere these are the ranks up to top[p] + 1, else all ranks (-1).
    cap = [1 if len(masks) == 1 else -1] * n
    choices = []  # (position, trail length before it, untried colors) per open choice
    p = mark = 0
    left = allowed(order[0]) & cap[0]
    while True:
        while left:
            c = (left & -left).bit_length() - 1  # lowest untried color
            left ^= 1 << c
            assign(order[p], c)
            if propagate(order[p]):
                break
            undo(mark)
        else:
            if not choices:
                return None
            p, mark, left = choices.pop()
            undo(mark)
            continue
        choices.append((p, mark, left))
        while color[order[p]] >= 0:
            if p + 1 == n:
                return {v: palette[color[v]] for v in range(n)}
            cap[p + 1] = cap[p] | 2 << color[order[p]]  # ranks up to top[p + 1] + 1
            p += 1
        mark = len(trail)
        left = allowed(order[p]) & cap[p]


def odd_chromatic_number(g: Graph) -> int:
    """Minimum k such that an odd k-coloring exists.

    Always finite: coloring every vertex with its own color is odd, so the
    search over k = 1, 2, ... terminates by n at the latest.
    """
    if g.n == 0:
        return 0
    empty: RSet = frozenset()
    setup = _solver_setup(g, empty)
    for k in range(1, g.n + 1):
        if _search(RelaxedInstance(g, empty, uniform_lists(g.n, k)), *setup) is not None:
            return k
    raise AssertionError("unreachable: rainbow coloring is always odd")


@dataclass(frozen=True)
class ChoosabilityReport:
    """Outcome of sampling k-list-assignments in search of a refutation."""

    k: int
    trials: int
    universe: int
    seed: int
    refutations: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]
    # (trial index, per-vertex sorted lists) for every unsolvable assignment

    @property
    def refuted(self) -> bool:
        return bool(self.refutations)

    def summary(self) -> str:
        if self.refuted:
            t = self.refutations[0][0]
            return f"refutation found at trial {t}"
        return "no refutation found"


def sampled_choosability(
    g: Graph, k: int, r: RSet, trials: int, universe: int | None = None, seed: int = 0
) -> ChoosabilityReport:
    """Sampled evidence for odd k-choosability under relaxation set r.

    Draws ``trials`` k-list-assignments with colors from {1..universe}
    (default universe 2k) and records every assignment the solver refutes.
    A sampler, not a decision procedure: "no refutation found" is evidence,
    not proof.
    """
    if universe is None:
        universe = 2 * k
    if universe < k:
        raise ValueError("universe must be at least k")
    rng = random.Random(seed)
    palette = range(1, universe + 1)  # sampled by index, never built
    setup = _solver_setup(g, r)
    found = []
    for t in range(trials):
        lists = ListAssignment(
            tuple(frozenset(rng.sample(palette, k)) for _ in range(g.n))
        )
        if _search(RelaxedInstance(g, r, lists), *setup) is None:
            found.append((t, tuple(tuple(sorted(s)) for s in lists.lists)))
    return ChoosabilityReport(k, trials, universe, seed, tuple(found))


# -- low-degree reduction and extension ---------------------------------------


class ReductionError(ValueError):
    """The reduction preconditions fail; the message names the failed case."""


@dataclass(frozen=True)
class ReductionRecord:
    """What a low-degree reduction removed and how to undo it.

    ``case`` is one of "isolated", "pendant" (degree 1), "relaxed_edge"
    (degree 2, the removed vertex rides a relaxation edge) and "bridge"
    (degree 2, the neighbor pair gets joined by a fresh relaxation edge).
    """

    case: str
    vertex: int
    neighbors: tuple[int, ...]
    graph: Graph
    r: RSet
    reduced_graph: Graph
    reduced_r: RSet
    relabel: dict[int, int]  # old vertex -> reduced vertex


def reduce_low_degree(g: Graph, r: RSet, v: int) -> ReductionRecord:
    """Remove a vertex of degree <= 2, preserving the cycle hypotheses.

    Degree 0/1 and degree 2 with an incident relaxation edge reduce to G - v.
    Otherwise (degree 2, neighbors a, b) the instance reduces to G - v plus a
    fresh edge ab added to the relaxation set; ab must not already exist,
    which is guaranteed whenever the cycle hypotheses hold (a triangle avb
    would have weighted length 3 or 4).  The returned record holds the
    reduced instance as ``reduced_graph`` and ``reduced_r``.
    """
    g.check_vertex(v)
    nbrs = tuple(sorted(g.adj[v]))
    d = len(nbrs)
    if d > 2:
        raise ReductionError(f"vertex {v} has degree {d} > 2")
    reduced, relabel = g.remove_vertex(v)

    def push(edges: Iterable[Edge]) -> RSet:
        return frozenset(
            normalize_edge(relabel[a], relabel[b]) for a, b in edges if v not in (a, b)
        )

    if d < 2 or any(v in e for e in r):
        case = ("isolated", "pendant", "relaxed_edge")[d]
        return ReductionRecord(case, v, nbrs, g, r, reduced, push(r), relabel)
    a, b = nbrs
    if g.has_edge(a, b):
        raise ReductionError(
            f"neighbors {a},{b} of {v} are adjacent: the triangle has weighted "
            "length 3 or 4, so the instance fails the cycle hypotheses"
        )
    new_edge = normalize_edge(relabel[a], relabel[b])
    return ReductionRecord(
        "bridge", v, nbrs, g, r, reduced.add_edge(*new_edge), push(r) | {new_edge}, relabel
    )


def extend_low_degree(
    record: ReductionRecord, reduced_coloring: Coloring, lists: ListAssignment
) -> Coloring:
    """Extend a valid coloring of the reduced instance back over the removed
    vertex.

    The removed vertex avoids its neighbors' colors plus the protected parity
    witnesses of its even-degree neighbors; at most 4 colors are excluded, so
    a 5-list always has room.  The result passes the relaxed-odd check on the
    original instance whenever the input passes it on the reduced one.
    """
    g, r, v = record.graph, record.r, record.vertex
    if len(lists) != g.n:
        raise ValueError("lists must cover the original graph")
    if len(lists[v]) != 5:
        raise ValueError("the removed vertex needs a 5-list")
    reduced_lists = ListAssignment(
        tuple(lists[old] for old, _ in sorted(record.relabel.items(), key=lambda kv: kv[1]))
    )
    inst = RelaxedInstance(record.reduced_graph, record.reduced_r, reduced_lists)
    if not is_relaxed_odd(inst, reduced_coloring):
        raise ValueError("reduced coloring does not satisfy the reduced instance")

    colors: Coloring = {old: reduced_coloring[new] for old, new in record.relabel.items()}
    if record.case not in ("isolated", "pendant", "relaxed_edge", "bridge"):
        raise ValueError(f"unknown reduction case {record.case!r}")
    # A neighbor across a relaxation edge is relaxed, so outside the bridge
    # case only the parity witnesses of non-relaxed neighbors need keeping.
    protected = record.neighbors
    if record.case != "bridge":
        relaxed = relaxed_flags(g, r)
        protected = tuple(x for x in protected if not relaxed[x])
    forbidden = {colors[x] for x in record.neighbors}
    for x in protected:
        w = _smallest_odd_color(colors[u] for u in g.adj[x] if u != v)
        if w is not None:
            forbidden.add(w)
    candidates = sorted(lists[v] - forbidden)
    if not candidates:
        raise AssertionError("a 5-list cannot be exhausted by <= 4 exclusions")
    colors[v] = candidates[0]
    return colors
