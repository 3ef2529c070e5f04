"""Combinatorial maps: rotation systems with edge signatures.

An embedding of a connected simple graph is described by a cyclic order of
neighbors around every vertex plus a sign in {+1, -1} per edge; -1 marks
orientation-reversing edges, which is what makes non-orientable surfaces
(projective plane, Klein bottle) expressible with a single formalism.

Faces are traced with the flag construction: every (vertex, edge) incidence
carries two flags, one per corner side, and the two involutions "turn the
corner" and "cross the edge" generate orbits that are exactly the face
boundary walks.  Each edge index occurs exactly twice over all walks, so the
face lengths sum to 2|E| and the Euler genus 2 - (|V| - |E| + |F|) is well
defined.  A face is the tuple of its darts as its trace met them, smallest
first; walks need not partition the darts (C5's two faces are one tuple).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from .graphs import Graph, girth

Dart = tuple[int, int]  # (tail vertex, edge index): one traversal step of a walk
# A face's closed boundary walk, as its trace met it: step i, a dart (v, e),
# traverses edge e away from tail v, whose head is the tail of step i + 1.
# The corner at the tail of step i sits between the edges of steps i - 1 and i.
FaceWalk = tuple[Dart, ...]
_SIGNS = frozenset((1, -1))


def trace_faces(emb: EmbeddedGraph) -> tuple[FaceWalk, ...]:
    """Trace the face walks of ``emb``: each edge occurs twice over all walks.

    The next-dart rule is the rotation successor, reflected on the far side
    of a -1 edge.  A flag is a (vertex, rotation position, side) triple,
    numbered 2 * slot + side, where the slots count rotation positions vertex
    by vertex.  ``turn[f]`` is the corner turn of flag f (side 1 turns to
    the next position, side 0 to the previous one): two range slices give
    every turn within a vertex's slots, and one pass over the vertices
    wraps the turns at the ends of each.  One pass over the edges, which
    finds each dart's slot by the integer key tail * n + head, builds
    ``crossed[f]``, the flag across f's edge (the side flips on a +1 edge
    and stays on a -1 edge), and ``step[f]``, the corner turn from
    ``crossed[f]``.  Each face walk then follows ``step`` from the first
    unseen flag.
    """
    graph = emb.graph
    n = graph.n
    if n == 1 and not graph.edges:
        return ((),)

    keys = [v * n + w for v, order in enumerate(emb.rotation) for w in order]
    slots = len(keys)
    slot_of = dict(zip(keys, range(slots)))
    turn = [0] * (2 * slots)
    turn[0::2] = range(-1, 2 * slots - 1, 2)  # side 0 of slot s: side 1 of s - 1
    turn[1::2] = range(2, 2 * slots + 2, 2)  # side 1 of slot s: side 0 of s + 1
    first = 0
    for order in emb.rotation:
        last = first + len(order) - 1
        turn[2 * first] = 2 * last + 1
        turn[2 * last + 1] = 2 * first
        first = last + 1
    crossed = [0] * len(turn)
    darts: list = [None] * slots
    for e, ((a, b), sign) in enumerate(zip(graph.edges, emb.signs)):
        x, y = slot_of[a * n + b], slot_of[b * n + a]
        darts[x], darts[y] = (a, e), (b, e)
        flip = sign == 1
        crossed[2 * x], crossed[2 * x + 1] = 2 * y + flip, 2 * y + 1 - flip
        crossed[2 * y], crossed[2 * y + 1] = 2 * x + flip, 2 * x + 1 - flip
    step = [turn[c] for c in crossed]

    seen = bytearray(len(turn))
    faces: list[FaceWalk] = []
    for start in range(len(turn)):
        if seen[start]:
            continue
        walk: list[Dart] = []
        f = start
        while True:
            seen[f] = seen[crossed[f]] = 1
            walk.append(darts[f >> 1])
            f = step[f]
            if f == start:
                break
        # the smallest dart leads; the direction is the trace's
        k = walk.index(min(walk))
        faces.append(tuple(walk[k:] + walk[:k]))
    return tuple(faces)


class EmbeddedGraph:
    """A connected graph with a signed rotation system: a cyclic order of
    the neighbors of every vertex, and a sign per edge index (all +1 when
    ``signs`` is None).

    Both are checked against the graph on construction.  The faces are
    traced on the first read of ``faces`` or ``euler_genus`` and kept.
    """

    __slots__ = ("graph", "rotation", "signs", "_faces")

    def __init__(self, graph: Graph, rotation: Sequence[Sequence[int]], signs: Sequence[int] | None = None):
        if graph.n == 0:
            raise ValueError("an embedding needs at least one vertex; the graph has none")
        if len(rotation) != graph.n:
            raise ValueError("rotation must list every vertex")
        rot = tuple(map(tuple, rotation))
        for v, (order, nbrs) in enumerate(zip(rot, graph.adj)):
            if len(order) != len(nbrs) or nbrs != set(order):
                raise ValueError(f"rotation[{v}]: expected an order of the neighbors {sorted(nbrs)}, got {list(order)}")
        signs = (1,) * len(graph.edges) if signs is None else tuple(signs)
        if len(signs) != len(graph.edges):
            raise ValueError(f"signs: expected {len(graph.edges)} entries, one per edge, got {len(signs)}")
        if not _SIGNS.issuperset(signs):
            i, s = next((i, s) for i, s in enumerate(signs) if s not in _SIGNS)
            raise ValueError(f"signs[{i}]: expected 1 or -1, got {s}")
        if not graph.is_connected():
            raise ValueError("face tracing needs a connected graph")
        self.graph = graph
        self.rotation: tuple[tuple[int, ...], ...] = rot
        self.signs: tuple[int, ...] = signs
        self._faces: tuple[FaceWalk, ...] | None = None

    @property
    def faces(self) -> tuple[FaceWalk, ...]:
        if self._faces is None:
            self._faces = trace_faces(self)
        return self._faces

    @property
    def euler_genus(self) -> int:
        return 2 - (self.graph.n - len(self.graph.edges) + len(self.faces))

    def is_orientable(self) -> bool:
        # 2-color the vertices so that a -1 edge joins two colors and a +1
        # edge one; the embedding is orientable exactly when that succeeds
        g = self.graph
        side = [-1] * g.n
        side[0] = 0
        stack = [0]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                want = side[u] ^ (self.signs[g.edge_index((u, w))] == -1)
                if side[w] < 0:
                    side[w] = want
                    stack.append(w)
                elif side[w] != want:
                    return False
        return True


def sorted_rotation(graph: Graph, signs: Sequence[int] | None = None) -> EmbeddedGraph:
    """The embedding whose rotation lists neighbors in increasing order."""
    return EmbeddedGraph(graph, [sorted(graph.adj[v]) for v in range(graph.n)], signs)


# -- embedding search --------------------------------------------------------


# a dart of the face search: (dart number, head vertex, edge index, reverse dart)
_DartRow = tuple[int, int, int, int]
_DartTables = tuple[tuple[_DartRow, ...], tuple[tuple[_DartRow, ...], ...]]


def _dart_tables(g: Graph) -> _DartTables:
    """The darts of ``g`` as (dart, head, edge, reverse) tuples: all of them
    by dart number, and the darts leaving each vertex.

    Darts are numbered vertex by vertex, neighbours in increasing order.
    ``g.edges`` is in lexicographic order, so each vertex meets its edges in
    increasing order of the other end, and one pass over them, with a next
    free slot per vertex, numbers every dart, its reverse and its edge.
    """
    total = 2 * len(g.edges)
    bounds = list(accumulate(map(len, g.adj), initial=0))  # each vertex's first dart
    slot = bounds[:-1]
    head = [0] * total
    edge_of = [0] * total
    rev = [0] * total
    for e, (a, b) in enumerate(g.edges):
        x, y = slot[a], slot[b]
        slot[a], slot[b] = x + 1, y + 1
        head[x], head[y] = b, a
        edge_of[x] = edge_of[y] = e
        rev[x], rev[y] = y, x
    darts = tuple(zip(range(total), head, edge_of, rev))
    return darts, tuple(darts[i:j] for i, j in zip(bounds, bounds[1:]))


def _face_search(
    tables: _DartTables, min_faces: int, min_len: int, signed: bool = False
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """Depth-first search over signed rotation systems, building faces dart
    by dart on an explicit stack; returns the (rotation, signs) pair of the
    first embedding with ``min_faces`` faces, or None.  ``tables`` are the
    graph's darts from ``_dart_tables``, built once per ``embed_search``
    call and read, never changed, by each of its runs.

    A walk state is a dart plus the local orientation eps it is walked in.
    Arriving at w over edge e with eps' = eps * sign(e), the search chooses
    the next dart b at w: the rotation successor of the return dart a when
    eps' = +1 (sigma(a) = b), its predecessor when eps' = -1 (sigma(b) = a).
    Each edge side is walked once, so a state is marked used together with
    its mirror, the same side walked backwards.  Every sign is +1 unless
    ``signed``; then each edge gets its sign, +1 then -1, when a walk first
    crosses it, except that an edge crossed into a vertex h whose edges are
    all still unsigned gets +1 only.  No walk has reached h, so no link or
    sign at h is decided, and switching h (reversing its rotation and
    negating its edges; Mohar & Thomassen, *Graphs on Surfaces*, ch. 3-4)
    turns any embedding on the -1 branch into one on the +1 branch with the
    same faces, so the search stays complete up to switching.  A face
    closes when the walk returns to its starting state.  Each edge side is
    walked once, which settles two things with no test.  A face opens on
    the first unused state, and that has eps = +1: a closed face crosses -1
    edges an even number of times, alternately with eps +1 (marking two +1
    states) and eps -1 (two -1 states), and each side of a +1 edge marks
    one state of each kind, so while a side is unused so is a +1 state.
    And a corner x -> y is linked only while x has no successor and y no
    predecessor, since the face that links it walks both sides there.
    ``min_len`` is a lower bound on every face length, so a face opened at
    root v with faces_done faces closed may close with at most
    limit = total - (min_faces - faces_done - 1) * min_len darts in use.
    The budget is checked as each face opens: it opens only if
    used_count + min_len <= limit, which at the root is Euler's bound
    min_faces * min_len <= 2E.  An open walk then steps onto dart b only if
    used_count + 1 + dist(head(b), v) <= limit.  Distances come from one BFS
    ball per root, built when a face first opens there and cut at the
    longest face the target allows.  Both tests cut only subtrees that hold
    no embedding with min_faces faces, so the search returns the first such
    embedding in search order, as it would unpruned.
    Complete up to mirror images: an embedding and its mirror (rotations
    reversed, signs kept) walk the first face alike up to its first vertex z
    of degree >= 3 and leave z by different darts, so skipping the largest
    there keeps the earlier of the two.  Of each mirror pair, under every
    choice of signs, at least one member lies on a search path; both do when
    neither leaves z by its largest dart, which z of degree > 3 allows.  The
    mirror is the switch of every vertex, so this cut and the switching rule
    together still reach every switching class.
    """
    darts, out = tables
    total = len(darts)  # 2m
    sign = [0 if signed else 1] * (total // 2)  # 0: not chosen yet

    # per-dart rotation links: succ[a] = b when sigma(a) = b, -1 when unset.
    # The links at a vertex form paths until the last one closes them into a
    # single cycle through all its darts.
    succ = [-1] * total

    # state s < total walks dart s with eps = +1, state s >= total walks
    # dart s - total with eps = -1
    used = [False] * (2 * total)

    # the mirror cut: walk the forced first face from dart 0 to z, ``at``
    # darts; a walk that closes first never meets z and gets no cut
    at, cut = -1, ()
    _, w, _, a = darts[0]
    for count in range(1, total + 1):
        here = out[w]
        if len(here) >= 3:
            top = max(t for t in here if t[0] != a)
            at, cut = count, tuple(t for t in here if t is not top)
            break
        _, w, _, a = next((t for t in here if t[0] != a), darts[a])

    # A walk standing at w needs at least dist(w, root) more darts to close.
    # Balls are cut at the longest face the target allows, less the two darts
    # a walk holds when it is tested, so a vertex outside one counts as
    # ``far``, which prunes as its true distance would.
    reach = total - (min_faces - 1) * min_len - 2
    far = reach + 1
    balls: dict[int, dict[int, int]] = {}

    def ball(v: int) -> dict[int, int]:
        dist = {v: 0}
        frontier = [v]
        for d in range(1, reach + 1):
            if not frontier:
                break
            nxt = []
            for u in frontier:
                for _, w, _, _ in out[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def fresh(h: int) -> bool:
        """No edge at h has a sign yet: no walk has reached h."""
        return all(sign[f] == 0 for _, _, f, _ in out[h])

    # Each node of the search is a generator that yields its children, also
    # generators, in search order, and restores the state it changed when
    # resumed.  Only children that pass the bound are yielded.  A child that
    # closes a face always passes, since its bound is the one its parent
    # passed; closing the last face yields None.  Entering a state marks it
    # and its mirror, after choosing the sign of its edge if that is open;
    # an edge whose sign is set is entered once, with no choice to undo.
    def begin(faces_done: int, used_count: int, after: int):
        """Open a face at the first unused state past ``after``, the start
        of the previous face: every state before it is in use."""
        # the most darts in use once this face closes that still leave
        # min_len darts for each face still missing
        limit = total - (min_faces - faces_done - 1) * min_len
        if used_count + min_len > limit:
            return
        s = after + 1
        while used[s]:
            s += 1
        _, w, e, r = darts[s]
        root = darts[r][1]
        dist = balls.get(root)
        if dist is None:
            dist = balls[root] = ball(root)
        was = sign[e]
        for sg in (was,) if was else (1,) if fresh(w) else (1, -1):
            sign[e] = sg
            ahead = sg == 1
            mirror = r + total if ahead else r
            used[s] = used[mirror] = True
            yield extend(faces_done, used_count + 1, s, w, r, ahead, dist, limit)
            used[s] = used[mirror] = False
        sign[e] = was

    def extend(
        faces_done: int, used_count: int, start: int, w: int, a: int, forward: bool,
        dist: dict[int, int], limit: int,
    ):
        """Continue an open walk that has arrived at w, a the return dart,
        with eps' = +1 iff ``forward``; ``dist`` is the ball of the face's
        root and ``limit`` the most darts in use when the face closes."""
        slack = limit - used_count - 1  # darts left to close after one more
        offset = 0 if forward else total
        size = len(out[w])
        step = used_count + 1
        for b, h, e, r in cut if faces_done == 0 and used_count == at else out[w]:
            s = b + offset
            if used[s]:
                if s != start:
                    continue
            elif dist.get(h, far) > slack:
                continue
            if forward:
                x, y = a, b
            else:
                x, y = b, a
            # set sigma(x) = y, unless the link would close a cycle through
            # fewer than all the darts at w.  x has no successor and y no
            # predecessor yet (each side is walked once), so the walk from y
            # along succ ends, after at most size - 1 steps, at the end of
            # y's path; the link closes a cycle exactly when that end is x.
            end, length = y, 1
            while succ[end] != -1:
                end = succ[end]
                length += 1
            if end == x and length != size:
                continue
            succ[x] = y
            sg = sign[e]
            if s == start:
                yield begin(faces_done + 1, used_count, start) if used_count < total else None
            elif sg:
                ahead = forward == (sg == 1)
                mirror = r + total if ahead else r
                used[s] = used[mirror] = True
                yield extend(faces_done, step, start, h, r, ahead, dist, limit)
                used[s] = used[mirror] = False
            else:
                for sg in (1,) if fresh(h) else (1, -1):
                    sign[e] = sg
                    ahead = forward == (sg == 1)
                    mirror = r + total if ahead else r
                    used[s] = used[mirror] = True
                    yield extend(faces_done, step, start, h, r, ahead, dist, limit)
                    used[s] = used[mirror] = False
                sign[e] = 0
            succ[x] = -1

    stack = [begin(0, 0, -1)]
    push, pop = stack.append, stack.pop
    while stack:
        for child in stack[-1]:
            break
        else:  # no children left
            pop()
            continue
        if child is None:
            break
        push(child)
    # extend refers to itself and to begin, which refers back: break the
    # cycle, so the search state is freed on return and not at the next
    # full garbage collection
    del begin, extend
    if not stack:
        return None

    rotation = []
    for here in out:
        first, w, _, _ = here[0]
        order = [w]
        d = succ[first]
        while d != first:
            order.append(darts[d][1])
            d = succ[d]
        rotation.append(tuple(order))
    return tuple(rotation), tuple(sign)


def embed_search(g: Graph, max_genus: int) -> EmbeddedGraph | None:
    """Find any 2-cell embedding of Euler genus <= max_genus, or None.

    Exhaustive and deterministic.  One face-driven search runs at most
    twice, over dart tables built once per call.  The first run fixes every
    sign to +1, so it decides the orientable surfaces of Euler genus
    <= max_genus.  If that fails and max_genus >= 1, the second run chooses
    every sign and searches up to vertex switching, which keeps every face,
    so it decides every surface, and its embedding is returned.  Each run
    needs F = E - V + 2 - eg faces, each at least the girth long, a budget
    checked as each face opens (at the root, Euler's bound), and prunes an
    open face walk that cannot return to its first vertex, by BFS distance,
    within the darts the other faces leave it.  Both runs reach at least one
    of each mirror pair of rotation systems.  Exponential in general;
    practical for small graphs.
    """
    if max_genus not in (0, 1, 2):
        raise ValueError("max_genus must be 0, 1, or 2")
    if not g.is_connected():
        raise ValueError("embed_search needs a connected graph")
    m = len(g.edges)
    if g.n <= 1 or m == g.n - 1:
        # trees always embed in the sphere; any rotation works
        return sorted_rotation(g)
    # every face walk of a connected graph that is not a tree holds a cycle
    min_len = girth(g)
    # a sphere embedding has E - V + 2 faces, one fewer per unit of genus
    sphere_faces = m - g.n + 2
    # orientable surfaces have even Euler genus
    orient_target = max_genus - max_genus % 2
    tables = _dart_tables(g)
    found = _face_search(tables, sphere_faces - orient_target, min_len)
    if found is None and max_genus >= 1:
        found = _face_search(tables, sphere_faces - max_genus, min_len, signed=True)
    if found is None:
        return None
    emb = EmbeddedGraph(g, *found)
    if emb.euler_genus > max_genus:
        raise AssertionError("face search returned a too-large genus")
    return emb
