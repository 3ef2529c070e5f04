"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately simple and separate from the library's
algorithms: plain enumeration in natural vertex order, subset scans, a
brute-force embedding search over every rotation system and cotree sign
vector, and a Kuratowski subdivision search for planarity.  The quadratic
analysis loops the library replaced (recursive cycle enumeration, the
all-pairs 5-cycle scan, the per-negative witness scan behind
``explained_by``) are kept here unchanged to pin the order of their output,
and so is the per-edge-BFS ``girth`` it replaced.  The generator loop that
ran one bounded BFS per candidate edge is kept as ``girth_instances_reference``
to pin the distance-ball generator to the same graphs.  The solver's
chronological backtracking search is kept as ``solve_chronological_reference``
to pin the propagating search to the same first colorings.  The face tracer
that advanced tuple flags through two closures is kept as
``trace_faces_reference`` to pin the flat-table tracer to the same faces.
The face search from before its mirror cut is kept as
``face_search_reference`` to pin the cut search to the same embeddings.
The per-vertex relaxedness test that ``relaxed_flags`` replaced is kept as
``is_r_relaxed``, the reference for the flags.  Vertex switching, which the
library does not need, is kept as ``switched_reference`` to check that the
faces, the genus and orientability do not change under it.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from itertools import combinations, permutations, product

from oddcolor.coloring import Coloring, RelaxedInstance, solver_order
from oddcolor.embedding import EmbeddedGraph, FaceWalk
from oddcolor.generate import GenerationBudgetError, _two_core_component
from oddcolor.graphs import Cycle, Graph, RSet, girth, relaxed_flags


def solver_order_reference(g: Graph) -> list[int]:
    """The solver's vertex order by n linear scans: each step places the
    unplaced vertex with the largest (degree, placed neighbors, -id)."""
    n = g.n
    placed = [False] * n
    ordered_nbrs = [0] * n
    out = []
    for _ in range(n):
        v = max(
            (u for u in range(n) if not placed[u]),
            key=lambda u: (g.degree(u), ordered_nbrs[u], -u),
        )
        placed[v] = True
        out.append(v)
        for w in g.adj[v]:
            ordered_nbrs[w] += 1
    return out


def brute_force_relaxed_odd(inst, order=None) -> dict[int, int] | None:
    """Exhaustive search over all list colorings.

    Vertices are colored in ``order`` (natural order by default), each trying
    its list in increasing order, so the result is the first valid coloring
    in that lexicographic order.  Properness is pruned during enumeration;
    the parity condition is checked on complete assignments only.
    """
    g = inst.graph
    n = g.n
    order = list(range(n)) if order is None else order
    lists = [sorted(inst.lists[v]) for v in range(n)]
    relaxed = []
    for v in range(n):
        d = g.degree(v)
        relaxed.append(d == 0 or d % 2 == 1 or any(v in e for e in inst.r))
    colors: dict[int, int] = {}

    def ok_at_leaf() -> bool:
        for v in range(n):
            if relaxed[v] or not g.adj[v]:
                continue
            counts = Counter(colors[u] for u in g.adj[v])
            if not any(k % 2 == 1 for k in counts.values()):
                return False
        return True

    def rec(p: int):
        if p == n:
            return dict(colors) if ok_at_leaf() else None
        v = order[p]
        for c in lists[v]:
            if any(colors.get(u) == c for u in g.adj[v]):
                continue
            colors[v] = c
            got = rec(p + 1)
            if got is not None:
                return got
            del colors[v]
        return None

    return rec(0)


def solve_chronological_reference(inst: RelaxedInstance) -> Coloring | None:
    """The solver before backjumping and forced-color propagation, kept verbatim.

    Exact search for a relaxed-odd list coloring; None iff none exists.

    Depth-first search over solver_order on an explicit stack of (position,
    untried allowed colors), trying colors in increasing order, so the result
    is the first valid coloring in that lexicographic order.  Colors are
    bits indexed by rank in the union of the lists.  Each vertex keeps the
    XOR mask of the colors on its colored neighbors (the colors seen an odd
    number of times) and its count of uncolored neighbors.  A constrained
    vertex needs a nonzero mask once the count is 0, so at count 1 a
    single-color mask forbids that color to the last neighbor.  After each
    assignment, every uncolored neighbor and the last uncolored neighbor of
    each constrained neighbor must keep an allowed color.  This forward
    check only cuts subtrees without a solution, so it never changes which
    coloring is returned.

    When every vertex has the same list mask, position p tries only ranks up
    to top[p] + 1, where top[p] is the highest rank on order[:p].  This keeps
    the returned coloring: if the first valid coloring gave order[p] a rank
    c > top[p] + 1, swapping c and top[p] + 1 everywhere (both unused on the
    prefix, both in every list) would give a valid coloring that comes
    earlier in the search order.  UNSAT proofs shrink by up to k! this way.
    Lists that differ anywhere get the full search.
    """
    g = inst.graph
    n = g.n
    if n == 0:
        return {}
    palette = sorted(set().union(*inst.lists.lists))
    rank = {col: i for i, col in enumerate(palette)}
    list_mask = [sum(1 << rank[col] for col in inst.lists[v]) for v in range(n)]
    adj = [tuple(g.adj[v]) for v in range(n)]
    constrained = [not x for x in relaxed_flags(g, inst.r)]
    color = [-1] * n
    mask = [0] * n
    uncolored = [len(a) for a in adj]

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
        for w in adj[u]:
            mask[w] ^= 1 << c
            uncolored[w] -= 1

    def unassign(u: int) -> None:
        for w in adj[u]:
            mask[w] ^= 1 << color[u]
            uncolored[w] += 1
        color[u] = -1

    def forward_ok(u: int) -> bool:
        for w in adj[u]:
            if color[w] < 0 and not allowed(w):
                return False
            if constrained[w] and uncolored[w] == 1:
                if not allowed(next(x for x in adj[w] if color[x] < 0)):
                    return False
        return True

    # cap[p]: the ranks position p may try, as a bit mask.  With one list
    # everywhere these are the ranks up to top[p] + 1, else all ranks (-1).
    cap = [1 if len(set(list_mask)) == 1 else -1] * n
    order = solver_order(g)
    stack = [(0, allowed(order[0]) & cap[0])]
    while stack:
        p, untried = stack.pop()
        u = order[p]
        if color[u] >= 0:
            unassign(u)
        while untried:
            c = (untried & -untried).bit_length() - 1  # lowest untried color
            untried ^= 1 << c
            assign(u, c)
            if forward_ok(u):
                break
            unassign(u)
        else:
            continue
        if p + 1 == n:
            return {v: palette[color[v]] for v in range(n)}
        stack.append((p, untried))
        cap[p + 1] = cap[p] | 2 << c  # ranks up to max(top[p], c) + 1
        stack.append((p + 1, allowed(order[p + 1]) & cap[p + 1]))
    return None


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by exhaustive k-coloring search."""
    if g.n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors: dict[int, int] = {}

        def rec(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(k):
                if any(colors.get(u) == c for u in g.adj[v]):
                    continue
                colors[v] = c
                if rec(v + 1):
                    return True
                del colors[v]
            return False

        return rec(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def is_r_relaxed(v: int, g: Graph, r: RSet) -> bool:
    """True iff deg(v) is odd or 0, or v is incident with a relaxation edge."""
    g.check_vertex(v)
    d = g.degree(v)
    if d == 0 or d % 2 == 1:
        return True
    return any(v in e for e in r)


def cycles_by_subsets(g: Graph, max_edges: int) -> set[tuple[int, ...]]:
    """Every cycle with at most max_edges edges, canonicalized, via subset scan."""
    found = set()
    for size in range(3, max_edges + 1):
        for sub in combinations(range(g.n), size):
            first, rest = sub[0], sub[1:]
            for perm in permutations(rest):
                if len(perm) >= 2 and perm[0] > perm[-1]:
                    continue  # reflection
                seq = (first,) + perm
                if all(
                    g.has_edge(seq[i], seq[(i + 1) % size]) for i in range(size)
                ):
                    found.add(seq)
    return found


def girth_reference(g: Graph) -> int | float:
    """Minimum cycle edge count; ``math.inf`` for forests.

    Computed per edge: remove it and measure the shortest remaining path
    between its endpoints.
    """
    best: int | float = math.inf
    for u, v in g.edges:
        # BFS from u to v avoiding the edge uv
        dist = {u: 0}
        frontier = [u]
        found = None
        while frontier and found is None:
            nxt = []
            for a in frontier:
                for b in g.adj[a]:
                    if a == u and b == v:
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        if b == v:
                            found = dist[b]
                            break
                        nxt.append(b)
                if found is not None:
                    break
            frontier = nxt
        if found is not None and found + 1 < best:
            best = found + 1
    return best


def _bfs_distance(adj: list[set[int]], s: int, t: int, cap: int) -> int:
    """Shortest path length s..t, or cap if it is at least cap."""
    if s == t:
        return 0
    dist = {s: 0}
    q = deque([s])
    while q:
        u = q.popleft()
        if dist[u] + 1 >= cap:
            continue
        for w in adj[u]:
            if w not in dist:
                if w == t:
                    return dist[u] + 1
                dist[w] = dist[u] + 1
                q.append(w)
    return cap


def girth_instances_reference(
    n: int, min_girth: int, count: int, seed: int, attempts_per_instance: int = 60
) -> list[Graph]:
    """``generate_girth_instances`` with one bounded BFS per candidate edge."""
    if min_girth < 3:
        raise ValueError("min_girth must be at least 3")
    if n < 3 or count < 1:
        raise ValueError("need n >= 3 and count >= 1")
    rng = random.Random(seed)
    out: list[Graph] = []
    budget = count * attempts_per_instance
    attempts = 0
    while len(out) < count:
        if attempts >= budget:
            raise GenerationBudgetError(
                f"generated {len(out)} of {count} instances in {attempts} attempts"
                f" (n={n}, min_girth={min_girth})"
            )
        attempts += 1
        candidates = list(combinations(range(n), 2))
        rng.shuffle(candidates)
        adj: list[set[int]] = [set() for _ in range(n)]
        edges: set[tuple[int, int]] = set()
        for u, v in candidates:
            # adding uv closes a cycle of length dist(u,v) + 1
            if _bfs_distance(adj, u, v, min_girth - 1) >= min_girth - 1:
                adj[u].add(v)
                adj[v].add(u)
                edges.add((u, v))
        g = _two_core_component(n, edges)
        if g is None:
            continue
        gi = girth(g)
        if gi < min_girth:
            raise AssertionError("girth rejection failed")
        out.append(g)
    return out


def enumerate_cycles_reference(g: Graph, max_edge_count: int) -> list[Cycle]:
    """Recursive depth-first cycle enumeration without pruning; cycles in
    lexicographic order of their canonical vertex sequences."""
    if max_edge_count < 3:
        raise ValueError("max_edge_count must be at least 3")
    out: list[Cycle] = []
    adj_sorted = [sorted(g.adj[v]) for v in range(g.n)]
    path: list[int] = []
    on_path = [False] * g.n

    def extend(start: int, u: int) -> None:
        for w in adj_sorted[u]:
            if w == start and len(path) >= 3 and path[1] < path[-1]:
                out.append(tuple(path))
            if w <= start or on_path[w] or len(path) == max_edge_count:
                continue
            path.append(w)
            on_path[w] = True
            extend(start, w)
            on_path[w] = False
            path.pop()

    for s in range(g.n):
        path = [s]
        on_path[s] = True
        extend(s, s)
        on_path[s] = False
    return out


def cycle_edge_set(c: Cycle) -> frozenset[tuple[int, int]]:
    """The edges of the cycle through the vertices of ``c`` in order, each
    as a sorted pair."""
    return frozenset(tuple(sorted(e)) for e in zip(c, c[1:] + c[:1]))


def five_pairs_reference(fives: list[Cycle]) -> list[tuple[Cycle, Cycle, tuple[int, int]]]:
    """Every pair of the given cycles sharing exactly one edge, by scanning
    all pairs in order."""
    pairs = []
    for c1, c2 in combinations(fives, 2):
        shared = cycle_edge_set(c1) & cycle_edge_set(c2)
        if len(shared) == 1:
            pairs.append((c1, c2, min(shared)))
    return pairs


def _mentions(witness: dict, element) -> bool:
    kind, idx = element
    vertex_keys = (
        "vertex", "x", "y", "z", "non_relaxed_vertex", "degree_3_end",
        "relaxed_neighbors", "neighbors", "prime_neighbors",
    )
    face_keys = ("three_face", "four_face", "face_a", "face_b", "faces",
                 "third_face", "face_with_primes", "other_face")
    keys = vertex_keys if kind == "v" else face_keys
    for k in keys:
        val = witness.get(k)
        if val == idx or (isinstance(val, (list, tuple)) and idx in val):
            return True
    return False


def explained_by_reference(negatives, audit) -> tuple:
    """For each negative element, the violated lemmas whose witnesses name
    it, by scanning every witness once per element."""
    explained = []
    for el, _ in negatives:
        lemmas = tuple(
            entry.lemma
            for entry in audit.violated()
            if any(_mentions(w, el) for w in entry.witnesses)
        )
        explained.append((f"{el[0]}{el[1]}", lemmas))
    return tuple(explained)


def trace_faces_orientable_oracle(g: Graph, rotation) -> list[int]:
    """Face lengths of an all-positive rotation system, via the classical
    dart successor rule: after dart (u, v) walk the successor of v->u at v."""
    succ = []
    for v in range(g.n):
        order = rotation[v]
        succ.append({order[i]: order[(i + 1) % len(order)] for i in range(len(order))})
    darts = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    lengths = []
    while darts:
        start = min(darts)
        d = start
        steps = 0
        while True:
            darts.discard(d)
            steps += 1
            u, v = d
            d = (v, succ[v][u])
            if d == start:
                break
        lengths.append(steps)
    return sorted(lengths)


def trace_faces_reference(emb: EmbeddedGraph) -> tuple[FaceWalk, ...]:
    """Face walks by flag tracing: flags (vertex, position, side) are advanced
    by alternating the corner involution with the edge-crossing involution."""
    graph = emb.graph
    if not graph.is_connected():
        raise ValueError("face tracing needs a connected graph")
    if graph.n == 1 and not graph.edges:
        return ((),)

    pos_of = [
        {w: i for i, w in enumerate(emb.rotation[v])} for v in range(graph.n)
    ]
    edge_at = [[graph.edge_index((v, w)) for w in order] for v, order in enumerate(emb.rotation)]

    def cross(v: int, p: int, s: int) -> tuple[int, int, int]:
        w = emb.rotation[v][p]
        s2 = s ^ 1 if emb.signs[edge_at[v][p]] == 1 else s
        return (w, pos_of[w][v], s2)

    def corner(v: int, p: int, s: int) -> tuple[int, int, int]:
        d = len(emb.rotation[v])
        if s == 1:
            return (v, (p + 1) % d, 0)
        return (v, (p - 1) % d, 1)

    seen: set[tuple[int, int, int]] = set()
    faces: list[FaceWalk] = []
    all_flags = [
        (v, p, s)
        for v in range(graph.n)
        for p in range(len(emb.rotation[v]))
        for s in (0, 1)
    ]
    for start in all_flags:
        if start in seen:
            continue
        walk = []
        flag = start
        while True:
            seen.add(flag)
            v, p, _ = flag
            walk.append((v, edge_at[v][p]))
            crossed = cross(*flag)
            seen.add(crossed)
            flag = corner(*crossed)
            if flag == start:
                break
        k = walk.index(min(walk))  # the smallest dart leads
        faces.append(tuple(walk[k:] + walk[:k]))
    return tuple(faces)


def is_orientable_reference(e: EmbeddedGraph) -> bool:
    """Orientability by a DFS that 2-colors the vertices by sign parity."""
    # after contracting a spanning tree, orientability is the product of
    # signs over every cycle; equivalently no cycle has an odd number of
    # -1 edges
    n = e.graph.n
    if n == 0:
        return True
    mark: dict[int, int] = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in e.graph.adj[u]:
            s = 0 if e.signs[e.graph.edge_index((u, w))] == 1 else 1
            if w not in mark:
                mark[w] = mark[u] ^ s
                stack.append(w)
            elif mark[w] != mark[u] ^ s:
                return False
    return True


def dfs_tree_reference(g: Graph) -> list[tuple[int, int]]:
    """(parent, child) edges of the depth-first spanning tree from vertex 0
    that takes neighbors in increasing order: the tree whose edges
    ``embed_search`` keeps at sign +1."""
    tree, seen, stack = [], {0}, [0]
    while stack:
        u = stack.pop()
        for w in sorted(g.adj[u]):
            if w not in seen:
                seen.add(w)
                tree.append((u, w))
                stack.append(w)
    return tree


def switched_reference(e: EmbeddedGraph) -> EmbeddedGraph:
    """``e`` with vertices switched so that every edge of
    ``dfs_tree_reference`` has sign +1.  Switching a vertex reverses its
    rotation and flips the signs of its edges; it keeps the face lengths,
    the Euler genus and orientability."""
    g = e.graph
    flip = [False] * g.n
    for u, w in dfs_tree_reference(g):
        flip[w] = flip[u] != (e.signs[g.edge_index((u, w))] == -1)
    signs = [-s if flip[u] != flip[v] else s for (u, v), s in zip(g.edges, e.signs)]
    rotation = [order[::-1] if flip[v] else order for v, order in enumerate(e.rotation)]
    return EmbeddedGraph(g, rotation, signs)


# -- embedding oracle ------------------------------------------------------------


def _vertex_rotation_candidates(g: Graph, halve_at: int | None) -> list[list[tuple[int, ...]]]:
    cands = []
    for v in range(g.n):
        nbrs = sorted(g.adj[v])
        if not nbrs:
            cands.append([()])
            continue
        first, rest = nbrs[0], nbrs[1:]
        orders = [(first,) + p for p in permutations(rest)]
        if v == halve_at:
            orders = [o for o in orders if o[1:] <= tuple(reversed(o[1:]))]
        cands.append(orders)
    return cands


def signed_search_reference(g: Graph, max_genus: int) -> tuple[tuple, tuple] | None:
    """Brute force over sign vectors (spanning tree normalized to +1) and
    rotations.  Only used for non-orientable targets; intended for small
    graphs."""
    m = len(g.edges)
    parent_edge: set[int] = set()
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for w in sorted(g.adj[u]):
            if not seen[w]:
                seen[w] = True
                parent_edge.add(g.edge_index((u, w)))
                stack.append(w)
    cotree = [i for i in range(m) if i not in parent_edge]
    halve_at = next((v for v in range(g.n) if g.degree(v) >= 3), None)
    cands = _vertex_rotation_candidates(g, halve_at)

    for weight in range(1, len(cotree) + 1):
        for neg in combinations(cotree, weight):
            signs = [1] * m
            for i in neg:
                signs[i] = -1
            signs_t = tuple(signs)

            # plain nested product over vertex rotations
            def product_dfs(v: int, chosen: list[tuple[int, ...]]) -> tuple[tuple, tuple] | None:
                if v == g.n:
                    emb = EmbeddedGraph(g, chosen, signs_t)
                    if emb.euler_genus <= max_genus:
                        return emb.rotation, emb.signs
                    return None
                for order in cands[v]:
                    found = product_dfs(v + 1, chosen + [order])
                    if found is not None:
                        return found
                return None

            found = product_dfs(0, [])
            if found is not None:
                return found
    return None


def face_search_reference(
    g: Graph, min_faces: int, min_len: int, free: frozenset[int] = frozenset()
) -> tuple[tuple, tuple] | None:
    """The face search as it was before the mirror cut: every rotation
    system, under every choice of the free signs, on exactly one search
    path.  Pins the cut search to the same first embedding and the same
    refutations."""
    n = g.n
    m = len(g.edges)
    darts: list[tuple[int, int]] = []
    for u, v in g.edges:
        darts.append((u, v))
        darts.append((v, u))
    darts.sort()
    idx = {d: i for i, d in enumerate(darts)}
    rev = [idx[(v, u)] for (u, v) in darts]
    head = [v for (_, v) in darts]
    tail = [u for (u, _) in darts]
    edge_of = [g.edge_index(d) for d in darts]
    out_darts: list[list[int]] = [[] for _ in range(n)]
    for i, (u, _) in enumerate(darts):
        out_darts[u].append(i)
    deg = [g.degree(v) for v in range(n)]
    sign = [0 if e in free else 1 for e in range(m)]  # 0: not chosen yet
    # signs to try, indexed by sign[e]: an open edge (0) tries both, a set
    # one (+1, or -1 as the last index) keeps its own
    choices = ((1, -1), (1,), (-1,))

    # per-dart rotation links: succ[a] = b and pred[b] = a when sigma(a) = b,
    # -1 when unset.  The links at a vertex form paths until the last one
    # closes them into a single cycle through all its darts.
    succ = [-1] * (2 * m)
    pred = [-1] * (2 * m)

    def link(a: int, b: int) -> bool:
        """Set sigma(a) = b, unless a already has a successor, b already has
        a predecessor, or the link would close a cycle through fewer than
        all the darts at tail(a).  b has no predecessor, so the walk from b
        along succ ends, after at most deg - 1 steps, at the end of b's
        path; the link closes a cycle exactly when that end is a."""
        if succ[a] != -1 or pred[b] != -1:
            return False
        end, size = b, 1
        while succ[end] != -1:
            end = succ[end]
            size += 1
        if end == a and size != deg[tail[a]]:
            return False
        succ[a] = b
        pred[b] = a
        return True

    # state s < total walks dart s with eps = +1, state s >= total walks
    # dart s - total with eps = -1
    total = 2 * m
    used = [False] * (2 * total)

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
                for w in g.adj[u]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    # Each node of the search is a generator that yields its children, also
    # generators, in search order, and restores the state it changed when
    # resumed.  Only children that pass the bound are yielded.  A child that
    # closes a face always passes, since its bound is the one its parent
    # passed; closing the last face yields None.  Entering a state marks it
    # and its mirror, after choosing the sign of its edge if that is open.
    def begin(faces_done: int, used_count: int, after: int):
        """Open a face at the first unused state past ``after``, the start
        of the previous face: every state before it is in use."""
        if faces_done + 1 + (total - used_count - 1) // min_len < min_faces:
            return
        s = after + 1
        while used[s]:
            s += 1
        plus = s < total  # eps = +1 at the start
        b = s if plus else s - total
        root = tail[b]
        dist = balls.get(root)
        if dist is None:
            dist = balls[root] = ball(root)
        # the most darts in use once this face closes that still leave
        # min_len darts for each face still missing
        limit = total - (min_faces - faces_done - 1) * min_len
        e = edge_of[b]
        was = sign[e]
        for sg in choices[was]:
            sign[e] = sg
            ahead = plus == (sg == 1)
            mirror = rev[b] + total if ahead else rev[b]
            used[s] = used[mirror] = True
            yield extend(faces_done, used_count + 1, s, b, ahead, dist, limit)
            used[s] = used[mirror] = False
        sign[e] = was

    def extend(
        faces_done: int, used_count: int, start: int, d: int, forward: bool,
        dist: dict[int, int], limit: int,
    ):
        """Continue an open walk whose last dart is d, arriving at head(d)
        with eps' = +1 iff ``forward``; ``dist`` is the ball of the face's
        root and ``limit`` the most darts in use when the face closes."""
        slack = limit - used_count - 1  # darts left to close after one more
        offset = 0 if forward else total
        a = rev[d]  # the return dart
        for b in out_darts[head[d]]:
            s = b + offset
            x, y = (a, b) if forward else (b, a)
            if s == start:
                if link(x, y):
                    yield begin(faces_done + 1, used_count, start) if used_count < total else None
                    succ[x] = pred[y] = -1
            elif not used[s] and dist.get(head[b], far) <= slack and link(x, y):
                e = edge_of[b]
                was = sign[e]
                for sg in choices[was]:
                    sign[e] = sg
                    ahead = forward == (sg == 1)
                    mirror = rev[b] + total if ahead else rev[b]
                    used[s] = used[mirror] = True
                    yield extend(faces_done, used_count + 1, start, b, ahead, dist, limit)
                    used[s] = used[mirror] = False
                sign[e] = was
                succ[x] = pred[y] = -1

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
    for v in range(n):
        if not out_darts[v]:
            rotation.append(())
            continue
        first = out_darts[v][0]
        order = [head[first]]
        d = succ[first]
        while d != first:
            order.append(head[d])
            d = succ[d]
        rotation.append(tuple(order))
    return tuple(rotation), tuple(sign)


def embeds_brute_force(g: Graph, max_genus: int) -> bool:
    """Whether connected g has an embedding of Euler genus <= max_genus: every
    rotation system with all signs +1, then ``signed_search_reference``."""
    for rotation in product(*_vertex_rotation_candidates(g, None)):
        faces = len(trace_faces_orientable_oracle(g, rotation))
        if 2 - (g.n - len(g.edges) + faces) <= max_genus:
            return True
    return max_genus >= 1 and signed_search_reference(g, max_genus) is not None


# -- planarity oracle ------------------------------------------------------------


def _paths(g: Graph, u: int, v: int, allowed: set[int]):
    """All simple u..v paths whose internal vertices lie in ``allowed``."""
    out = []

    def rec(cur: int, path: list[int]):
        if cur == v:
            out.append(list(path))
            return
        for w in sorted(g.adj[cur]):
            if w == v:
                out.append(path + [v])
            elif w in allowed and w not in path:
                path.append(w)
                rec(w, path)
                path.pop()

    rec(u, [u])
    return out


def _has_subdivision(g: Graph, branch: tuple[int, ...], wanted: list[tuple[int, int]]) -> bool:
    spare = set(range(g.n)) - set(branch)

    def rec(i: int, free: set[int]) -> bool:
        if i == len(wanted):
            return True
        u, v = branch[wanted[i][0]], branch[wanted[i][1]]
        for path in _paths(g, u, v, free):
            internal = set(path[1:-1])
            if rec(i + 1, free - internal):
                return True
        return False

    return rec(0, spare)


def is_planar(g: Graph) -> bool:
    """Kuratowski oracle: planar iff no K5 and no K3,3 subdivision."""
    k5_pairs = list(combinations(range(5), 2))
    for branch in combinations(range(g.n), 5):
        if _has_subdivision(g, branch, k5_pairs):
            return False
    k33_pairs = [(i, 3 + j) for i in range(3) for j in range(3)]
    for six in combinations(range(g.n), 6):
        for left in combinations(range(6), 3):
            if 0 not in left:
                continue  # fix side of vertex six[0] to kill mirror duplicates
            right = tuple(i for i in range(6) if i not in left)
            branch = tuple(six[i] for i in left) + tuple(six[i] for i in right)
            if _has_subdivision(g, branch, k33_pairs):
                return False
    return True


# -- isomorphism-class enumeration -------------------------------------------------


def graphs_up_to_iso(n: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on exactly n vertices."""
    import numpy as np

    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    pidx = {p: i for i, p in enumerate(pairs)}
    perm_tables = []
    for perm in permutations(range(n)):
        perm_tables.append(
            [pidx[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        )
    table = np.array(perm_tables, dtype=np.int64)  # (n!, m)
    seen = np.zeros(1 << m, dtype=bool)
    reps = []
    for mask in range(1 << m):
        if seen[mask]:
            continue
        reps.append(mask)
        images = np.zeros(table.shape[0], dtype=np.int64)
        for j in range(m):
            if (mask >> j) & 1:
                images |= np.left_shift(np.int64(1), table[:, j])
        seen[images] = True
    out = []
    for mask in reps:
        edges = [pairs[j] for j in range(m) if (mask >> j) & 1]
        out.append(Graph(n, edges))
    return out


def connected_graphs_up_to_iso(n: int) -> list[Graph]:
    return [g for g in graphs_up_to_iso(n) if g.is_connected()]
