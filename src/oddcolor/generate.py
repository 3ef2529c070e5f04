"""Random generation of connected high-girth test instances.

Instances are produced by randomized edge addition with girth rejection:
candidate edges are shuffled and added only when the endpoints are still far
enough apart, then the graph is trimmed to the largest component of its
2-core so that every surviving vertex has degree at least 2.  Everything is
driven by one seeded generator, so output is reproducible per seed.

"Far enough apart" means more than ``min_girth - 2``, and it is read off
distance balls that meet in the middle.  Each vertex keeps two bitmasks: the
vertices within p = (min_girth - 2) // 2 of it, and those within
q = min_girth - 2 - p.  Two endpoints are too close exactly when some vertex
lies within p of one and within q of the other, so refusing a candidate is
one AND of two masks.  Only an accepted edge pays for a BFS, from each end to
depth q - 1, which grows the balls it shortens; at about half the radius of
one ball of radius ``min_girth - 2``, it reaches far fewer vertices.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graphs import Graph, girth

ATTEMPTS_PER_INSTANCE = 60


class GenerationBudgetError(ValueError):
    """The requested number of instances was not reached within the budget (an input error)."""


def _balls(adj: list[set[int]], s: int, depth: int) -> tuple[list[list[int]], list[int]]:
    """BFS layers 0..depth around s, and the bitmask of each ball: vertices
    within distance i of s are ``balls[i]``."""
    layers, balls = [[s]], [1 << s]
    for _ in range(depth):
        seen, layer = balls[-1], []
        for a in layers[-1]:
            for b in adj[a]:
                if not seen >> b & 1:
                    seen |= 1 << b
                    layer.append(b)
        layers.append(layer)
        balls.append(seen)
    return layers, balls


def _two_core_component(adj: list[set[int]]) -> Graph | None:
    """Largest connected component of the 2-core of the graph with neighbour
    sets ``adj``, the one with the smallest vertex on ties, relabeled
    densely; peels ``adj`` in place."""
    n = len(adj)
    alive = [True] * n
    stack = [v for v in range(n) if len(adj[v]) <= 1]
    while stack:
        v = stack.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for w in adj[v]:
            adj[w].discard(v)
            if alive[w] and len(adj[w]) <= 1:
                stack.append(w)
    # survivors now neighbour only survivors; the search clears alive[v] on reaching v
    best: list[int] = []
    for s in range(n):
        if alive[s]:
            alive[s] = False
            comp, stack = [s], [s]
            while stack:
                for w in adj[stack.pop()]:
                    if alive[w]:
                        alive[w] = False
                        comp.append(w)
                        stack.append(w)
            if len(comp) > len(best):
                best = comp
    if not best:  # a 2-core component holds a cycle, so at least 3 vertices
        return None
    best.sort()
    relabel = {v: i for i, v in enumerate(best)}
    return Graph.from_sorted_edges(
        len(best),
        tuple((i, relabel[w]) for i, u in enumerate(best) for w in sorted(adj[u]) if w > u),
    )


def generate_girth_instances(n: int, min_girth: int, count: int, seed: int) -> list[Graph]:
    """``count`` connected graphs on <= n vertices, girth >= min_girth,
    minimum degree >= 2; deterministic per seed.

    Each vertex a keeps ``lo[a]``, its ball of radius
    p = (min_girth - 2) // 2, and ``hi[a]``, its ball of radius
    q = min_girth - 2 - p.  A candidate uv is refused when ``lo[u] & hi[v]``
    is non-zero: some vertex lies within p of u and within q of v exactly
    when dist(u, v) <= p + q = min_girth - 2.  The balls stay exact: a path
    shortened by a new edge uv runs a..u, uv, v..b with both halves shortest
    in the old graph, so accepting uv ORs into ``hi[a]``, for each a at
    distance i <= q - 1 from u, the ball of radius q - 1 - i around v, and
    into ``lo[a]``, when also i < p, the ball of radius p - 1 - i; the same
    with u and v swapped.  One BFS from each end to depth q - 1, before uv
    is added, gives all of these.

    Raises GenerationBudgetError when the attempt budget runs out, which is
    the expected outcome for unreachable parameter combinations (for example
    a required cycle longer than the vertex budget allows).
    """
    if min_girth < 3:
        raise ValueError("min_girth must be at least 3")
    if n < 3 or count < 1:
        raise ValueError("need n >= 3 and count >= 1")
    p = (min_girth - 2) // 2
    q = min_girth - 2 - p
    rng = random.Random(seed)
    out: list[Graph] = []
    budget = count * ATTEMPTS_PER_INSTANCE
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
        # lo[a], hi[a]: bit b set iff dist(a, b) <= p, resp. <= q
        lo = [1 << a for a in range(n)]
        hi = lo.copy()
        for u, v in candidates:
            # adding uv closes a cycle of length dist(u,v) + 1
            if lo[u] & hi[v]:
                continue
            (lu, bu), (lv, bv) = _balls(adj, u, q - 1), _balls(adj, v, q - 1)
            for layers, balls in ((lu, bv), (lv, bu)):
                for i, layer in enumerate(layers):
                    far = balls[q - 1 - i]
                    if i < p:
                        near = balls[p - 1 - i]
                        for a in layer:
                            lo[a] |= near
                            hi[a] |= far
                    else:
                        for a in layer:
                            hi[a] |= far
            adj[u].add(v)
            adj[v].add(u)
        g = _two_core_component(adj)
        if g is None:
            continue
        gi = girth(g)
        if gi < min_girth:
            raise AssertionError("girth rejection failed")
        out.append(g)
    return out
