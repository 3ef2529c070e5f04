"""Instance file schema and canonical JSON serialization.

An instance file is one JSON object carrying a graph ({"n", "edges", "R"}),
optionally extended with an embedding ("rotation" per vertex plus "signs"
per edge index) and a list-assignment block ("lists").  Edges are serialized
sorted lexicographically and R refers to positions in that edge list, which
keeps serialization deterministic and digests stable.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from itertools import chain

from .graphs import Edge, FivePairsJSON, Graph, RSet
from .embedding import EmbeddedGraph
from .coloring import Coloring, ListAssignment

SCHEMA_VERSION = 1


# what json.dumps writes for the placeholder string "\0"
_PLACEHOLDER = json.dumps("\0")


def dumps_report(report: dict) -> str:
    """``json.dumps(report, sort_keys=True)`` with each ``FivePairsJSON``
    in it written as its pre-encoded text.

    The encoder writes a placeholder string in each one's place, met in
    output order, and the texts replace the placeholders.  The program
    writes no string holding NUL, so each placeholder stands for one text;
    if the counts differ anyway, a text would land in the wrong place, and
    this raises AssertionError.  Any other value JSON cannot encode raises
    TypeError.
    """
    texts: list[str] = []

    def pre_encoded(obj):
        if not isinstance(obj, FivePairsJSON):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        texts.append(obj.text())
        return "\0"

    # a report never contains itself, so the check for reference cycles is skipped
    parts = json.dumps(report, sort_keys=True, check_circular=False, default=pre_encoded).split(_PLACEHOLDER)
    if len(parts) != len(texts) + 1:
        raise AssertionError(f"{len(parts) - 1} placeholders for {len(texts)} pre-encoded values")
    return "".join(chain.from_iterable(zip(parts, texts))) + parts[-1]


def graph_to_json(g: Graph, r: RSet = frozenset()) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "R": sorted(g.edge_index(e) for e in r),
    }


def embedding_to_json(e: EmbeddedGraph, r: RSet = frozenset()) -> dict:
    out = graph_to_json(e.graph, r)
    out["rotation"] = {str(v): list(e.rotation[v]) for v in range(e.graph.n)}
    out["signs"] = list(e.signs)
    return out


def lists_to_json(lists: ListAssignment) -> dict:
    return {"lists": {str(v): sorted(lists[v]) for v in range(len(lists))}}


def coloring_to_json(c: Coloring) -> dict:
    return {"colors": {str(v): c[v] for v in sorted(c)}}


def faces_to_json(e: EmbeddedGraph) -> list[dict]:
    return [
        {"face": i, "length": len(f), "darts": [[v, ei] for v, ei in f]}
        for i, f in enumerate(e.faces)
    ]


@dataclass(frozen=True)
class Instance:
    """A deserialized instance file."""

    graph: Graph
    r: RSet
    embedding: EmbeddedGraph | None
    lists: ListAssignment | None


def _ints(value, path: str, bound: int | None = None) -> list[int]:
    """A list of JSON integers, each in ``range(bound)`` when a bound is given."""
    if not isinstance(value, list):
        raise ValueError(f"{path}: expected a list, got {value!r}")
    for i, x in enumerate(value):
        if type(x) is not int:  # JSON true and false load as bool, not int
            raise ValueError(f"{path}[{i}]: expected an integer, got {x!r}")
        if bound is not None and not 0 <= x < bound:
            span = f" 0..{bound - 1}" if bound else ": the range is empty"
            raise ValueError(f"{path}[{i}]: {x} is out of range{span}")
    return value


def _relaxation(indices, path: str, edges: tuple[Edge, ...]) -> RSet:
    """The relaxation set named by ``indices`` into the sorted ``edges``,
    each index listed once; a bad one raises ValueError naming ``path[i]``."""
    _ints(indices, path, len(edges))
    if len(set(indices)) < len(indices):  # name the first repeat
        seen: set[int] = set()
        for i, x in enumerate(indices):
            if x in seen:
                raise ValueError(f"{path}[{i}]: {x} is listed twice; list each relaxation edge once")
            seen.add(x)
    return frozenset(map(edges.__getitem__, indices))


def _per_vertex(value, path: str, n: int) -> list[list[int]]:
    """One integer list per vertex, in an object keyed "0".."n-1"."""
    keys = list(map(str, range(n)))
    if not isinstance(value, dict) or value.keys() != set(keys):
        raise ValueError(f"{path}: expected an object with one key per vertex 0..{n - 1}")
    lists = [value[k] for k in keys]
    # one pass over every entry; only a bad one needs the per-vertex pass
    # that names it
    if set(map(type, lists)) <= {list} and set(map(type, chain.from_iterable(lists))) <= {int}:
        return lists
    return [_ints(x, f'{path}["{v}"]') for v, x in enumerate(lists)]


def instance_from_json(obj: dict) -> Instance:
    """Build an instance from a parsed instance file.

    Every field is checked for type, shape, index range, order and value; a
    bad one raises ValueError naming its JSON path, for example ``edges[0]``,
    ``R[1]``, ``rotation["2"]`` or ``signs[1]``.  Each field is checked
    once: the graph is built from the edges as checked here, without
    normalizing and sorting them again, and ``EmbeddedGraph`` checks only
    what needs the graph, that each rotation orders the neighbors and each
    sign is 1 or -1.  R lists each edge index at most once, signs come only
    with a rotation, and each color list has distinct colors, all of the
    size of ``lists["0"]``.
    """
    if not isinstance(obj, dict) or "schema" not in obj:
        raise ValueError("instance file is not a JSON object with a schema version field")
    if type(obj["schema"]) is not int or obj["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {obj['schema']!r}")
    n, edges = obj.get("n"), obj.get("edges")
    if type(n) is not int:
        raise ValueError(f"n: expected an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n: expected a nonnegative integer, got {n}")
    if not isinstance(edges, list):
        raise ValueError(f"edges: expected a list of vertex pairs, got {edges!r}")
    pairs: list[tuple[int, int]] = []  # the edges as checked, each sorted
    for i, e in enumerate(edges):
        a = b = None
        if isinstance(e, list) and len(e) == 2:
            a, b = e
        if not (type(a) is int and type(b) is int and 0 <= a < n and 0 <= b < n and a != b):
            _ints(e, f"edges[{i}]", n)  # names a bad element, if there is one
            raise ValueError(f"edges[{i}]: expected two distinct vertices, got {e}")
        pair = (a, b) if a < b else (b, a)
        # R and signs index the sorted edge list, so the file must list it so
        if pairs and pair <= pairs[-1]:
            raise ValueError(f"edges[{i}]: {e} does not follow {edges[i - 1]}; list edges sorted, once each")
        pairs.append(pair)
    g = Graph.from_sorted_edges(n, tuple(pairs))
    r = _relaxation(obj.get("R", []), "R", g.edges)
    emb = None
    if "signs" in obj and "rotation" not in obj:
        raise ValueError("signs: given without a rotation; signs belong to an embedding")
    if "rotation" in obj:
        rotation = _per_vertex(obj["rotation"], "rotation", g.n)
        signs = obj.get("signs")
        signs = None if signs is None else _ints(signs, "signs")
        try:
            emb = EmbeddedGraph(g, rotation, signs)
        except ValueError as exc:  # EmbeddedGraph's rotation[v] is the file's rotation["v"]
            raise ValueError(re.sub(r"^rotation\[(\d+)\]", r'rotation["\1"]', str(exc))) from None
    lists = None
    if "lists" in obj:
        per_vertex = _per_vertex(obj["lists"], "lists", g.n)
        for v, colors in enumerate(per_vertex):
            if len(set(colors)) < len(colors):
                raise ValueError(f'lists["{v}"]: expected distinct colors, got {colors}')
            if len(colors) != len(per_vertex[0]):
                raise ValueError(f'lists["{v}"]: expected {len(per_vertex[0])} colors, as in lists["0"], got {len(colors)}')
        lists = ListAssignment(tuple(map(frozenset, per_vertex)))
    return Instance(g, r, emb, lists)


def load_instance(path: str) -> tuple[Instance, str]:
    """Read an instance file; returns (instance, sha256 digest of the bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return instance_from_json(json.loads(data)), hashlib.sha256(data).hexdigest()
    except RecursionError:  # parsing, and repr in a message, recurse per level of nesting
        raise ValueError("the file nests too deeply to be parsed") from None


def dump_instance(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
