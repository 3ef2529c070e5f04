"""Exact discharging over an embedded instance.

Initial charges are deg(v) - 4 per vertex and leng(f) - 4 per face, kept as
integer twelfths so the transfer amounts 1/4, 1/3, 1/2 stay exact.  The
eight transfer rules all read the static embedded graph (one simultaneous
batch) through the same ``audit.Analysis`` as the audits, so degrees,
relaxed flags, faces, shared edges and corners are built once per instance.
R3 in particular fires on a (face, 3-face, edge) triple exactly when R2's
predicate on that triple is false, so the two are mutually exclusive by
construction.

Rule incidences are counted with multiplicity along boundary walks: a
3-vertex visited twice by the same long face receives the R1 transfer twice.
That convention keeps the ledger conservation exact even on embeddings whose
face boundaries are not cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import Graph, RSet, hypothesis_check
from .embedding import embed_search
from .audit import Analysis, AuditReport, analyze, full_audit

Element = tuple[str, int]  # ("v", vertex) or ("f", face index)

RULE_TWELFTHS = {
    "R1": 6,
    "R2": 6,
    "R3": 6,
    "R4": 3,
    "R5": 3,
    "R6": 3,
    "R7": 6,
    "R8": 4,
}


def _fmt_element(x: Element) -> str:
    return f"{x[0]}{x[1]}"


@dataclass(frozen=True)
class Transfer:
    rule: str
    source: Element
    target: Element
    via: tuple[int, int] | None = None  # edge endpoints, for rules phrased "via ab"
    witness: dict = field(default_factory=dict, compare=False)

    @property
    def amount_twelfths(self) -> int:
        return RULE_TWELFTHS[self.rule]

    def to_json(self) -> dict:
        out = {
            "rule": self.rule,
            "from": _fmt_element(self.source),
            "to": _fmt_element(self.target),
            "amount_twelfths": self.amount_twelfths,
        }
        if self.via is not None:
            out["via"] = list(self.via)
        if self.witness:
            out["witness"] = self.witness
        return out


def initial_charges(a: Analysis) -> dict[Element, int]:
    """deg(v)-4 and leng(f)-4, in twelfths."""
    charges = {("v", v): 12 * (d - 4) for v, d in enumerate(a.deg)}
    charges.update({("f", fi): 12 * (length - 4) for fi, length in enumerate(a.lengths)})
    return charges


def generate_transfers(a: Analysis) -> tuple[Transfer, ...]:
    """The complete transfer multiset mandated by rules R1-R8."""
    g = a.g
    deg, relaxed, lengths, vsets = a.deg, a.relaxed, a.lengths, a.vsets

    transfers: list[Transfer] = []

    # R1: every long face pays each degree-3 corner on its walk
    for fi, f in enumerate(a.emb.faces):
        if lengths[fi] < 5:
            continue
        for pos, (v, _) in enumerate(f):
            if deg[v] == 3:
                transfers.append(Transfer("R1", ("f", fi), ("v", v), None, {"corner": pos}))

    def walk_edge_to_nonrelaxed(f: int, ei: int, end: int) -> tuple[int, int] | None:
        """First edge of face f other than ei leaving ``end`` toward a
        non-relaxed vertex, with that vertex."""
        for ej in a.edges_at(end, f):
            p, q = g.edges[ej]
            x = q if p == end else p
            if ej != ei and not relaxed[x]:
                return ej, x
        return None

    # R2/R3/R4: a long face pays a triangle across a shared edge
    # R5: a (>=6)-face props up a 5-face across a 3/4-degree edge
    for ei, (a_, b_) in enumerate(g.edges):
        fa, fb = a.sides[ei]
        if fa == fb:
            continue
        for f, fp in ((fa, fb), (fb, fa)):
            if lengths[f] >= 5 and lengths[fp] == 3 and deg[a_] == 4 and deg[b_] == 4:
                # the two ends play different roles; try both labelings
                for aa, bb in ((a_, b_), (b_, a_)):
                    h1 = walk_edge_to_nonrelaxed(f, ei, aa)
                    outside = (w for w in g.adj[bb] if w not in vsets[fp] and not relaxed[w])
                    h2 = min(outside, default=None)
                    if h1 is not None and h2 is not None:
                        witness = {
                            "role_a": aa,
                            "role_b": bb,
                            "edge_at_a": list(g.edges[h1[0]]),
                            "outside_at_b": h2,
                        }
                        transfers.append(Transfer("R2", ("f", f), ("f", fp), (a_, b_), witness))
                        break
                else:
                    transfers.append(Transfer("R3", ("f", f), ("f", fp), (a_, b_)))
            elif lengths[f] >= 5 and lengths[fp] == 3 and min(deg[a_], deg[b_]) == 4:
                transfers.append(Transfer("R4", ("f", f), ("f", fp), (a_, b_)))
            elif lengths[f] >= 6 and lengths[fp] == 5 and sorted((deg[a_], deg[b_])) == [3, 4]:
                uniques = []
                for vv in (a_, b_):
                    cands = sorted((g.adj[vv] & vsets[fp]) - {a_, b_})
                    if len(cands) == 1 and relaxed[cands[0]]:
                        uniques.append(cands[0])
                if len(uniques) == 2:
                    transfers.append(
                        Transfer("R5", ("f", f), ("f", fp), (a_, b_), {"unique_relaxed": uniques})
                    )

    # R6: a (>=6)-face reaches a second 5-face two steps away
    for fi in range(len(lengths)):
        if lengths[fi] < 6:
            continue
        for v in sorted(vsets[fi]):
            if deg[v] != 4:
                continue
            for ei in a.edges_at(v, fi):
                a_, b_ = g.edges[ei]
                u = b_ if a_ == v else a_
                if relaxed[u]:
                    continue
                sa, sb = a.sides[ei]
                if sa == sb:
                    continue
                fp = sb if sa == fi else sa
                if lengths[fp] != 5:
                    continue
                for fpp in a.neighbors[fp]:
                    if fpp == fi or lengths[fpp] != 5:
                        continue
                    shared = sorted(a.shared[(fp, fpp) if fp <= fpp else (fpp, fp)])
                    if len(shared) != 1 or v not in g.edges[shared[0]]:
                        continue
                    m = sorted(g.adj[v] & vsets[fpp])
                    if len(m) != 2 or any(deg[w] != 3 for w in m):
                        continue
                    if not any(lengths[ft] == 3 for ft in a.neighbors[fpp]):
                        continue
                    ep = shared[0]
                    transfers.append(
                        Transfer(
                            "R6", ("f", fi), ("f", fpp), tuple(g.edges[ep]),
                            {
                                "vertex": v,
                                "edge_e": list(g.edges[ei]),
                                "five_face": fp,
                                "degree_3_neighbors": m,
                            },
                        )
                    )

    # R7: big vertices pay their triangles
    # R8: (>=6)-vertices pay 5-face corners whose flanking edges avoid triangles
    def on_triangle(ei: int) -> bool:
        sa, sb = a.sides[ei]
        return lengths[sa] == 3 or lengths[sb] == 3

    for v in range(g.n):
        if deg[v] < 5:
            continue
        for k, (fi, arr, dep) in enumerate(a.corners[v]):
            if lengths[fi] == 3:
                transfers.append(Transfer("R7", ("v", v), ("f", fi)))
            elif deg[v] >= 6 and lengths[fi] == 5 and not on_triangle(arr) and not on_triangle(dep):
                transfers.append(Transfer("R8", ("v", v), ("f", fi), None, {"corner": k}))

    transfers.sort(key=lambda t: (t.rule, t.source, t.target, t.via or (), repr(t.witness)))
    return tuple(transfers)


@dataclass(frozen=True)
class ChargeLedger:
    """Initial charges, the applied transfers, and the settled result."""

    initial: dict[Element, int]
    transfers: tuple[Transfer, ...]
    final: dict[Element, int]

    @property
    def total_twelfths(self) -> int:
        return sum(self.final.values())

    def to_json(self) -> dict:
        # final holds the elements of initial: sort and name them once
        elements = sorted(self.initial)
        names = list(map(_fmt_element, elements))
        return {
            "initial": dict(zip(names, map(self.initial.__getitem__, elements))),
            "transfers": [t.to_json() for t in self.transfers],
            "final": dict(zip(names, map(self.final.__getitem__, elements))),
            "total_twelfths": self.total_twelfths,
        }


def settle(a: Analysis) -> ChargeLedger:
    """Apply all rules to an embedded instance's analysis and return the
    exact ledger; conservation is checked."""
    init = initial_charges(a)
    transfers = generate_transfers(a)
    final = dict(init)
    for t in transfers:
        final[t.source] -= t.amount_twelfths
        final[t.target] += t.amount_twelfths
    if sum(final.values()) != sum(init.values()):
        raise AssertionError("charge conservation failed")
    return ChargeLedger(init, transfers, final)


@dataclass(frozen=True)
class ChargeReport:
    total_twelfths: int
    negatives: tuple[tuple[Element, int], ...]
    audits_hold: bool
    contradiction: bool
    explained: tuple[tuple[str, tuple[str, ...]], ...]  # element -> violated lemmas naming it

    def to_json(self) -> dict:
        return {
            "total_twelfths": self.total_twelfths,
            "negatives": [
                {"element": _fmt_element(el), "twelfths": tw, "charge": str(Fraction(tw, 12))}
                for el, tw in self.negatives
            ],
            "audits_hold": self.audits_hold,
            "contradiction": self.contradiction,
            "explained_by": [
                {"element": el, "lemmas": list(ls)} for el, ls in self.explained
            ],
        }


# witness key -> the kind of element it names, alone or in a list
_ELEMENT_KIND = dict.fromkeys(
    ("vertex", "x", "y", "z", "non_relaxed_vertex", "degree_3_end",
     "relaxed_neighbors", "neighbors", "prime_neighbors"),
    "v",
) | dict.fromkeys(
    ("three_face", "four_face", "face_a", "face_b", "faces",
     "third_face", "face_with_primes", "other_face"),
    "f",
)


def _lemmas_by_element(audit: AuditReport, elements: list[Element]) -> dict[Element, list[str]]:
    """Each of ``elements`` -> the violated lemmas whose witnesses name it,
    in ``audit.violated()`` order; one pass over the witnesses, none when
    ``elements`` is empty."""
    out: dict[Element, list[str]] = {el: [] for el in elements}
    if not out:
        return out
    for entry in audit.violated():
        lemma = entry.lemma
        for w in entry.witnesses:
            for k, val in w.items():
                kind = _ELEMENT_KIND.get(k)
                if kind is None:
                    continue
                for idx in val if isinstance(val, (list, tuple)) else (val,):
                    lemmas = out.get((kind, idx))
                    if lemmas is not None and (not lemmas or lemmas[-1] != lemma):
                        lemmas.append(lemma)
    return out


def charge_report(ledger: ChargeLedger, audit: AuditReport) -> ChargeReport:
    """Negative final charges plus whether the global contradiction pattern
    (all audits hold, no negatives, positive total) materializes.

    On instances that are not counterexample-shaped, negatives are
    informational and each is paired with the audit violations naming it.
    The witnesses are scanned once into a map from each negative element
    to its lemmas, so the cost is linear in the witnesses plus the
    negatives.
    """
    negatives = tuple(sorted((el, tw) for el, tw in ledger.final.items() if tw < 0))
    audits_hold = audit.counterexample_shaped
    total = ledger.total_twelfths
    contradiction = audits_hold and not negatives and total > 0
    named = _lemmas_by_element(audit, [el for el, _ in negatives])
    explained = tuple((_fmt_element(el), tuple(named[el])) for el, _ in negatives)
    return ChargeReport(total, negatives, audits_hold, contradiction, explained)


# -- end-to-end pipeline -------------------------------------------------------


@dataclass(frozen=True)
class HuntReport:
    """Result of hypothesis -> embedding -> audit -> charges on one instance."""

    eliminated_at: str | None  # None would mean a counterexample survived
    hypothesis: object
    embedding_found: bool
    euler_genus: int | None
    audit: AuditReport | None
    ledger: ChargeLedger | None
    charges: ChargeReport | None

    def to_json(self) -> dict:
        return {
            "eliminated_at": self.eliminated_at,
            "hypothesis": self.hypothesis.to_json(),
            "embedding_found": self.embedding_found,
            "euler_genus": self.euler_genus,
            "audit": self.audit.to_json() if self.audit else None,
            "ledger": self.ledger.to_json() if self.ledger else None,
            "charges": self.charges.to_json() if self.charges else None,
        }


def hunt(g: Graph, r: RSet, max_genus: int = 2) -> HuntReport:
    """Run a candidate instance through the whole elimination pipeline.

    Reports the first stage that rules the instance out as a potential
    counterexample; by the main theorem every instance is ruled out
    somewhere, so ``eliminated_at`` is never None on genus-bounded inputs.
    """
    hyp = hypothesis_check(g, r)
    if not hyp.passes:
        return HuntReport("hypothesis", hyp, False, None, None, None, None)
    emb = embed_search(g, max_genus)
    if emb is None:
        return HuntReport("embedding", hyp, False, None, None, None, None)
    a = analyze(g, r, emb)
    audit = full_audit(a)
    ledger = settle(a)
    charges = charge_report(ledger, audit)
    # None: a contradiction, which would certify a counterexample
    stage = "audit" if not audit.counterexample_shaped else None if charges.contradiction else "charges"
    return HuntReport(stage, hyp, True, emb.euler_genus, audit, ledger, charges)
