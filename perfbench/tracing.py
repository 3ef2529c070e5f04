"""Spans around each layer's public functions, recorded from outside ``src``.

``Tracer.install`` replaces every reference an ``oddcolor`` module holds to a
traced function with a wrapper, so calls between modules (``cli`` and
``discharge`` import these names directly) are seen too.  Spans stay in
memory as ``[name, start, end, parent, op, tag]`` lists and are summarized
or written out after the run.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "jsonio", "graphs", "embedding", "coloring", "audit", "discharge")
RULES = tuple(f"R{i}" for i in range(1, 9))
STAGES = ("hypothesis", "embedding", "audit", "charges")


def _embedding_kind(emb) -> str:
    if emb is None:
        return "none"
    return "orientable" if emb.is_orientable() else "nonorientable"


# traced function -> what to remember about its result (computed after the span ends)
TAGGERS = {
    "cli.run_command": None,
    "jsonio.load_instance": None,
    "graphs.hypothesis_check": None,
    "graphs.enumerate_cycles": len,
    "graphs.girth": None,
    "embedding.embed_search": _embedding_kind,
    "embedding.trace_faces": None,
    "coloring.solve": lambda c: "unsat" if c is None else "sat",
    "audit.full_audit": lambda rep: sum(len(e.witnesses) for e in rep.entries),
    "discharge.settle": lambda ledger: tuple(sorted(Counter(t.rule for t in ledger.transfers).items())),
    "discharge.charge_report": lambda rep: len(rep.negatives),
    "discharge.hunt": lambda rep: rep.eliminated_at,
}

# functions whose time is also split by the outcome of the call
OUTCOMES = {
    "embedding.embed_search": ("orientable", "nonorientable", "none", "undecided", "error"),
    "coloring.solve": ("sat", "unsat", "undecided", "error"),
}
ROWS = tuple(TAGGERS) + tuple(f"{f}.{o}" for f, outs in OUTCOMES.items() for o in outs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._saved: list[tuple] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"oddcolor.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for name, tagger in TAGGERS.items():
            home, attr = name.split(".")
            original = getattr(by_name[home], attr)
            wrapper = self._wrap(name, original, tagger)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._saved):
            setattr(mod, key, val)
        self._saved.clear()

    def _wrap(self, name, fn, tagger):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[5] = "error:" + type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if tagger is not None:
                span[5] = tagger(result)
            return result

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _outcome(tag) -> str:
    if tag == "error:OpTimeout":
        return "undecided"
    return "error" if tag.startswith("error:") else tag


def pass_indices(spans: list[list], passes: list[tuple]) -> list[int]:
    """The spans of every traced pass, given as ``(first, end, skipped ops)``.

    An op a pass skipped repeats the spans of the last pass that ran it, as
    its result repeats in that pass, so each pass stands for the whole corpus.
    """
    last, picks = {}, []
    for first, end, skipped in passes:
        ran = defaultdict(list)
        for i in range(first, end):
            ran[spans[i][4]].append(i)
        last.update(ran)
        picks += range(first, end)
        for op in skipped:
            picks += last.get(op, [])
    return picks


def layer_times(spans: list[list], picks=None) -> dict[str, dict]:
    """Calls, total and self seconds per row of ``ROWS``, over the spans at
    ``picks`` (default: all); searches and solves are also split by outcome."""
    own_times = self_times(spans)
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in ROWS}
    for i in range(len(spans)) if picks is None else picks:
        s, own = spans[i], own_times[i]
        names = [s[0]]
        if s[0] in OUTCOMES and isinstance(s[5], str):
            names.append(f"{s[0]}.{_outcome(s[5])}")
        for name in names:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += own
    return table


def work_counts(spans: list[list], skip_ops: set) -> dict[str, int]:
    """Deterministic work counts over the spans of ops that ran to an end."""
    c = Counter({f"discharge.transfers.{r}": 0 for r in RULES})
    c.update({f"discharge.hunt.eliminated_at.{s}": 0 for s in STAGES})
    for name in ("graphs.cycles_enumerated", "graphs.hypothesis_check_calls", "graphs.girth_calls",
                 "embedding.trace_faces_calls", "embedding.embed_search.orientable",
                 "embedding.embed_search.nonorientable", "embedding.embed_search.none",
                 "embedding.embed_search_errors", "coloring.solve_calls", "coloring.solve.sat",
                 "coloring.solve.unsat", "coloring.solve_errors", "audit.full_audit_calls",
                 "audit.witnesses", "discharge.settle_calls", "discharge.negatives"):
        c[name] = 0
    for name, _, _, _, op, tag in spans:
        if op in skip_ops:
            continue
        failed = isinstance(tag, str) and tag.startswith("error:")
        if name == "graphs.enumerate_cycles" and not failed:
            c["graphs.cycles_enumerated"] += tag
        elif name == "graphs.hypothesis_check":
            c["graphs.hypothesis_check_calls"] += 1
        elif name == "graphs.girth":
            c["graphs.girth_calls"] += 1
        elif name == "embedding.trace_faces":
            c["embedding.trace_faces_calls"] += 1
        elif name == "embedding.embed_search":
            c["embedding.embed_search_errors" if failed else f"embedding.embed_search.{tag}"] += 1
        elif name == "coloring.solve":
            c["coloring.solve_calls"] += 1
            c["coloring.solve_errors" if failed else f"coloring.solve.{tag}"] += 1
        elif name == "audit.full_audit":
            c["audit.full_audit_calls"] += 1
            c["audit.witnesses"] += 0 if failed else tag
        elif name == "discharge.settle":
            c["discharge.settle_calls"] += 1
            for rule, k in () if failed else tag:
                c[f"discharge.transfers.{rule}"] += k
        elif name == "discharge.charge_report" and not failed:
            c["discharge.negatives"] += tag
        elif name == "discharge.hunt" and not failed and tag is not None:
            c[f"discharge.hunt.eliminated_at.{tag}"] += 1
    return dict(sorted(c.items()))


def write_spans(path: str, spans: list[list]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("op\tname\tstart\tend\tparent\ttag\n")
        for name, start, end, parent, op, tag in spans:
            fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{tag}\n")
