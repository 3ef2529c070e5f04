"""Command line surface: one verb per library capability.

Every run prints a JSON report to stdout and a one-line summary to stderr.
Exit codes: 0 success / SAT / pass, 1 refuted / UNSAT / violations found,
2 input error, 3 internal error (an uncaught exception, never a verdict).
All randomness flows through one seed, set only by ``--seed`` (default 0) and
echoed in the report so runs can be reproduced byte for byte (durations
aside).  The parser is built once, on import, from the verb table alone, and
a command line that starts with a verb is parsed by that verb's parser alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback

from . import jsonio
from .audit import analyze, full_audit
from .coloring import (
    RelaxedInstance,
    odd_chromatic_number,
    sampled_choosability,
    solve,
    uniform_lists,
)
from .discharge import charge_report, hunt, settle
from .embedding import embed_search
from .generate import generate_girth_instances
from .graphs import girth, hypothesis_check, one_subdivision
from .jsonio import Instance

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load(args) -> tuple[Instance | None, str | None]:
    if "path" not in args:  # gen reads no file
        return None, None
    try:
        inst, digest = jsonio.load_instance(args.path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load {args.path}: {exc}") from exc
    if args.r is not None:
        idx = [_index(tok) for tok in map(str.strip, args.r.split(",")) if tok]
        r = jsonio._relaxation(idx, "--r", inst.graph.edges)
        inst = Instance(inst.graph, r, inst.embedding, inst.lists)
    return inst, digest


def _index(token: str) -> int | str:
    """An --r token as an integer, or as given, for ``jsonio`` to name."""
    try:
        return int(token)
    except ValueError:
        return token


def _at_least(flag: str, value: int, low: int) -> int:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    return value


def _need_embedding(inst: Instance) -> None:
    if inst.embedding is None:
        raise ValueError("this command needs an instance file with a rotation")


# -- subcommand bodies: return (result_json, exit_code) -------------------------


def cmd_check(args, inst: Instance):
    rep = hypothesis_check(inst.graph, inst.r)
    return rep.to_json(), EXIT_OK if rep.passes else EXIT_REFUTED


def cmd_faces(args, inst: Instance):
    _need_embedding(inst)
    emb = inst.embedding
    return (
        {
            "faces": jsonio.faces_to_json(emb),
            "euler_genus": emb.euler_genus,
            "orientable": emb.is_orientable(),
        },
        EXIT_OK,
    )


def cmd_embed(args, inst: Instance):
    emb = embed_search(inst.graph, args.max_genus)
    if emb is None:
        return {"embedding": None, "max_genus": args.max_genus}, EXIT_REFUTED
    out = jsonio.embedding_to_json(emb, inst.r)
    return (
        {"embedding": out, "euler_genus": emb.euler_genus, "faces": len(emb.faces)},
        EXIT_OK,
    )


def cmd_solve(args, inst: Instance):
    lists = inst.lists
    if lists is None:
        if args.k is None:
            raise ValueError("give --k or an instance file with lists")
        # a vertex never has more than n - 1 colors forbidden, and position p
        # tries ranks <= p, so every k >= n + 1 runs the search of n + 1
        n = inst.graph.n
        lists = uniform_lists(n, min(_at_least("--k", args.k, 1), n + 1))
    elif args.k is not None:
        raise ValueError("--k cannot be combined with an instance file with lists")
    k = lists.k if args.k is None else args.k  # an empty graph's lists have no size
    coloring = solve(RelaxedInstance(inst.graph, inst.r, lists))
    if coloring is None:
        return {"status": "UNSAT", "k": k}, EXIT_REFUTED
    return {"status": "SAT", "k": k, **jsonio.coloring_to_json(coloring)}, EXIT_OK


def cmd_chromatic(args, inst: Instance):
    return {"odd_chromatic_number": odd_chromatic_number(inst.graph)}, EXIT_OK


def cmd_choosable(args, inst: Instance):
    k = _at_least("--k", args.k, 1)
    if args.universe is not None:
        _at_least("--universe", args.universe, k)
    trials = _at_least("--trials", args.trials, 1)
    rep = sampled_choosability(inst.graph, k, inst.r, trials, args.universe, args.seed)
    result = {
        "k": rep.k,
        "trials": rep.trials,
        "universe": rep.universe,
        "summary": rep.summary(),
        "refutations": [
            {"trial": t, "lists": [list(l) for l in lists]}
            for t, lists in rep.refutations
        ],
    }
    return result, EXIT_REFUTED if rep.refuted else EXIT_OK


def cmd_audit(args, inst: Instance):
    rep = full_audit(analyze(inst.graph, inst.r, inst.embedding))
    result = {"audit": rep.to_json(), "counterexample_shaped": rep.counterexample_shaped}
    return result, EXIT_OK if rep.counterexample_shaped else EXIT_REFUTED


def cmd_discharge(args, inst: Instance):
    _need_embedding(inst)
    a = analyze(inst.graph, inst.r, inst.embedding)
    ledger = settle(a)
    charges = charge_report(ledger, full_audit(a))
    return {"ledger": ledger.to_json(), "charges": charges.to_json()}, EXIT_OK


def cmd_hunt(args, inst: Instance):
    rep = hunt(inst.graph, inst.r, args.max_genus)
    code = EXIT_OK if rep.eliminated_at is not None else EXIT_REFUTED
    return rep.to_json(), code


def cmd_subdivide(args, inst: Instance):
    return jsonio.graph_to_json(one_subdivision(inst.graph)), EXIT_OK


def cmd_gen(args, _inst):
    graphs = generate_girth_instances(
        _at_least("--n", args.n, 3),
        _at_least("--min-girth", args.min_girth, 3),
        _at_least("--count", args.count, 1),
        args.seed,
    )
    return (
        {
            "instances": [jsonio.graph_to_json(g) for g in graphs],
            "girths": [girth(g) for g in graphs],
        },
        EXIT_OK,
    )


MAX_GENUS = {"--max-genus": dict(type=int, choices=(0, 1, 2), default=2)}

# verb -> (body, the flags it adds to --seed, --quiet and, except gen, the input file)
COMMANDS = {
    "check": (cmd_check, {}),
    "faces": (cmd_faces, {}),
    "embed": (cmd_embed, MAX_GENUS),
    "solve": (cmd_solve, {"--k": dict(type=int)}),
    "chromatic": (cmd_chromatic, {}),
    "choosable": (
        cmd_choosable,
        {
            "--k": dict(type=int, required=True),
            "--trials": dict(type=int, default=100),
            "--universe": dict(type=int, default=None),
        },
    ),
    "audit": (cmd_audit, {}),
    "discharge": (cmd_discharge, {}),
    "hunt": (cmd_hunt, MAX_GENUS),
    "subdivide": (cmd_subdivide, {}),
    "gen": (
        cmd_gen,
        {
            "--n": dict(type=int, required=True),
            "--min-girth": dict(type=int, required=True),
            "--count": dict(type=int, default=1),
        },
    ),
}


# verb -> its parser, filled by build_parser
_VERB_PARSERS: dict[str, argparse.ArgumentParser] = {}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="oddcolor", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = _VERB_PARSERS[name] = sub.add_parser(name)
        if name != "gen":
            p.add_argument("--graph", "--instance", dest="path", required=True, help="graph or instance JSON file")
            p.add_argument("--r", help="relaxation set as edge indices, e.g. 0,3,5")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
    return top


# COMMANDS is the parser's only input, so one parser serves every call
PARSER = build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``PARSER.parse_args(argv)``, with a leading verb parsed by its own
    parser only: the top-level parser hands everything after the verb to
    that parser anyway, then reports what it left over."""
    verb = _VERB_PARSERS.get(argv[0]) if argv else None
    if verb is None:  # no verb, -h or an unknown verb: the top level reports it
        return PARSER.parse_args(argv)
    args, extra = verb.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run_command(argv: list[str]) -> int:
    """Run one subcommand, print its report and return its exit code.

    ``duration_s`` times loading and the verb; the report is encoded after
    that, by ``jsonio.dumps_report``, which builds the pre-encoded text of
    any five pairs then.  An encoding failure (TypeError, or AssertionError
    for a misplaced text) propagates, so ``main`` exits 3, never a verdict.
    """
    args = _parse(argv)
    started = time.perf_counter()
    try:
        inst, digest = _load(args)
        result, code = COMMANDS[args.command][0](args, inst)
    except ValueError as exc:
        # bad input, found by the CLI or the library (malformed lists, ...)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = {
        "command": args.command,
        "input_digest": digest,
        "seed": args.seed,
        "duration_s": round(time.perf_counter() - started, 6),
        "result": result,
    }
    try:
        print(jsonio.dumps_report(report), flush=True)
    except BrokenPipeError:
        # the reader stopped early (`| head`): the verdict stands, and stdout
        # now writes to the null device, so no flush at exit fails again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    if not args.quiet:
        status = {EXIT_OK: "ok", EXIT_REFUTED: "refuted/violations"}[code]
        print(f"oddcolor {args.command}: {status}", file=sys.stderr)
    return code


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
    except Exception as exc:
        # a crash must not read as a verdict, least of all EXIT_REFUTED
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    sys.exit(code)


if __name__ == "__main__":
    main()
