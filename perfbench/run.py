"""The oddcolor benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 26 --trace 0

Builds the seeded corpus (timed as set-up, at least three times), then runs
every op as an in-process call of ``oddcolor.cli.run_command`` with the argv
a user would type, one at a time, each under a fixed time limit, in passes
over the corpus until ``--seconds`` is used up.  Every output is checked (``checks.py``)
and compared with its pin (``pins.json``).  Times are scaled to a fixed
machine speed measured by ``reference()``.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and it carries the per-layer counts and times.  Exit status
is 1 when any output check fails, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

# Per-op time limits, fixed per workload.  Each sits at least twice above the
# slowest op that finishes and twice below the fastest op that does not
# (measured when the benchmark was added; see README.md).
LIMITS = {"hunt": 0.6, "embed": 10.0, "solve": 0.8, "analyze": 10.0}
# set-up repeats until both hold; setup_s is the median build
SETUP_MIN_BUILDS = 3
SETUP_MIN_SECONDS = 1.0
LONG_OP_S = 1.5
LONG_OP_EVERY = 2
TAIL_BEYOND = 10
DURATION = re.compile(r'"duration_s": [^,}]*')
# Speed adjustment (see README.md): reference() runs before every op and
# around every set-up build, and each time is scaled by REF_S over the median
# reference time of the REF_WINDOW calls on either side of it.
REF_S = 0.0005
REF_WINDOW = 5


def reference() -> int:
    """A fixed piece of pure-Python work like the library's own: dict, set
    and list traffic, a graph search, a sort and string formatting."""
    adj = {i: [(i * 7 + k) % 200 for k in range(3)] for i in range(200)}
    seen, stack, order = set(), [0], []
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            order.append(v)
            stack.extend(adj[v])
    pairs = sorted((v % 13, -v) for v in order)
    return len(pairs) + sum(len(str(p)) for p in pairs[:100])


def reference_s() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that exceeds its limit."""


def _alarm(signum, frame):
    raise OpTimeout()


def pin_key(op) -> str:
    flags = " ".join(a for a in op.argv[1:] if not a.endswith(".json"))
    blob = json.dumps(op.inst, sort_keys=True, separators=(",", ":")) + "|" + op.command + " " + flags
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def pin_value(summary: str) -> str:
    return hashlib.sha256(summary.encode()).hexdigest()[:12]


def load_pins() -> dict:
    if not PINS.is_file():
        return {}
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs single ops under a time limit and classifies the outcome.

    decided: a checked verdict within the limit; undecided: hit the limit,
    and its time is the limit;
    crashed: RecursionError on an op not decided at pin time (a known defect);
    failed: any other exception, a failed check or a verdict unlike its pin.
    """

    def __init__(self, cli, limit: float, pins: dict):
        self.cli, self.limit, self.pins = cli, limit, pins
        # (op key, exit code, output digest) -> check outcome; an output
        # identical to one already checked, but for the report's duration,
        # gets the same outcome
        self.checked: dict[tuple, tuple[str, str]] = {}

    def run(self, op, key: str) -> tuple[str, float, str, float]:
        """Returns (status, seconds, summary or problem, reference seconds)."""
        ref = reference_s()
        return (*self._run(op, key), ref)

    def _run(self, op, key: str) -> tuple[str, float, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.run_command(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return "undecided", self.limit, "time limit"
        except RecursionError:
            dt = perf_counter() - t0
            if key in self.pins:
                return "failed", dt, "RecursionError on an op decided when pinned"
            return "crashed", dt, "RecursionError"
        except Exception as exc:  # any other escape is a defect of the op, not of the run
            return "failed", perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        stdout = out.getvalue()
        timeless = DURATION.sub("", stdout, count=1)
        seen = (key, code, hashlib.sha256(timeless.encode()).digest())
        if seen not in self.checked:
            self.checked[seen] = self.verdict(op, key, code, stdout)
        return self.checked[seen][0], dt, self.checked[seen][1]

    def verdict(self, op, key: str, code: int, stdout: str) -> tuple[str, str]:
        try:
            summary = checks.check(op, code, stdout)
        except checks.CheckError as exc:
            return "failed", str(exc)
        pin = self.pins.get(key)
        if pin is not None and pin != pin_value(summary):
            return "failed", f"verdict {summary!r} differs from its pin"
        return "decided", summary


def carried_ops(history: list[list[tuple]]) -> dict:
    """Ops the next pass skips, given the earlier passes of its kind.

    An op that hit its limit is not run again, and one that took over
    LONG_OP_S runs only every LONG_OP_EVERY-th pass; a skipped op repeats its
    last result.  The time goes to more passes over the short ops.
    """
    if not history:
        return {}
    skip_long = len(history) % LONG_OP_EVERY != 0
    return {
        i: r for i, r in enumerate(history[-1])
        if r[0] == "undecided" or (skip_long and r[1] > LONG_OP_S)
    }


def run_pass(runner, ops, keys, carried: dict, tracer=None) -> list[tuple]:
    """One pass over the corpus; ops in ``carried`` repeat their result."""
    results = []
    for i, (op, key) in enumerate(zip(ops, keys)):
        result = carried.get(i)
        if result is None:
            if tracer is not None:
                tracer.op = i
            result = runner.run(op, key)
        results.append(result)
    return results


def settle_status(per_pass: list[tuple]) -> tuple[str, str]:
    """One status per op from its results over all passes.

    An op's outcome is its best pass: decided if any pass
    decided it, crashed if any pass reached the crash.  Every decided pass
    must give the same verdict, and an op may not both crash and decide.
    """
    statuses = {r[0] for r in per_pass}
    for r in per_pass:
        if r[0] == "failed":
            return "failed", r[2]
    if "decided" in statuses:
        summaries = {r[2] for r in per_pass if r[0] == "decided"}
        if len(summaries) > 1:
            return "failed", f"verdict changed between passes: {sorted(summaries)}"
        if "crashed" in statuses:
            return "failed", "crashed in one pass and decided in another"
        return "decided", summaries.pop()
    if "crashed" in statuses:
        return "crashed", "RecursionError"
    return "undecided", "time limit"


def adjusted(passes: list[tuple]) -> list[list]:
    """Each call's time at reference speed, per pass; None where the op was
    skipped.  An undecided op keeps its limit."""
    refs = [r[3] for _, res, skipped in passes for i, r in enumerate(res) if i not in skipped]
    out, k = [], 0
    for _, res, skipped in passes:
        row = []
        for i, r in enumerate(res):
            if i in skipped:
                row.append(None)
                continue
            local = statistics.median(refs[max(0, k - REF_WINDOW): k + REF_WINDOW + 1])
            row.append(r[1] if r[0] == "undecided" else r[1] * REF_S / local)
            k += 1
        out.append(row)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("hunt", "embed", "solve", "analyze"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oddcolor" / "cli.py").is_file():
        print(f"error: no oddcolor sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import corpus
    import tracing
    from oddcolor import cli

    signal.signal(signal.SIGALRM, _alarm)
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, setup_wall = [], []
        while len(setup_s) < SETUP_MIN_BUILDS or sum(setup_wall) < SETUP_MIN_SECONDS:
            outdir = work / f"setup{len(setup_s)}"
            outdir.mkdir(parents=True)
            refs = [reference_s() for _ in range(REF_WINDOW + 1)]
            t0 = perf_counter()
            ops = corpus.build(args.workload, args.seed, str(outdir))
            setup_wall.append(perf_counter() - t0)
            refs += [reference_s() for _ in range(REF_WINDOW)]
            setup_s.append(setup_wall[-1] * REF_S / statistics.median(refs))
        keys = [pin_key(op) for op in ops]
        runner = Runner(cli, LIMITS[args.workload], load_pins())
        tracer = tracing.Tracer() if args.trace else None
        passes, traced_spans = [], []
        history = {False: [], True: []}
        start = perf_counter()
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            carried = carried_ops(history[traced])
            if traced:
                first = len(tracer.spans)
                tracer.install()
            try:
                results = run_pass(runner, ops, keys, carried, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
                    traced_spans.append((first, len(tracer.spans), set(carried)))
            history[traced].append(results)
            passes.append((traced, results, set(carried)))
            # stop when the next pass, as its ops last took, would not fit
            nxt = history[bool(tracer) and len(passes) % 2 == 1]
            if not nxt:
                continue  # a traced run needs one pass of each kind
            skipped = carried_ops(nxt)
            expected = sum(r[1] for i, r in enumerate(nxt[-1]) if i not in skipped)
            if perf_counter() - start + expected > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    settled = [settle_status([res[i] for _, res, _ in passes]) for i in range(len(ops))]
    status_counts = {s: sum(1 for st, _ in settled if st == s) for s in ("decided", "undecided", "crashed", "failed")}
    # calls actually made; a carried result is not a call
    ran = [r for _, res, carried in passes for i, r in enumerate(res) if i not in carried]
    calls, failed_calls = len(ran), sum(1 for r in ran if r[0] == "failed")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops x {len(passes)} passes, "
          f"limit {LIMITS[args.workload]} s per op")
    print("ops " + " ".join(f"{k}={v}" for k, v in status_counts.items()))
    for op, (status, note) in zip(ops, settled):
        if status == "failed":
            print(f"FAILED {op.key}: {note}")

    scaled = adjusted(passes)

    def per_op(traced: bool, wall: bool = False) -> list[float]:
        """Each op's median time over the passes that ran it, at reference
        speed or, with ``wall``, as measured; see README.md for why."""
        runs = [
            ([r[1] for r in res] if wall else row, skipped)
            for (t, res, skipped), row in zip(passes, scaled) if t == traced
        ]
        return [statistics.median(row[i] for row, skipped in runs if i not in skipped) for i in range(len(ops))]

    def timings(op_s: list[float]) -> dict:
        tail_s, _ = tail(op_s)
        return {
            "corpus_s": (sum(op_s), "s"),
            "op_p50_ms": (1000 * statistics.median(op_s), "ms"),
            "op_tail_ms": (1000 * tail_s, "ms"),
        }

    def refs(traced: bool) -> list[float]:
        return [r[3] for t, res, skipped in passes if t == traced for i, r in enumerate(res) if i not in skipped]

    wall = timings(per_op(False, wall=True))
    reference_ms = 1000 * statistics.median(refs(False))
    print("as measured, before the speed adjustment: "
          + ", ".join(f"{k}={v:.6g}" for k, (v, _) in wall.items())
          + f"; median reference time {reference_ms:.4f} ms against {1000 * REF_S} ms")
    if tracer is None:
        op_s = per_op(False)
        print(f"op_tail_ms is p{tail(op_s)[1]:.1f} of {len(op_s)} per-op times ({TAIL_BEYOND} beyond it)")
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            **timings(op_s),
            "decided_share": (status_counts["decided"] / len(ops), "share"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        # work counts only cover ops that ended in every pass
        skip = {i for _, res, _ in passes for i, r in enumerate(res) if r[0] in ("undecided", "failed")}
        (a0, b0, _), later = traced_spans[0], traced_spans[1:]
        counts = tracing.work_counts(tracer.spans[a0:b0], skip)
        # every traced pass must repeat the first one's counts on the ops it ran
        if any(
            tracing.work_counts(tracer.spans[a:b], skip | gone) != tracing.work_counts(tracer.spans[a0:b0], skip | gone)
            for a, b, gone in later
        ):
            print("FAILED work counts differ between traced passes")
            status_counts["failed"] += 1
        counts.update({f"ops.{k}": v for k, v in status_counts.items()})
        counts["ops.attempted"] = len(ops)
        n_traced = len(traced_spans)
        times = tracing.layer_times(tracer.spans, tracing.pass_indices(tracer.spans, traced_spans))
        # layer times per traced pass, at reference speed like the ops
        per_pass = REF_S / statistics.median(refs(True)) / n_traced
        print("layer, per traced pass                    calls    total_s     self_s")
        for name in tracing.ROWS:
            row = times[name]
            print(f"{name:<40} {row['calls'] / n_traced:>6.0f} {row['total_s'] * per_pass:>10.4f} "
                  f"{row['self_s'] * per_pass:>10.4f}")
        traced_s, untraced_s = sum(per_op(True)), sum(per_op(False))
        overhead = traced_s - untraced_s
        print(f"tracing overhead {overhead:.4f} s per pass (traced {traced_s:.4f} s, "
              f"untraced {untraced_s:.4f} s, {n_traced} traced passes)")
        print("counts " + json.dumps(counts, sort_keys=True))
        tracing.write_spans(str(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.tsv"), tracer.spans)
        metrics = {name: (v, "count") for name, v in counts.items()}
        for name in tracing.ROWS:
            metrics[f"{name}_s"] = (times[name]["total_s"] * per_pass, "s")
            metrics[f"{name}.self_s"] = (times[name]["self_s"] * per_pass, "s")
        # the CLI's own time: run_command minus the layers it calls
        metrics["cli.self_s"] = metrics.pop("cli.run_command.self_s")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics.update({f"wall.{k}": v for k, v in wall.items()})
        metrics["machine.reference_ms"] = (reference_ms, "ms")

    result = {
        "correct": status_counts["failed"] == 0,
        "attempted": calls,
        "failed": failed_calls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
