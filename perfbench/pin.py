"""Record verdict pins for a range of seeds.

    python3 perfbench/pin.py --seeds 0-19 [--workload hunt ...]

Runs every op of each seeded corpus once, checks it, and stores a hash of the
verdict summary of every decided op in ``pins.json``, keyed by a hash of the
instance and the command line.  ``run.py`` counts an op whose verdict differs
from its pin as failed.  Re-pin only when a verdict is meant to change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    p.add_argument("--workload", nargs="*", default=sorted(run.LIMITS))
    args = p.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    import corpus
    from oddcolor import cli

    signal.signal(signal.SIGALRM, run._alarm)
    pins = run.load_pins()
    for workload in args.workload:
        runner = run.Runner(cli, run.LIMITS[workload], {})
        for seed in range(lo, hi + 1):
            outdir = run.ROOT / ".perfbench" / f"pin-{workload}-{seed}"
            outdir.mkdir(parents=True, exist_ok=True)
            try:
                ops = corpus.build(workload, seed, str(outdir))
                for op in ops:
                    key = run.pin_key(op)
                    status, _, note, _ = runner.run(op, key)
                    if status == "failed":
                        print(f"error: {workload} seed {seed} {op.key}: {note}", file=sys.stderr)
                        return 1
                    if status == "decided":
                        value = run.pin_value(note)
                        if pins.setdefault(key, value) != value:
                            print(f"error: {op.key} gave two verdicts", file=sys.stderr)
                            return 1
            finally:
                shutil.rmtree(outdir, ignore_errors=True)
            print(f"{workload} seed {seed}: {len(pins)} pins", flush=True)
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=0, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
