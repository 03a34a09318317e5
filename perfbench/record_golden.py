"""Record the output digest and exit status of every workload command.

Run from the root of a checkout of the commit whose outputs are the
reference (the seed commit of the benchmark):

    python3 perfbench/record_golden.py --seeds 0..20 42

Each workload command is run once per seed as a child process, its output
passes the structural checks, and its sha256 and exit status are written to
perfbench/golden.json, keyed by the command line.  A command that takes no
seed is recorded once.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from run import source_stamp
from workloads import GOLDEN_PATH, WORKLOADS, command_key, launch


def _seeds(texts: list[str]) -> list[int]:
    seeds: list[int] = []
    for text in texts:
        lo, sep, hi = text.partition("..")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(text)])
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges A..B")
    args = parser.parse_args()
    outputs = {}
    for name, w in WORKLOADS.items():
        for seed in _seeds(args.seeds) if w.default_seed is not None else [None]:
            argv = w.argv(seed)
            run = launch(argv)
            w.check(run.rc, run.out)
            outputs[command_key(argv)] = {"sha256": hashlib.sha256(run.out).hexdigest(),
                                          "exit": run.rc, "bytes": len(run.out)}
            print(f"{name} seed={seed} exit={run.rc} {run.wall_s:.1f}s", file=sys.stderr)
    record = {"recorded_from": source_stamp(), "outputs": dict(sorted(outputs.items()))}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
