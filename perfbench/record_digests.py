"""Record the answer digests that benchmark runs are checked against.

    python3 perfbench/record_digests.py 0-40 1000

For every workload and each given seed (single seeds or ranges a-b) this
runs instances 0 .. digested-1, checks their answers, and stores the
digest of those answers in perfbench/digests.json.  Record from a commit
whose answers are known good: a later commit whose answers differ on a
recorded seed then fails the benchmark's digest check.
"""

from __future__ import annotations

import json
import sys

from worker import HERE, closed_loop

import workloads


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str]) -> int:
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    for seed in parse_seeds(argv):
        for name, cls in workloads.WORKLOADS.items():
            w = cls(seed)
            loop = closed_loop(w, count=w.digested)
            errors = [e for i, inp, res in loop.kept for e in w.check(inp, res)]
            if loop.failures or errors:
                print(f"{name} seed {seed}: not recorded: {loop.failures or errors}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = workloads.prefix_digest(loop.hashes)
        print(f"seed {seed} recorded", flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
