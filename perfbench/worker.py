"""One workload process of the benchmark (started by run.py).

It sets up (imports, family build, one fixed warm-up instance), prints
`ready`, runs the closed loop, then checks the answers outside the timed
region and prints its result as one JSON line.  With --setup-only it stops
after `ready`, so that run.py can time set-up several times.

Closed loop: one caller, no threads; instance i starts after instance i-1
returns.  Only the library call and its JSON report are timed; input
generation, digests and answer checks run between or after instances.
With --trace 1 the loop runs untraced for half the time, then the same
instances run again with the per-layer tracer installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


class Loop:
    """What one pass of the closed loop produced."""

    def __init__(self):
        self.latencies: list[float] = []  # seconds, successful instances only
        self.timed = 0.0  # seconds inside timed regions, failed instances included
        self.count = 0
        self.failures: dict[int, str] = {}
        self.hashes: list[str] = []  # answer hashes of instances 0 .. digested-1
        self.kept: list[tuple] = []  # (index, input, result) of the instances to check


def closed_loop(w, seconds: float | None = None, count: int | None = None, tracer=None) -> Loop:
    """Run instances 0, 1, ... until `seconds` of timed work or `count` instances."""
    out = Loop()
    i = 0
    while (out.timed < seconds) if count is None else (i < count):
        elapsed, ok = run_one(w, out, i, tracer)
        out.timed += elapsed
        if ok:
            out.latencies.append(elapsed)
        i += 1
    out.count = i
    return out


def run_one(w, out: Loop, i: int, tracer=None) -> tuple[float, bool]:
    """Run instance i and keep what the digest and the checks need.
    Returns the timed seconds and whether the instance returned."""
    inp = w.make(i)
    if tracer is not None:
        tracer.start_instance(i)
    res = text = None
    t0 = perf_counter()
    try:
        res, text = workloads.run(w, inp)
    except Exception:  # a failed instance is counted and the run goes on
        elapsed = perf_counter() - t0
        out.failures[i] = traceback.format_exc(limit=3)
    else:
        elapsed = perf_counter() - t0
    if i < w.digested:
        out.hashes.append("error" if text is None else workloads.answer_hash(w, text))
    if i < w.checked and res is not None:
        out.kept.append((i, inp, res))
    return elapsed, res is not None


def complete_prefix(w, out: Loop) -> int:
    """Run, untimed, any digested instance the timed loop did not reach."""
    for i in range(out.count, w.digested):
        run_one(w, out, i)
    return max(0, w.digested - out.count)


def check_answers(w, seed: int, out: Loop) -> dict[int, str]:
    """Failed answer checks and digest mismatches, by instance index."""
    failures = {}
    for i, inp, res in out.kept:
        errors = w.check(inp, res)
        if errors:
            failures[i] = "; ".join(errors)
    stored = json.loads((HERE / "digests.json").read_text()).get(w.name, {}).get(str(seed))
    if stored is not None and workloads.prefix_digest(out.hashes) != stored:
        for i in range(w.digested):
            failures.setdefault(i, "answer digest differs from the stored one")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload](args.seed)
    warm = workloads.WORKLOADS[args.workload](workloads.WARMUP_SEED)
    workloads.run(w, warm.make(workloads.WARMUP_INDEX))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        import tracing

        first = closed_loop(w, seconds=args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            second = closed_loop(w, count=first.count, tracer=tracer)
        finally:
            tracer.uninstall()
        computed = tracer.metrics(first.count)
        computed["trace.overhead_s"] = second.timed - first.timed
        computed["trace.instances"] = first.count
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{w.name}-{args.seed}.jsonl")
        attempted = first.count + second.count + complete_prefix(w, first)
        failures = {**first.failures, **check_answers(w, args.seed, first)}
        failed = len(failures) + len(second.failures)
        failed += sum(a != b for a, b in zip(first.hashes, second.hashes))
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        loop = closed_loop(w, seconds=args.seconds)
        attempted = loop.count + complete_prefix(w, loop)
        failures = {**loop.failures, **check_answers(w, args.seed, loop)}
        failed = len(failures)
        lat = loop.latencies
        computed = {
            "instances_per_s": len(lat) / loop.timed,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = [m["name"] for m in spec["end_to_end"] if m["name"] != "setup_s"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for i, why in sorted(failures.items()):
        print(f"{w.name} seed {args.seed} instance {i} failed: {why}", file=sys.stderr)
    metrics = {name: {"value": computed[name], "unit": units[name]} for name in names}
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
