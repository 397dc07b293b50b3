"""treebmo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads and metrics are declared in
BENCHMARK.json; perfbench/layers.json says which layer metric should move
which end-to-end metric on which workload.  Each run starts fresh
workload processes (perfbench/worker.py) one at a time:

* --trace 0: the workload process is set up SETUP_RUNS times in all (the
  last one goes on to measure) and setup_s is the median time from process
  start to the end of its warm-up instance.  The other end-to-end metrics
  come from the closed loop of the last process.
* --trace 1: one process runs the untraced loop and the traced replay of
  the same instances, and reports the per-layer metrics.

The last line of standard output is the result as one JSON object.  The
exit code is non-zero, with no result printed, if the treebmo sources are
missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, all workload processes included


class WorkerError(RuntimeError):
    pass


def _lines(proc: subprocess.Popen, deadline: float):
    """Yield the lines of proc's standard output as they arrive; kill it at the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                raise WorkerError("workload process ran past the deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            while b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                yield line.decode()
    if buf:
        yield buf.decode()


def run_worker(argv: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start one workload process; return its set-up time and the lines printed after `ready`."""
    start = time.perf_counter()
    # A fixed hash seed keeps set and dict orders, and so the work done, the
    # same in every process that runs the same instances.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE, cwd=ROOT, env=env
    )
    try:
        lines = _lines(proc, deadline)
        for line in lines:
            if line == "ready":
                setup = time.perf_counter() - start
                break
        else:
            raise WorkerError("workload process ended before it was ready")
        rest = list(lines)
        code = proc.wait(max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise WorkerError(f"workload process exited with code {code}")
        return setup, rest
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "treebmo" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a treebmo checkout (src/treebmo and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(run_worker([*worker_argv, "--seconds", "0", "--setup-only"], deadline)[0])
        setup, lines = run_worker(
            [*worker_argv, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(setup)
        result = json.loads(lines[-1])
    except (WorkerError, json.JSONDecodeError, IndexError, subprocess.TimeoutExpired) as e:
        print(f"error: {args.workload} seed {args.seed}: {e}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(
        f"{args.workload} seed {args.seed}: {result['attempted']} instances, "
        f"{result['failed']} failed; "
        + ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
