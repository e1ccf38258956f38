"""Run one benchmark workload and print its metrics as JSON.

From the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it records the run's
provenance.  A traced run also writes its spans to
``perfbench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def catalogue(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, out_dir: str = OUT_DIR):
    """Run one workload; returns ``(summary line dict, Outcome)``."""
    from perfbench.workloads import WORKLOADS

    outcome = WORKLOADS[workload](seed, seconds, trace, scale, out_dir)
    units = catalogue("per_layer" if trace else "end_to_end")
    unknown = set(outcome.metrics) - set(units)
    missing = set(units) - set(outcome.metrics)
    if unknown or (missing and not trace):
        raise RuntimeError(f"{workload}: metrics not in BENCHMARK.json "
                           f"{sorted(unknown)}, not measured {sorted(missing)}")
    # A per-layer metric a workload does not reach (its layer is bypassed,
    # or runs in another process) reads 0.
    metrics = {name: {"value": outcome.metrics.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    outcome.provenance.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        scale=scale, nproc=len(os.sched_getaffinity(0)),
        python=platform.python_version(), commit=git_commit(),
        errors=outcome.errors)
    if outcome.tracer is not None:
        outcome.tracer.dump(
            os.path.join(out_dir, f"trace-{workload}-{seed}.json"),
            outcome.provenance)
    line = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}
    return line, outcome


def reap_children() -> None:
    """Wait for every child process the run started, then stop
    multiprocessing's resource tracker and wait for it too.

    Any "spawn" start (the oracle pool, the fleet's shard workers)
    launches that tracker, and it would otherwise outlive this process
    until it noticed its pipe close.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_cold", "shared_dest_tcp",
                                 "fleet_mutation"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    try:
        line, outcome = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    finally:
        reap_children()
    print(json.dumps({"provenance": outcome.provenance}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
