"""One workload run in a fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``READY`` once the package is imported and the inputs are generated,
then runs the workload closed-loop (one caller) until ``--seconds`` have
passed, checks every result, and prints one JSON line.  With ``--trace 1``
traced and untraced iterations alternate on the same inputs: the untraced
ones give the tracing overhead and both must produce identical outputs.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter

import numpy as np
import scipy
from fracstab.errors import AccuracyWarning

import spans
import workloads


def _timed(workload, i, tracer):
    """One iteration; returns (ops, wall seconds, AccuracyWarning count)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is None:
            t0 = time.perf_counter()
            ops = workload.run(i)
            wall = time.perf_counter() - t0
        else:
            with spans.installed(tracer):
                t0 = time.perf_counter()
                with tracer.span("bench.iteration"):
                    ops = workload.run(i)
                wall = time.perf_counter() - t0
    n_warn = sum(issubclass(w.category, AccuracyWarning) for w in caught)
    return ops, wall, n_warn


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workdir = os.path.join(".perfbench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = _measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    print(json.dumps(result), flush=True)
    return 0


def _measure(workload, args):
    import reference  # mpmath and the stored tables: checks only, not set-up

    tracer = spans.Tracer() if args.trace else None
    iterations, walls, traced_walls = [], [], []
    pairs = []
    start = time.perf_counter()
    i = 0
    peak_rss_mb = None
    while i == 0 or time.perf_counter() - start < args.seconds:
        if tracer is None:
            ops, wall, _ = _timed(workload, i, None)
            if peak_rss_mb is None:
                # one iteration's peak, before results are kept for the checks
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            workload.collect(i, ops, Counter())
            iterations.append((i, ops))
            walls.append(wall)
        else:
            # alternate which side goes first, same inputs on both sides
            order = (None, tracer) if i % 2 == 0 else (tracer, None)
            pair = {}
            for tr in order:
                ops, wall, n_warn = _timed(workload, i, tr)
                workload.collect(i, ops, tracer.counters if tr else Counter())
                iterations.append((i, ops))
                pair[tr is not None] = ops
                (traced_walls if tr else walls).append(wall)
                if tr:
                    tracer.counters["fraccalc.accuracy_warnings"] += n_warn
            pairs.append(pair)
        i += 1

    workload.check(iterations, reference.load_tables(), reference)
    ops = [op for _, it in iterations for op in it]
    failed = [op for op in ops if not op.ok]
    # the ROADMAP defect cases count as failures but do not make the run wrong
    correct = all(op.known_defect for op in failed)
    same = all(workloads.same_outputs(p[False], p[True]) for p in pairs)
    correct = correct and same
    for op in failed:
        print(f"failed op: {op.name}: {_describe(op.value)}", file=sys.stderr)
    if not same:
        print("traced and untraced outputs differ", file=sys.stderr)

    n_ops = len(ops)
    if tracer is None:
        goodput = [sum(op.work for op in it if op.ok) / wall
                   for (_, it), wall in zip(iterations, walls)]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "goodput_per_s": {"value": statistics.median(goodput), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_ok_ratio": {"value": (n_ops - len(failed)) / n_ops, "unit": "ratio"},
        }
    else:
        metrics = spans.layer_metrics(tracer, len(traced_walls))
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced_walls) / statistics.median(walls), "unit": "ratio"}
        metrics["trace.wall_s"] = {"value": statistics.median(traced_walls), "unit": "s"}
        metrics["ops_failed_ratio"] = {"value": len(failed) / n_ops, "unit": "ratio"}
        tracer.save(os.path.join(".perfbench_out", f"trace-{args.workload}-{args.seed}.npz"),
                    {"workload": args.workload, "seed": args.seed})
    return {"correct": bool(correct), "attempted": n_ops, "failed": len(failed),
            "metrics": metrics, "walls_s": walls, "traced_walls_s": traced_walls}


def _describe(value):
    if isinstance(value, Exception):
        return f"{type(value).__name__}: {str(value)[:120]}"
    return "wrong result"


if __name__ == "__main__":
    sys.exit(main())
