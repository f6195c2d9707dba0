#!/usr/bin/env python3
"""fracstab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: scalar_long, vector_neutral,
certify_sweep (see perfbench/README.md).  The workload runs in a fresh
child process (``worker.py``) with the package imported from ``src/``,
BLAS/OpenMP thread counts pinned to the CPUs this process may use, and
``FRACSTAB_WORKERS`` unset.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics, with ``--trace 1`` the per-layer ones; the line
before it records the environment.  Set-up time (interpreter start, import
of the package, input generation) is the median of five fresh starts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scalar_long", "vector_neutral", "certify_sweep")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("FRACSTAB_WORKERS", None)
    threads = str(len(os.sched_getaffinity(0)))
    for var in _THREAD_VARS:
        env[var] = threads
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, env, setup_only, deadline):
    """Start a worker and wait for its READY line; returns (process, seconds
    from start to READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, ready


def finish(proc, deadline):
    """Wait for a worker within the deadline; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run deadline") from None
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fracstab", "__init__.py")):
        print("perfbench: src/fracstab not found; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    try:
        setup = []
        if args.trace == 0:
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready = start_worker(args, env, True, deadline)
                finish(proc, deadline)
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up run failed (exit code {proc.returncode})")
                setup.append(ready)
        proc, ready = start_worker(args, env, False, deadline)
        setup.append(ready)
        out = finish(proc, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"perfbench: worker failed (exit code {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps({"env": result["env"], "setup_samples_s": setup, "walls_s": result["walls_s"],
                      "traced_walls_s": result["traced_walls_s"]}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
