"""Benchmark of neuspec: three workloads, checked outputs, per-layer trace.

Run from the root of a checkout:

    python3 benchmark/run.py --workload verify-ellipse --seed 1 --seconds 10 --trace 0

Workloads: verify-ellipse, powers-coarse, mps-sweep (see workloads.py and
README.md).  A run spawns rounds of the workload, each round in a fresh
process, until --seconds have passed (always at least one whole round),
with a few set-up-only processes before and after them.  Every output is
checked (checks.py) and the checks are self-tested on spoiled copies.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics, end to end with --trace 0, per layer with --trace 1.  The line
before it gives the run context, which is not a metric.

--seed is accepted and recorded, but no input depends on it: the
workloads are fixed, and the program's own seeds are internal constants.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# One BLAS/OpenMP thread: with the default two on a two-core host the same
# work is slower and far noisier, and the report bytes change.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up-only processes before the rounds, and as many after them: the
# host's speed drifts over tens of seconds, so the samples span the run
SETUP_ONLY_SPAWNS = 3
RUN_LIMIT_S = 170.0


class RoundError(RuntimeError):
    pass


def _spawn(root: str, workload: str, out_path: str, deadline: float,
           trace: bool = False, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_ENV)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--out", out_path]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundError(f"round of {workload} killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundError(f"round of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out_path) as fh:
        return json.load(fh)


def _calibration_s() -> float:
    """Time of a fixed pure-Python loop: host speed, shown next to the metrics."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def _context(root: str, args, calib_before: float, calib_after: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREAD_ENV,
        "src_lines": _src_lines(root),
        "calibration_s": [round(calib_before, 4), round(calib_after, 4)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "neuspec", "cli.py")):
        print(f"no neuspec sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, args.workload)
    ops = workloads.OPS[args.workload]

    def setup_samples():
        return [_spawn(root, args.workload, base + ".setup.json", deadline,
                       setup_only=True)["setup_s"] for _ in range(SETUP_ONLY_SPAWNS)]

    calib_before = _calibration_s()
    try:
        setups = setup_samples()
        rounds, traced = [], []
        t0 = time.monotonic()
        while True:
            rounds.append(_spawn(root, args.workload, base + ".round.json", deadline))
            if args.trace:
                # spans stay in this file after the run, for inspection
                traced.append(_spawn(root, args.workload, base + ".trace.json", deadline,
                                     trace=True))
            if time.monotonic() - t0 >= args.seconds:
                break
        setups += setup_samples()
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    calib_after = _calibration_s()

    attempted = failed = confident_wrong = 0
    escaped = []
    for i, rnd in enumerate(rounds + traced):
        results = checks.check(args.workload, ops, rnd["outputs"])
        for op, out, fails in zip(ops, rnd["outputs"], results):
            attempted += 1
            if fails:
                failed += 1
                confident_wrong += checks.declared_ok(op, out)
                if i == 0:
                    print(f"failed: {op['label']}: {'; '.join(fails)}")
        if i == 0:
            tried, escaped = checks.self_test(args.workload, ops, rnd["outputs"], results)
            print(f"self-test: {tried} spoiled outputs, {tried - len(escaped)} caught")
            for what in escaped:
                print(f"self-test: spoiled output passed its check: {what}")
    print("context " + json.dumps(_context(root, args, calib_before, calib_after)))

    def median(key, samples=rounds):
        return statistics.median(r[key] for r in samples)

    if args.trace:
        # the counts repeat exactly; the times are those of the median round
        mid = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
        metrics = spans.layer_metrics(mid["spans"], mid["wall_s"], mid["mesh_cache_hits"])
        metrics["trace.overhead_s"] = (mid["wall_s"] - median("wall_s"), "s")
    else:
        metrics = {
            "wall_s": (median("wall_s"), "s"),
            "cpu_s": (median("cpu_s"), "s"),
            "setup_s": (statistics.median(setups + [r["setup_s"] for r in rounds]), "s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        }
    print(json.dumps({
        "correct": not escaped and confident_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
