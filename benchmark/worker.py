"""One round of a workload, in a fresh process; run.py starts it.

A fresh process per round means the program's lru_caches (cached_mesh
and the others) start cold, as they do for a user of the command line.
The worker imports the program, installs the tracer when asked, runs the
workload's operations once inside the timed part, and writes timings,
outputs and spans to the JSON file named by --out.

    python3 benchmark/worker.py --workload NAME --out FILE --spawned-at T
        [--trace] [--setup-only]

--spawned-at is the parent's time.monotonic() just before it started
this process, so that setup_s covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _verify_argv(op: dict, report_path: str) -> list[str]:
    argv = ["verify", "--domain", op["domain"], "--m", str(op["m"])]
    if op["h_list"]:
        argv += ["--h-list", op["h_list"]]
    if not op["mps"]:
        argv.append("--no-mps")
    return argv + ["--out", report_path]


def _mps_find(corpus, mps, op: dict) -> dict:
    try:
        d = corpus.corpus_domain(op["domain"])
        hits = mps.mps_find(d, op["problem"], tuple(op["window"]), op["N"])
    except Exception as exc:  # noqa: BLE001 - an operation that raises counts as failed
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"minima": [{"value": float(e.value), "omega": float(e.omega),
                        "sigma": float(e.sigma)} for e in hits]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import workloads

    ops = workloads.OPS[args.workload]
    from neuspec import cli, corpus, mps, quadrature

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"neuspec imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    report_dir = os.path.join(os.path.dirname(os.path.abspath(args.out)), "reports")
    os.makedirs(report_dir, exist_ok=True)
    report_paths = [os.path.join(report_dir, f"{args.workload}-{i}.json")
                    for i in range(len(ops))]
    for path in report_paths:
        if os.path.exists(path):
            os.remove(path)

    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        outputs = [
            {"exit": cli.main(_verify_argv(op, path))} if op["kind"] == "verify"
            else _mps_find(corpus, mps, op)
            for op, path in zip(ops, report_paths)
        ]
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        for out, path in zip(outputs, report_paths):
            if "exit" in out:
                # verify writes no report when it fails during a stage
                out["report"] = None
                if os.path.exists(path):
                    with open(path) as fh:
                        out["report"] = json.load(fh)
        result.update({
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mesh_cache_hits": quadrature.cached_mesh.cache_info().hits,
            "outputs": outputs,
        })
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
