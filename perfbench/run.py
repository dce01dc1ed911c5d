"""Benchmark entry point.

    python3 perfbench/run.py --workload {backfill,tail,sql} --seed N \
        --seconds S --trace {0,1}

Builds the workload's inputs from ``--seed``, measures for ``--seconds``,
checks every output against an oracle and prints, as the last line of
standard output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``). The line before it holds the
host record, sample counts and warnings. Exits non-zero, printing no result,
when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile
import time

T_START = time.perf_counter()
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# one thread per native pool (Arrow, BLAS), here and in Ray's workers
os.environ["OMP_NUM_THREADS"] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["backfill", "tail", "sql"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def run(args) -> tuple[dict, dict]:
    from perfbench import gen, harness, layers, workloads
    from perfbench.trace import Tracer

    root = harness.make_run_root(args.workload, args.seed)
    temp = harness.ray_temp_dir(root)
    os.environ["TMPDIR"] = os.path.join(root, "tmp")
    tempfile.tempdir = None
    tracer = Tracer()
    procs = []
    try:
        t0 = time.perf_counter()
        harness.start_ray(root, workloads.WORKLOADS[args.workload]
                          .idle_workers)
        init_s = time.perf_counter() - t0
        # Ray installs its own SIGTERM handler, which exits without cleanup
        signal.signal(signal.SIGTERM, _on_sigterm)
        t0 = time.perf_counter()
        harness.warm_workers()
        warm_s = time.perf_counter() - t0
        harness.pin_one_cpu(harness.ray_processes())
        shuffle = layers.install(tracer) if args.trace \
            else layers.ShuffleCounter()
        bench = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), root, tracer, shuffle)
        bench.setup.update({"ray.init_s": init_s, "ray.warm_s": warm_s})
        bench.run_setup()
        setup_s = init_s + warm_s + bench.setup["gen.inputs_s"] \
            + bench.setup["gen.lake_build_s"]

        procs = harness.ray_processes()
        harness.reset_peak_rss(procs)
        ticks = harness.cpu_ticks()
        bench.run_timed()
        steal = harness.steal_share(ticks, harness.cpu_ticks())
        procs = harness.ray_processes()
        peak = harness.peak_rss_mb(procs)
        t0 = time.perf_counter()
        bench.verify()
        bench.run_checks()
        checks_s = time.perf_counter() - t0

        files = harness.input_files(root)
        host = harness.host_record(
            gen.digest_files(files),
            max(files, key=os.path.getsize) if files else None)
        host["cpu_steal_share_timed"] = steal
        if args.trace:
            values = bench.layer_metrics()
            values["host.decode_mrows_s"] = host["host_decode_mrows_s"]
            values["host.loadavg_1m"] = host["loadavg_1m"]
        else:
            values = bench.end_to_end(setup_s, peak)
        detail = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "host": host,
                  "setup": bench.setup, "timed_s": bench.timed_s,
                  "checks_s": checks_s,
                  "samples": bench.detail(),
                  "checks_failed": bench.checks_failed,
                  "warnings": tracer.warnings,
                  "wall_s": time.perf_counter() - T_START}
        result = {"correct": not bench.checks_failed and not bench.failed,
                  "attempted": bench.attempted, "failed": bench.failed,
                  "values": values}
        return result, detail
    finally:
        tracer.restore()
        try:
            procs = harness.ray_processes() or procs
            harness.stop_ray(procs)
        finally:
            harness.remove_root(root, temp)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(REPO, "qwery_ray", "__init__.py")):
        print(f"perfbench: the qwery_ray package is not in {REPO}; "
              f"nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, REPO)
    signal.signal(signal.SIGTERM, _on_sigterm)
    # a shell starts background jobs with SIGINT ignored, and the processes
    # Ray starts would inherit that: Ray then fails to cancel tasks (a
    # Dataset.limit() stopping early) with "'Handlers' object is not
    # callable" and the cancelled work keeps running
    signal.signal(signal.SIGINT, signal.default_int_handler)
    declared = declared_metrics(bool(args.trace))
    result, detail = run(args)
    values = result.pop("values")
    metrics = {}
    for m in declared:
        v = values.get(m["name"])
        if v is None and not args.trace:
            result["correct"] = False
            detail["checks_failed"].append(f"{m['name']} was not measured")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    extra = sorted(set(values) - {m["name"] for m in declared})
    if extra:
        detail["unreported"] = extra
    print(json.dumps(detail, default=str))
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
