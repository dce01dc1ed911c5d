"""Tracing overhead: traced wall minus untraced wall for the same work.

    python3 perfbench/overhead.py --workload tail --seed 7 --seconds 6

Runs the workload with the same seed and length with ``--trace 0`` and
with ``--trace 1``, in two pairs of opposite order (untraced first, then
traced first), so that a drift in host speed or a first-run effect cancels.
A run does the same operations either way, so the difference of the timed
phases (``timed_s`` in the line before each result) is what the layer
wrappers cost. Prints one JSON object with the mean over the pairs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def timed_s(workload: str, seed: int, seconds: float, trace: int) -> float:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    detail, result = (json.loads(x) for x in out.strip().splitlines()[-2:])
    if not result["correct"]:
        raise SystemExit(f"{workload} --trace {trace}: output checks failed: "
                         f"{detail['checks_failed']}")
    return detail["timed_s"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["backfill", "tail", "sql"])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=6)
    args = p.parse_args(argv)
    walls = {0: [], 1: []}
    for order in ((0, 1), (1, 0)):
        for trace in order:
            walls[trace].append(timed_s(args.workload, args.seed,
                                        args.seconds, trace))
    untraced = sum(walls[0]) / 2
    traced = sum(walls[1]) / 2
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "untraced_s": walls[0], "traced_s": walls[1],
                      "overhead_s": traced - untraced,
                      "overhead_ratio": (traced - untraced) / untraced}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
