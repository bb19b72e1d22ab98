"""Steadiness check: run one workload with N seeds and print each
end-to-end metric's spread against its bound.

    python3 bench/steady.py --workload parse-ambiguous --runs 5

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
metric is steady when its spread stays under a third of its bound; the
exit code is 1 if any spread exceeds its bound.  Each run measures for
``run_seconds`` from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        wall = time.monotonic() - started
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s (raw kernel %.3f ms, raw throughput %.4g/s, %.1f s wall)" % (
            seed, " ".join("%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items()),
            detail["kernel_ms"], detail["raw_throughput_per_s"], wall), flush=True)

    worst = 0
    print("%-18s %12s %8s %6s  %s" % ("metric", "median", "spread", "bound", "verdict"))
    for m in spec["end_to_end"]:
        s = spread(values[m["name"]])
        verdict = "steady" if s < m["bound"] / 3 else "within bound" if s <= m["bound"] else "TOO NOISY"
        if s > m["bound"]:
            worst = 1
        print("%-18s %12.6g %8.4f %6.2f  %s" % (
            m["name"], statistics.median(values[m["name"]]), s, m["bound"], verdict))
    return worst


if __name__ == "__main__":
    sys.exit(main())
