#!/usr/bin/env python3
"""Runs one workload once per seed and reports how steady each metric is.

    python3 perfbench/spread.py --workload dedup_100k --seeds 1-10
                                [--seconds S] [--trace 0|1]

For every metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json. It also prints the share of failed operations per run
and a fingerprint of the host. Raw result lines go to
.bench_work/spread_<workload>.jsonl.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(q3 - q1) / median, with the quartiles of statistics.quantiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = subprocess.run(["c++", "--version"], capture_output=True,
                              text=True).stdout.split("\n")[0]
    flags = "unknown"
    flags_make = os.path.join(ROOT, ".bench_build", "tailormatch", "src", "nn",
                              "CMakeFiles",
                              "tm_nn.dir", "flags.make")
    if os.path.exists(flags_make):
        with open(flags_make) as f:
            for line in f:
                if line.startswith("CXX_FLAGS"):
                    flags = line.split("=", 1)[1].strip()
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True).stdout.strip()
    return (f"nproc {os.cpu_count()}; CPU {cpu}; {platform.machine()}; "
            f"compiler {compiler}; flags {flags}; git {sha or 'n/a'}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    results = []
    out_path = os.path.join(ROOT, ".bench_work",
                            f"spread_{args.workload}.jsonl")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "a") as out:
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 args.workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = run.stdout.strip().split("\n")
            if run.returncode != 0 or not lines[-1].startswith("{"):
                sys.stderr.write(run.stderr[-3000:])
                sys.exit(f"seed {seed}: run failed")
            result = json.loads(lines[-1])
            result["seed"] = seed
            out.write(json.dumps(result) + "\n")
            results.append(result)
            print(f"seed {seed}: correct {result['correct']} failed "
                  f"{result['failed']}/{result['attempted']} in "
                  f"{time.monotonic() - start:.1f} s", flush=True)

    print(host_fingerprint())
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        bound = bounds.get(name)
        print(f"{name:32} {statistics.median(values):12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread(values):7.3f} "
              f"{'' if bound is None else bound:>6}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")


if __name__ == "__main__":
    main()
