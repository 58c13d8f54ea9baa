#!/usr/bin/env python3
"""Runs the benchmark several times and reports how steady it is.

  benchmark/repeat.py --seeds 1,2,3,4,5,6,7,8,9,10
      the spread check: ten seeds per workload; for every end-to-end
      metric, the interquartile range as a share of the median, next to
      the metric's bound from BENCHMARK.json
  benchmark/repeat.py --seeds 7,7,7 --traced --out benchmark/baseline/seed7.json
      a baseline: median and quartiles of three invocations, untraced
      and traced, with the machine recorded

Uses the command and `run_seconds` of BENCHMARK.json, exactly as the driver
does. Run it from the root of the repository.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace, world):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    argv += ["--world", str(world)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(argv)} was not correct: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def tool_version(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="comma-separated; repeats allowed")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--traced", action="store_true", help="also run --trace 1")
    parser.add_argument("--world", type=int, default=7,
                        help="topology and fault-schedule seed (default 7, the benchmark's own)")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        sys.exit("quartiles need at least two runs")
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    worst = 0.0
    for workload in workloads:
        for trace in ([0, 1] if args.traced else [0]):
            runs = [run(spec["command"], workload, seed, spec["run_seconds"], trace, args.world)
                    for seed in seeds]
            stats = {name: summarise([r[name] for r in runs]) for name in runs[0]}
            summary.setdefault(workload, {})["traced" if trace else "untraced"] = stats
            print(f"== {workload} {'traced' if trace else 'untraced'}, seeds {args.seeds} ==")
            for name, s in stats.items():
                line = f"  {name:<32} median {s['median']:>14.4f}  q1 {s['q1']:>14.4f}  q3 {s['q3']:>14.4f}  spread {s['spread']:7.2%}"
                if name in bounds:
                    share = s["spread"] / bounds[name]
                    line += f"  bound {bounds[name]:.2%}  ({share:.2f} of it)"
                    if name != "setup_s":
                        worst = max(worst, share)
                print(line)
            sys.stdout.flush()
    print(f"largest spread, as a share of its bound (setup_s aside): {worst:.2f}")

    if args.out:
        record = {
            "seeds": seeds,
            "world": args.world,
            "run_seconds": spec["run_seconds"],
            "nproc": os.cpu_count(),
            "rustc": tool_version(["rustc", "--version"]),
            "commit": tool_version(["git", "rev-parse", "HEAD"]) or "not a git checkout",
            "workloads": summary,
        }
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
