#!/usr/bin/env python3
"""Summary, steadiness and determinism reports over benchmark runs.

Run from the repository root:

    python3 perfbench/report.py summary [--seed N] [--trace 1]
        runs every workload once and prints, for each, the operations
        attempted and failed and every metric with its unit

    python3 perfbench/report.py steadiness --workload W --runs 10 [--first-seed S] [--trace 1]
        runs the workload with seeds S..S+runs-1 (S is 1 unless given) and prints, for every metric,
        the median, the quartiles and the quartile spread as a share of
        the median, against the bound in BENCHMARK.json

    python3 perfbench/report.py determinism --workload W --seed N
        makes two traced runs with one seed and flags every work counter
        or single-domain allocation that does not repeat exactly

The run length is BENCHMARK.json's run_seconds unless --seconds is given.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time

# metrics derived from the clock, which no two runs share
TIMING_METRICS = (".self_ms", ".overhead_pct", ".unattributed_max_pct", ".ops_uncovered",
                  ".kernel_ms")


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed: {workload} seed {seed} (exit {out.returncode})")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summary(args, bench):
    failed = 0
    for w in bench["workloads"]:
        r = run(w["name"], args.seed, args.seconds, args.trace)
        failed += r["failed"]
        print(f"{w['name']}: {r['attempted']} operations attempted, {r['failed']} failed, "
              f"correct {r['correct']}")
        for name, m in r["metrics"].items():
            print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")
    return 1 if failed else 0


def steadiness(args, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    results = [run(args.workload, seed, args.seconds, args.trace)
               for seed in range(args.first_seed, args.first_seed + args.runs)]
    if args.trace == 0:
        for seed, r in zip(range(args.first_seed, args.first_seed + args.runs), results):
            print(f"  seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()))
    print(f"{args.workload}: {args.runs} runs of {args.seconds}s, "
          f"{sum(r['attempted'] for r in results)} operations attempted, "
          f"{sum(r['failed'] for r in results)} failed, "
          f"{max(r['wall_s'] for r in results):.0f}s longest run")
    worst = 0.0
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = f"bound {bound:.2f} ({spread / bound:.0%} of it)"
            worst = max(worst, spread / bound)
        print(f"  {name:28s} {med:14.4f} {unit:6s} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"spread {spread:7.2%} {note}")
    if args.trace == 0:
        print(f"largest spread, as a share of its bound: {worst:.0%}")


def determinism(args):
    a = run(args.workload, args.seed, args.seconds, 1)["metrics"]
    b = run(args.workload, args.seed, args.seconds, 1)["metrics"]
    flagged = 0
    for name in a:
        if name.endswith(TIMING_METRICS):
            continue
        same = a[name]["value"] == b[name]["value"]
        if not same:
            flagged += 1
        print(f"  {name:28s} {a[name]['value']:16.6f} {b[name]['value']:16.6f} "
              f"{'' if same else 'DIFFERS'}")
    print(f"{args.workload}: {flagged} counters differ between two runs of seed {args.seed}")
    if flagged:
        print("  (alloc_mb counts the main domain only: a layer that runs after a"
              " run_batch over several domains may pick up the others' allocation)")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["summary", "steadiness", "determinism"])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.mode == "summary":
        return summary(args, bench)
    if args.workload is None:
        p.error("--workload is required")
    if args.mode == "steadiness":
        steadiness(args, bench)
    else:
        determinism(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
