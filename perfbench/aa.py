#!/usr/bin/env python3
"""A/A check of the benchmark, the way its driver judges it.

Runs the command of BENCHMARK.json N times per workload in each of two sets,
alternating set membership run by run (A, B, A, B, ...) so that drift of the
machine falls on both, run i of either set with seed SEED+i. For every
end-to-end metric it prints both medians, how much worse B's is than A's, the
spread of each set (distance between first and third quartile as a share of
the median, statistics.quantiles(n=4)), and PASS or FAIL against the bound:
spreads (except that of setup_s) and the difference of medians must stay
within it. Exits non-zero on FAIL, on a failed operation, or when a run does
not report exactly the metrics BENCHMARK.json lists.

    python3 perfbench/aa.py [--runs N] [--seed S] [--workload NAME] [--trace]

Run it from the root of the repository.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or set(result["metrics"]) != want:
        sys.exit(f"{workload}: result keys differ from BENCHMARK.json")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 3)")
    ap.add_argument("--seed", type=int, default=43)
    ap.add_argument("--workload", help="only this workload")
    ap.add_argument("--trace", action="store_true",
                    help="instead: two traced runs per workload, list the per-layer values that differ")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"] if args.workload in (None, w["name"])]

    if args.trace:
        for w in workloads:
            a, b = run(spec, w, args.seed, 1), run(spec, w, args.seed, 1)
            print(f"{w}: per-layer values of two traced runs, seed {args.seed}")
            for name in a:
                mark = "" if a[name] == b[name] else "   differs"
                print(f"  {name:<32} {a[name]:>16.4f} {b[name]:>16.4f}{mark}")
        return

    if args.runs < 3:
        sys.exit("--runs must be at least 3")
    failed = False
    print(f"{'workload':<12} {'metric':<24} {'median A':>12} {'median B':>12} {'B worse':>8} "
          f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
    for w in workloads:
        sets = ([], [])
        for i in range(2 * args.runs):
            sets[i % 2].append(run(spec, w, args.seed + i // 2, 0))
        for m in spec["end_to_end"]:
            a, b = ([r[m["name"]] for r in s] for s in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if m["better"] == "lower" else -1)
            spreads = (spread(a), spread(b))
            ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(spreads) <= m["bound"])
            failed |= not ok
            print(f"{w:<12} {m['name']:<24} {med_a:>12.4f} {med_b:>12.4f} {worse:>+8.2%} "
                  f"{spreads[0]:>9.2%} {spreads[1]:>9.2%} {m['bound']:>6.1%}  {'PASS' if ok else 'FAIL'}",
                  flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
