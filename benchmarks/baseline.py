"""Run the benchmark over several seeds and write a BENCH_*.json summary.

Run from the root of a checkout:

    python3 benchmarks/baseline.py --runs 10 --out benchmarks/BENCH_baseline.json

For each workload, `--runs` untraced runs with seeds 1..runs give each
end-to-end metric's median, quartiles and spread (quartile distance over the
median, as `statistics.quantiles(values, n=4)` gives them); one traced run
with seed 1 gives the per-layer metrics and each span's share of an
iteration.  Workloads run one after another, each run in its own process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, trace, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    record = Path(".bench_out", "results", f"{workload}-full-seed{seed}-trace{trace}.json")
    return result, json.loads(record.read_text())["details"]


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    out = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        values, attempted, failed = {}, 0, 0
        for seed in range(1, args.runs + 1):
            result, details = run(workload, seed, 0, seconds)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, tdetails = run(workload, 1, 1, seconds)
        out["machine"] = tdetails["machine"]
        out["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {k: summary(v) for k, v in values.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "span_shares": [{"span": n, "s_per_iteration": s, "share": f}
                            for n, s, f in tdetails["shares"]],
        }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for workload, w in out["workloads"].items():
        for name, s in w["end_to_end"].items():
            print(f"{workload:18s} {name:12s} median {s['median']:.5g} spread {s['spread']:.4f}")


if __name__ == "__main__":
    main()
