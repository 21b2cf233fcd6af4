"""Benchmark of the curvedwork command line; the contract is BENCHMARK.json.

Run from the root of a checkout (the sources are read from ./src):

    python3 benchmarks/run.py --workload oscillator_d120 --seed 1 --seconds 45 --trace 0

Workloads: oscillator_d120 and verify_full, plus tables_tpm, which is not in
BENCHMARK.json (see workloads.py).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are
setup_s, run_s, peak_rss_mb and ok_frac; with --trace 1 they are the
per-layer metrics of a traced run plus trace_overhead_frac.  A fuller record
(machine, samples, failures, per-span shares) goes to .bench_out/results/,
and the spans of the last traced iteration to .bench_out/

Set-up time is the wall time of a fresh interpreter running
`import curvedwork.cli`, after one discarded priming run; it is the median of
SETUP_REPS runs.  The workload then runs in this process: one discarded
warm-up iteration, then iterations until --seconds have passed; run_s is
their median.
"""

import os

# BLAS and OpenMP pools read these when numpy loads, so they are set before any
# import of it; the fresh set-up interpreters inherit them.  On a 2-core host
# a 2-thread pool was both slower and noisier than one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
SETUP_TIMEOUT_S = 60


def measure_setup(root: Path, reps: int) -> list:
    """Wall seconds of `reps` fresh interpreters importing curvedwork.cli, after a priming run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import curvedwork.cli"]
    times = []
    for _ in range(reps + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "curvedwork" / "cli.py").is_file():
        print(f"benchmark: no curvedwork sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup(root, SETUP_REPS)

    sys.path.insert(0, str(root / "src"))
    import harness

    out = root / ".bench_out"
    result = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  "full", root, out)
    details = result.pop("details")
    if setup is not None:
        details["setup_s_samples"] = setup
        result["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **result["metrics"]}
    for failure in details["problems"][:5]:
        print(f"benchmark: {failure['op']} failed: {failure['problems']}", file=sys.stderr)
    record = out / "results" / (
        f"{args.workload}-full-seed{args.seed}-trace{args.trace}.json")
    record.parent.mkdir(parents=True, exist_ok=True)
    with open(record, "w") as fh:
        json.dump({**result, "details": details}, fh, indent=1)
    print("machine:", json.dumps(details["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
