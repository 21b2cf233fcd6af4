"""In-process workload runner: warm-up, timed iterations, output checks, tracing.

The launcher `run.py` pins the BLAS thread pools and measures set-up time in
fresh interpreters; everything timed inside one warm process lives here.  The
smoke test calls `run_workload` directly at the tiny size.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import tracer as tracing
import workloads


class Runner:
    """Runs one iteration's operations through `cli.main`, times and checks each."""

    def __init__(self, main, ops):
        self.main = main
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _invoke(self, op):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.main(op.argv)

    def iteration(self, tracer=None) -> float:
        """Seconds spent inside `cli.main` for every operation of one iteration."""
        elapsed = 0.0
        for op in self.ops:
            shutil.rmtree(op.out, ignore_errors=True)
            gc.collect()  # the previous operation's garbage is not collected on the clock
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self._invoke(op)
                else:
                    tracer.op = op.name
                    rc = tracer.call("cli.main", self._invoke, (op,), {})
            except Exception as exc:  # an operation that raises counts as failed
                rc = f"{type(exc).__name__}: {exc}"
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            elapsed += time.perf_counter() - t0
            self._check(op, rc)
        return elapsed

    def _check(self, op, rc):
        self.attempted += 1
        if rc != 0:
            problems = [f"exit {rc}"]
        else:
            try:
                problems = op.check(op.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append({"op": op.name, "problems": problems})


def machine() -> dict:
    """Interpreter, library, BLAS, thread and CPU facts recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def _import_cli(root: Path):
    from curvedwork import cli

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"curvedwork was imported from {cli.__file__}, not from {src}")
    return cli


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 root: Path, out: Path) -> dict:
    """Run `workload` for `seconds` after one discarded warm-up iteration.

    Untraced, the metrics are `run_s`, `peak_rss_mb` and `ok_frac`.  Traced,
    untraced and traced iterations alternate and the metrics are the
    per-layer ones plus `trace_overhead_frac`; the spans of the last traced
    iteration are written to `out` at the end.  `root` is the checkout whose
    src/ must provide curvedwork.
    """
    cli = _import_cli(root)
    workdir = out / f"work-{workload}-{os.getpid()}"
    try:
        runner = Runner(cli.main, workloads.build(workload, seed, size, workdir))
        runner.iteration()
        details = {"machine": machine(), "workload": workload, "seed": seed, "size": size,
                   "seconds": seconds, "ops_per_iteration": len(runner.ops)}
        plain, traced = [], []
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + seconds
        while not plain or (trace and not traced) or time.perf_counter() < deadline:
            plain.append(runner.iteration())
            if trace:
                tracer.iteration = len(traced)
                with tracing.installed(tracer):
                    traced.append(runner.iteration(tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details.update(run_s_samples=plain, problems=runner.problems)
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, plain, traced)
        details["traced_run_s_samples"] = traced
        details["shares"] = tracing.shares(tracer.spans, traced)
        last = [span for span in tracer.spans if span[2] == len(traced) - 1]
        with open(out / f"spans-{workload}-{size}-seed{seed}.json", "w") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS, "spans": last}, fh)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "ok_frac": {"value": 1.0 - runner.failed / runner.attempted, "unit": "frac"},
        }
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "details": details,
    }
