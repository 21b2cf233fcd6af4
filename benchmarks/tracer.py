"""Spans around the public functions of each curvedwork layer, for the traced run.

`installed(tracer)` replaces each wrap target (a module attribute, a class
attribute or a `verify.CRITERIA` entry) by a wrapper that records a span, and
puts the originals back on exit.  A target that no longer exists raises
`MissingTarget`, so a refactor cannot silently zero a layer's span.  Spans
stay in memory; the caller writes them out once, at the end.

A span's self time is its duration minus the durations of its direct child
spans.  Per-layer metrics are per-iteration values, medians over the traced
iterations.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class MissingTarget(RuntimeError):
    """A wrap target named in TARGETS or CRITERIA is gone from the program."""


def _steps(args, kwargs, result):
    return (("steps", int(args[3] if len(args) > 3 else kwargs["steps"])),)


def _dim3(args, kwargs, result):
    return (("work_dim3", int(args[0].shape[-1]) ** 3),)


def _merge_counts(args, kwargs, result):
    works = args[1] if len(args) > 1 else kwargs["works"]
    return (("outcomes_in", int(works.size)), ("support_out", int(result.works.size)))


def _written_bytes(args, kwargs, result):
    outdir = Path(args[1] if len(args) > 1 else kwargs["outdir"])
    return (("bytes", sum(f.stat().st_size for f in outdir.iterdir() if f.is_file())),)


# (owner, attribute, span name, counters); "module:Class" names a class attribute.
# Counters return (name, value) pairs: spans made only of tuples and atoms drop
# out of the cyclic garbage collector, which would otherwise rescan every span
# kept so far on each full collection inside the timed region.
# Functions imported into several modules are wrapped in each module that calls them.
TARGETS = (
    ("curvedwork.cli", "run_scenario", "scenarios.run_scenario", None),
    ("curvedwork.scenarios:ScenarioConfig", "from_file", "scenarios.config", None),
    ("curvedwork.scenarios:RunArtifacts", "write", "scenarios.write", _written_bytes),
    ("curvedwork.scenarios", "time_dilation", "frame.time_dilation", None),
    ("curvedwork.verify", "time_dilation", "frame.time_dilation", None),
    ("curvedwork.scenarios", "validate_frame", "frame.validate_frame", None),
    ("curvedwork.scenarios", "propagator", "quantum.propagator", _steps),
    ("curvedwork.verify", "propagator", "quantum.propagator", _steps),
    ("numpy.linalg", "eigh", "quantum.eigh", _dim3),
    ("curvedwork.quantum", "energy_basis", "quantum.energy_basis", None),
    ("curvedwork.tpm", "energy_basis", "quantum.energy_basis", None),
    ("curvedwork.scenarios", "thermal_state", "quantum.thermal_state", None),
    ("curvedwork.tpm", "thermal_state", "quantum.thermal_state", None),
    ("curvedwork.scenarios", "perturbative_amplitude", "quantum.perturbative_amplitude", None),
    ("curvedwork.scenarios", "forward_distribution", "tpm.forward_distribution", None),
    ("curvedwork.verify", "forward_distribution", "tpm.forward_distribution", None),
    ("curvedwork.scenarios", "reverse_distribution", "tpm.reverse_distribution", None),
    ("curvedwork.verify", "reverse_distribution", "tpm.reverse_distribution", None),
    ("curvedwork.scenarios", "delta_F", "tpm.delta_F", None),
    ("curvedwork.verify", "delta_F", "tpm.delta_F", None),
    ("curvedwork.tpm", "delta_F", "tpm.delta_F", None),
    ("curvedwork.scenarios", "crooks_check", "tpm.crooks_check", None),
    ("curvedwork.verify", "crooks_check", "tpm.crooks_check", None),
    ("curvedwork.tpm:WorkDistribution", "from_raw", "tpm.from_raw", _merge_counts),
)

# verify.CRITERIA entries by function name; A1 and A2 share one ensemble.
CRITERIA = {
    "criterion_crooks_jarzynski": "verify.A1_A2",
    "criterion_entropy_two_level": "verify.A3",
    "criterion_effective_frequency": "verify.A4",
    "criterion_perturbation_vs_propagator": "verify.A5",
    "criterion_propagator_quality": "verify.A6",
    "criterion_geometry": "verify.A7",
    "criterion_scale_estimate": "verify.A8",
}

# Spans reported as a call count and a self time.
COUNTED = (
    "cli.main",
    "frame.time_dilation",
    "frame.validate_frame",
    "quantum.propagator",
    "quantum.energy_basis",
    "quantum.thermal_state",
    "quantum.perturbative_amplitude",
    "tpm.forward_distribution",
    "tpm.reverse_distribution",
    "tpm.delta_F",
    "tpm.crooks_check",
    "tpm.from_raw",
)

SPAN_FIELDS = ("id", "parent", "iteration", "op", "name", "start", "end", "self_s", "counters")


class Tracer:
    """Collects spans: id, parent span, iteration, operation, name, times and counters."""

    def __init__(self):
        self.spans = []
        self.iteration = 0
        self.op = None
        self._stack = []  # [span id, seconds covered by child spans]
        self._next_id = 0

    def call(self, name, fn, args, kwargs, counter=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
        counters = counter(args, kwargs, result) if counter is not None else None
        self.spans.append((span_id, parent, self.iteration, self.op, name, start, end,
                           end - start - frame[1], counters))
        return result

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper


def _owner(path):
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError as exc:
        raise MissingTarget(f"wrap target module {module} cannot be imported: {exc}") from exc
    if cls:
        owner = getattr(owner, cls, None)
        if not isinstance(owner, type):
            raise MissingTarget(f"wrap target class {path} not found")
    return owner


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block; raise MissingTarget if one is gone."""
    patches = []
    criteria_list = None
    saved_criteria = None
    try:
        for path, attr, name, counter in TARGETS:
            owner = _owner(path)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, counter))
            elif callable(raw):
                new = tracer.wrap(name, raw, counter)
            else:
                raise MissingTarget(f"wrap target {path}.{attr} not found")
            setattr(owner, attr, new)
            patches.append((owner, attr, raw))
        criteria_list = _owner("curvedwork.verify").CRITERIA
        saved_criteria = list(criteria_list)
        by_name = {fn.__name__: i for i, fn in enumerate(criteria_list)}
        for fname, name in CRITERIA.items():
            if fname not in by_name:
                raise MissingTarget(f"verify criterion {fname} not in verify.CRITERIA")
            i = by_name[fname]
            criteria_list[i] = tracer.wrap(name, criteria_list[i])
        yield tracer
    finally:
        if saved_criteria is not None:
            criteria_list[:] = saved_criteria
        for owner, attr, raw in reversed(patches):
            setattr(owner, attr, raw)


def iteration_totals(spans) -> dict:
    """{iteration: {span name: {"calls", "self_s", "total_s", counters...}}}."""
    totals = {}
    for _, _, iteration, _, name, start, end, self_s, counters in spans:
        entry = totals.setdefault(iteration, {}).setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += end - start
        for key, value in counters or ():
            entry[key] = entry.get(key, 0) + value
    return totals


def _per_iteration(totals: dict):
    """Per-layer metric values of one traced iteration, as (name, unit, value)."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0.0 if key.endswith("_s") else 0)

    rows = []
    for name in COUNTED:
        rows += [(f"{name}.calls", "count", get(name, "calls")),
                 (f"{name}.self_s", "s", get(name, "self_s"))]
    steps = get("quantum.propagator", "steps")
    rows += [
        ("quantum.propagator.steps", "count", steps),
        ("quantum.propagator.s_per_step", "s",
         get("quantum.propagator", "total_s") / steps if steps else 0.0),
        ("quantum.eigh.calls", "count", get("quantum.eigh", "calls")),
        ("quantum.eigh.s", "s", get("quantum.eigh", "total_s")),
        ("quantum.eigh.work_dim3", "count", get("quantum.eigh", "work_dim3")),
        ("tpm.from_raw.outcomes_in", "count", get("tpm.from_raw", "outcomes_in")),
        ("tpm.from_raw.support_out", "count", get("tpm.from_raw", "support_out")),
        ("scenarios.config.self_s", "s", get("scenarios.config", "self_s")),
        ("scenarios.run_scenario.self_s", "s", get("scenarios.run_scenario", "self_s")),
        ("scenarios.write.s", "s", get("scenarios.write", "total_s")),
        ("scenarios.write.bytes", "count", get("scenarios.write", "bytes")),
    ]
    rows += [(f"{name}.s", "s", get(name, "total_s")) for name in CRITERIA.values()]
    return rows


def layer_metrics(spans, plain_s, traced_s) -> dict:
    """Per-layer metrics (medians over traced iterations) plus the tracing overhead."""
    per_iter = [_per_iteration(t) for _, t in sorted(iteration_totals(spans).items())]
    metrics = {}
    for i, (name, unit, _) in enumerate(per_iter[0]):
        values = [rows[i][2] for rows in per_iter]
        value = statistics.median_low(values) if unit == "count" else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1.0
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics


def shares(spans, traced_s) -> list:
    """(span name, median inclusive seconds per iteration, share of the iteration wall time)."""
    by_iter = iteration_totals(spans)
    names = sorted({n for t in by_iter.values() for n in t})
    wall = statistics.median(traced_s)
    rows = []
    for name in names:
        total = statistics.median(t.get(name, {}).get("total_s", 0.0) for t in by_iter.values())
        rows.append((name, total, total / wall))
    return sorted(rows, key=lambda r: -r[1])
