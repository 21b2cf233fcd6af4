"""Benchmark workloads: generated inputs, CLI operations and output checks.

A workload is one iteration's list of operations.  Each operation is one
`curvedwork` command-line invocation, made in-process through
`curvedwork.cli.main`, followed by a check of what it wrote.  Inputs are
generated from the workload seed; the program only ever sees the JSON configs
written here.

Sizes: "full" is what the benchmark times; "tiny" shrinks every workload so
the smoke test runs in seconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")

CROOKS_TOL = 1e-8
JARZYNSKI_TOL = 1e-10
UNITARITY_TOL = 1e-9
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
REFERENCE_KEYS = ("delta_F", "mean_work", "jarzynski_lhs", "entropy_production")

# tables_tpm runs the two-level table scan and the wide random-matrix TPM run in
# one iteration.  It is kept out of BENCHMARK.json: its interpreter-bound run
# time drifted by up to 36% between batches on a shared 2-vCPU host, beyond any
# bound the benchmark may set; trace it directly when working on those layers.
WORKLOADS = ("oscillator_d120", "tables_tpm", "verify_full")
SIZES = ("full", "tiny")


@dataclass
class Operation:
    """One CLI invocation and the check of its outputs."""

    name: str
    argv: list
    check: Callable[[Path], list]
    out: Path


def _frw_tables(taus, accel, addot_over_a, hubble):
    """Frame tables of a comoving FRW observer, as sampled worldline data.

    R_titj = -(addot/a) delta_ij, R_ikjl = (adot/a)^2 (d_ij d_kl - d_il d_kj),
    R_tjik = 0; `accel`, `addot_over_a` and `hubble` are functions of tau.
    """
    d = np.eye(3)
    pair = np.einsum("ij,kl->ikjl", d, d) - np.einsum("il,kj->ikjl", d, d)
    return {
        "tau": [float(t) for t in taus],
        "accel": [list(map(float, accel(t))) for t in taus],
        "riemann_titj": [(-addot_over_a(t) * d).tolist() for t in taus],
        "riemann_tjik": [np.zeros((3, 3, 3)).tolist() for _ in taus],
        "riemann_ikjl": [(hubble(t) ** 2 * pair).tolist() for t in taus],
    }


def power_law_frw_tables(rows, duration):
    """a(t) = (1 + t/2)^(1/2): adot/a = 1/(4 + 2t), addot/a = -(1/16)(1 + t/2)^-2, no accel."""
    return _frw_tables(
        np.linspace(0.0, duration, rows),
        accel=lambda t: (0.0, 0.0, 0.0),
        addot_over_a=lambda t: -(1.0 / 16.0) / (1.0 + 0.5 * t) ** 2,
        hubble=lambda t: 1.0 / (4.0 + 2.0 * t),
    )


def accelerated_desitter_tables(rows, duration, hubble=0.05):
    """Constant FRW curvature with Hubble rate H plus accel (0.1(1 + 0.1 sin tau), 0, 0)."""
    return _frw_tables(
        np.linspace(0.0, duration, rows),
        accel=lambda t: (0.1 * (1.0 + 0.1 * math.sin(t)), 0.0, 0.0),
        addot_over_a=lambda t: hubble ** 2,
        hubble=lambda t: hubble,
    )


def random_symmetric(seed, dim, scale=0.3):
    """Real-symmetric matrix with N(0, scale^2) entries, symmetrised."""
    m = np.random.default_rng(seed).normal(scale=scale, size=(dim, dim))
    return 0.5 * (m + m.T)


def _load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _write_config(path: Path, config: dict) -> str:
    with open(path, "w") as fh:
        json.dump(config, fh)
    return str(path)


def _scenario_check(expected: dict):
    """Check report.json: fluctuation relations, unitarity and the expected values."""

    def check(out: Path) -> list:
        with open(out / "report.json") as fh:
            payload = json.load(fh)
        report, meta = payload["report"], payload["metadata"]
        problems = []
        if not report["crooks_max_residual"] < CROOKS_TOL:
            problems.append(f"crooks_max_residual {report['crooks_max_residual']:.3g}")
        jdev = abs(report["jarzynski_lhs"] - report["jarzynski_rhs"])
        if not jdev < JARZYNSKI_TOL:
            problems.append(f"|jarzynski_lhs - jarzynski_rhs| = {jdev:.3g}")
        block = meta.get("oscillator") or meta.get("custom") or {}
        defect = block.get("unitarity_defect")
        if defect is None or not defect < UNITARITY_TOL:
            problems.append(f"unitarity_defect {defect}")
        for key in REFERENCE_KEYS:
            got, ref = report[key], expected[key]
            if not abs(got - ref) <= max(REFERENCE_RTOL * abs(ref), REFERENCE_ATOL):
                problems.append(f"{key} = {got!r}, expected {ref!r}")
        return problems

    return check


def _verify_check(out: Path) -> list:
    with open(out / "verification.json") as fh:
        summary = json.load(fh)
    if summary.get("passed") is not True:
        failed = [c["name"] for c in summary.get("criteria", []) if not c.get("passed")]
        return [f"verification failed: {failed}"]
    return []


def _rescaling_oracle(h, beta, tables, position, momentum, mass):
    """Exact TPM summary for H(tau) = z(tau) H with a commuting path.

    Populations never change, so every outcome keeps its level n and the work
    is (z_T - z_0) E_n.  z(tau) is the non-relativistic time-dilation factor
    along the straight line from rest at the origin; z_0 = 1 and z_T uses the
    last table row, which lies exactly at tau = duration.
    """
    x = np.asarray(position, dtype=float)
    p = np.asarray(momentum, dtype=float)
    a_end = np.asarray(tables["accel"][-1], dtype=float)
    r_end = np.asarray(tables["riemann_titj"][-1], dtype=float)
    z0 = 1.0
    zt = 1.0 - (p @ p) / (2.0 * mass * mass) + a_end @ x + 0.5 * (x @ r_end @ x)
    e = np.linalg.eigvalsh(h)
    shifted = -beta * (e - e[0])
    gibbs = np.exp(shifted) / np.sum(np.exp(shifted))
    dz = zt - z0
    lz = [math.log(np.sum(np.exp(-beta * z * (e - e[0])))) - beta * z * e[0] for z in (z0, zt)]
    df = -(lz[1] - lz[0]) / beta
    mw = float(dz * (gibbs @ e))
    return {
        "delta_F": df,
        "mean_work": mw,
        "jarzynski_lhs": float(gibbs @ np.exp(-beta * dz * e)),
        "entropy_production": beta * (mw - df),
    }


def _rescaling_config(system, tables, steps):
    return {
        "scenario": "custom",
        "beta": 1.0,
        "system": system,
        "geometry": {"frame_tables": tables},
        "position": [0.5, 0.0, 0.0],
        "momentum": [0.01, 0.0, 0.0],
        "duration": 1.0,
        "steps": steps,
    }


def _scenario_op(name, config, workdir: Path, expected) -> Operation:
    path = _write_config(workdir / f"{name}.json", config)
    out = workdir / f"{name}.out"
    return Operation(name, [config["scenario"], "--config", path, "--out", str(out)],
                     _scenario_check(expected), out)


def fixed_configs(size: str) -> dict:
    """Configs whose inputs do not depend on the seed, keyed by operation name."""
    full = size == "full"
    oscillator = {"kind": "oscillator", "mass": 1.0, "omega0": 1.0, "dim": 120 if full else 24}
    common = {"beta": 1.0, "system": oscillator, "duration": 5.0,
              "steps": 500 if full else 10}
    return {
        "oscillator_d120.desitter": {"scenario": "desitter", "geometry": {"hubble": 0.01},
                                     **common},
        "oscillator_d120.custom": {
            "scenario": "custom",
            "geometry": {"frame_tables": power_law_frw_tables(64, 5.0)},
            **common,
        },
        "tables_two_level.custom": _rescaling_config(
            {"kind": "two_level", "eps": 1.0},
            accelerated_desitter_tables(30, 1.0),
            2000 if full else 10,
        ),
    }


def _wide_matrix_op(seed: int, size: str, workdir: Path) -> Operation:
    """Seeded random matrix system; checked against the exact rescaling oracle."""
    h = random_symmetric(seed, 200 if size == "full" else 8)
    tables = accelerated_desitter_tables(8, 1.0)
    config = _rescaling_config({"kind": "matrix", "entries": h.tolist()}, tables,
                               20 if size == "full" else 10)
    expected = _rescaling_oracle(h, config["beta"], tables, config["position"],
                                 config["momentum"], 1.0)
    return _scenario_op("tpm_wide_d200.custom", config, workdir, expected)


def build(workload: str, seed: int, size: str, workdir: Path) -> list:
    """Write the inputs of `workload` into `workdir`; return one iteration's operations."""
    if workload not in WORKLOADS or size not in SIZES:
        raise ValueError(f"unknown workload {workload!r} or size {size!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "verify_full":
        out = workdir / "verify.out"
        level = "full" if size == "full" else "fast"
        return [Operation("verify_full.verify", ["verify", "--level", level, "--out", str(out)],
                          _verify_check, out)]
    reference = _load_reference()[size]
    fixed = {n: _scenario_op(n, c, workdir, reference[n]) for n, c in fixed_configs(size).items()}
    if workload == "oscillator_d120":
        return [fixed["oscillator_d120.desitter"], fixed["oscillator_d120.custom"]]
    return [fixed["tables_two_level.custom"], _wide_matrix_op(seed, size, workdir)]
