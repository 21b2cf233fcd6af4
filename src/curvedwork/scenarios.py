"""Scenario orchestration: config parsing, protocol runs, output emission.

A run is a frame and a protocol.  The scenario picks the frame: uniform gravity,
de Sitter, or user-tabulated frame data.  The system kind picks the protocol: the
oscillator driven by the tidal curvature R_txtx(tau), or the z(tau) quench of a
two-level or matrix system.  `run_scenario` adds the scenario's own outputs and
turns the protocol into distributions, report, sampling and artifacts.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ConvergenceError, InputError, NumericError
from .frame import (ROW_SHAPES, FrameData, FramePoint, check_straight_line, time_dilation,
                    validate_frame)
from .quantum import (
    AffinePath,
    EnergyBasis,
    HermitianOperator,
    UnitaryOperator,
    energy_basis,
    perturbative_amplitude,
    propagator,
    qho_hamiltonian,
    thermal_state,
    transition_probability_formula,
    two_level_hamiltonian,
    x_squared_matrix,
)
from .spacetimes import desitter_frame, uniform_gravity_frame
from .tpm import (
    ProtocolReport,
    WorkDistribution,
    crooks_check,
    delta_F,
    dissipated_work_thermal,
    entropy_production_two_level,
    forward_distribution,
    jarzynski_average,
    mean_work,
    reverse_distribution,
)

LEAKAGE_LIMIT = 1e-8
DEFAULT_OSCILLATOR_DIM = 40

# Size bounds: a dense complex U at MAX_DIM is 64 MB, and the others keep a run's
# time and memory within what one machine has.
MAX_DIM, MAX_STEPS, MAX_SAMPLES, MAX_CURVE_POINTS = 2048, 10 ** 6, 10 ** 7, 10 ** 5
Z_CHUNK = 2 ** 12  # times per call along a curve: bounds the frame rows or phases held

# Field types: REAL is a finite number (a Python int or float, not a bool) and
# POSITIVE one above 0; a range holds a Python int (not a bool); a tuple is the
# shape of nested lists of REALs, None marking any length; a class is that class.
# A top-level field whose default is None may be None (absent).
REAL, POSITIVE = "a finite number", "a positive number"
_FIELDS = {
    "scenario": str, "beta": POSITIVE, "system": dict, "geometry": dict,
    "position": (3,), "momentum": (3,), "duration": POSITIVE, "steps": range(1, MAX_STEPS + 1),
    "merge_tol": POSITIVE, "tolerances": dict, "seed": range(2 ** 64),
    "samples": range(1, MAX_SAMPLES + 1), "zfactor_grid": (None,),
    "curve_points": range(2, MAX_CURVE_POINTS + 1),
}
_SYSTEM_FIELDS = {
    "two_level": {"kind": str, "eps": POSITIVE, "mass": POSITIVE},
    "oscillator": {"kind": str, "mass": POSITIVE, "omega0": POSITIVE,
                   "dim": range(2, MAX_DIM + 1)},
    "matrix": {"kind": str, "entries": (None, None), "mass": POSITIVE},
}
_REQUIRED_SYSTEM = {"two_level": ("eps",), "oscillator": ("mass", "omega0"),
                    "matrix": ("entries",)}
# scenario: (the system kinds it runs, its one geometry key, that key's type)
_SCENARIOS = {"newtonian": (("two_level",), "g", REAL),
              "desitter": (("oscillator",), "hubble", POSITIVE),
              "custom": (tuple(_SYSTEM_FIELDS), "frame_tables", dict)}
_TOLERANCE_FIELDS = {"frame_symmetry": POSITIVE}
# the runs that read a scoped field, a run being a scenario or a custom system kind
_RESCALED = ("newtonian", "two_level", "matrix")
_READ_BY = {"position": _RESCALED, "momentum": _RESCALED, "zfactor_grid": ("newtonian",),
            "curve_points": ("desitter", *_SYSTEM_FIELDS), "tolerances": tuple(_SYSTEM_FIELDS)}


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _reals(name: str, value, shape: tuple = ()) -> np.ndarray:
    """`value` as a float array of `shape` (None: any length but 0); ConfigError unless it is lists
    or tuples nested to that depth, every entry an int or a float and not a bool, as in JSON,
    and finite within the float range."""
    shown = str(tuple("n" if n is None else n for n in shape)).replace("'", "")
    must = f"{name} must be " + (f"a list of finite numbers of shape {shown}" if shape else REAL)
    entries = [value]
    for _ in shape:  # the lists or tuples of one depth, then their entries
        _require(set(map(type, entries)) <= {list, tuple}, must)
        entries = [*itertools.chain.from_iterable(entries)]
    arr = np.asarray(value, dtype=object)
    _require(arr.ndim == len(shape) and all(k == n or n is None and k > 0
                                            for n, k in zip(shape, arr.shape))
             and all(issubclass(t, (int, float)) and t is not bool
                     for t in set(map(type, entries))), must)
    try:
        arr = arr.astype(float)
    except OverflowError:  # an int beyond the float range
        arr = np.array(np.inf)
    _require(np.all(np.isfinite(arr)), must)
    return arr


def _check_fields(block: str, values: dict, types: dict) -> None:
    """Reject keys of `values` that `types` lacks and values not of their field's type."""
    extra = set(values) - set(types)
    _require(not extra, f"unknown {block} keys {sorted(extra)}")
    for key, value in values.items():
        kind, name = types[key], key if block == "config" else f"{block}.{key}"
        if isinstance(kind, tuple):
            _reals(name, value, kind)
        elif isinstance(kind, range):
            _require(isinstance(value, int) and not isinstance(value, bool)
                     and kind.start <= value < kind.stop,
                     f"{name} must be an integer from {kind.start} to {kind[-1]}")
        elif kind in (REAL, POSITIVE):
            _require(_reals(name, value) > 0 or kind is REAL, f"{name} must be {kind}")
        else:
            _require(isinstance(value, kind),
                     f"{name} must be {'a string' if kind is str else 'an object'}")


@dataclass
class ScenarioConfig:
    scenario: str
    beta: float
    system: dict
    geometry: dict
    position: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    momentum: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    duration: float = 1.0
    steps: int = 200
    merge_tol: float | None = None
    tolerances: dict = field(default_factory=dict)
    seed: int | None = None
    samples: int | None = None
    zfactor_grid: list | None = None
    curve_points: int = 50

    def __post_init__(self):
        defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                    for f in fields(self)}
        _check_fields("config", {k: v for k, v in vars(self).items()
                                 if v is not None or defaults[k] is not None}, _FIELDS)
        _require(self.seed is None or self.samples is not None, "seed applies only with samples")
        _require(self.scenario in _SCENARIOS, f"unknown scenario {self.scenario!r}")
        kind = self.system.get("kind")
        _require(isinstance(kind, str) and kind in _SYSTEM_FIELDS, f"unknown system kind {kind!r}")
        missing = [key for key in _REQUIRED_SYSTEM[kind] if key not in self.system]
        _require(not missing, f"{kind} system needs {' and '.join(missing)}")
        _check_fields("system", self.system, _SYSTEM_FIELDS[kind])
        _check_fields("tolerances", self.tolerances, _TOLERANCE_FIELDS)
        kinds, key, key_type = _SCENARIOS[self.scenario]
        _require(kind in kinds, f"the {self.scenario} scenario runs "
                 f"{'an' if kinds[0][0] in 'aeiou' else 'a'} {' or '.join(kinds)} system")
        _require(key in self.geometry, f"{self.scenario} geometry needs {key!r}")
        _check_fields("geometry", {key: self.geometry[key]}, {key: key_type})
        # keys the run does not read; a field at its default is unset, so vars(self) reads back
        run, where = ((kind, f"custom scenario's {kind} system") if self.scenario == "custom"
                      else (self.scenario, f"{self.scenario} scenario"))
        unread = {"geometry keys": set(self.geometry) - {key},
                  "config keys": {k for k, runs in _READ_BY.items()
                                  if run not in runs and getattr(self, k) != defaults[k]}}
        for keys, found in unread.items():
            _require(not found, f"{keys} {sorted(found)} do not apply to the {where}")

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        extra = set(data) - set(_FIELDS)
        _require(not extra, f"unknown config keys {sorted(extra)}")
        _require("scenario" in data and "beta" in data and "system" in data
                 and "geometry" in data, "scenario, beta, system and geometry are required")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class RunArtifacts:
    """Everything one scenario run emits: summary report, distributions, curves, metadata.

    `curves` is one column table, column name to values, with the x column first.
    """

    report: ProtocolReport
    forward: WorkDistribution
    reverse: WorkDistribution
    curves: dict
    metadata: dict

    def write(self, outdir) -> None:
        payload = {"report": asdict(self.report), "metadata": self.metadata}
        files = {"report.json": json.dumps(payload, indent=2) + "\n"}
        tables = {"forward": {"work": self.forward.works, "probability": self.forward.probs},
                  "reverse": {"work": self.reverse.works, "probability": self.reverse.probs},
                  "curves": self.curves}
        for name, columns in tables.items():
            text = io.StringIO()
            writer = csv.writer(text)
            writer.writerow(columns)
            writer.writerows([repr(float(v)) for v in row] for row in zip(*columns.values()))
            files[f"{name}.csv"] = text.getvalue()
        write_outputs(outdir, files)


def write_outputs(outdir, files: dict) -> None:
    """Write each file name's text into `outdir`, made if missing; an OSError is an InputError."""
    try:
        Path(outdir).mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            with open(Path(outdir) / name, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write outputs to {outdir}: {exc}") from None


def _base_metadata(config: ScenarioConfig) -> dict:
    """Package version and the SHA-256 of the config's canonical JSON (defaults filled in).

    The digest is CPython's built-in SHA-256, as `random` takes it: `hashlib` would load
    OpenSSL's libcrypto (≈3.5 MB resident) for this one string, so it is the fallback for
    an interpreter built without that module.  Imported when a run reports, not when
    curvedwork is imported."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256

    canonical = json.dumps(vars(config), sort_keys=True, separators=(",", ":"))
    return {"config_sha256": sha256(canonical.encode()).hexdigest(), "version": __version__}


def _protocol_outputs(b_init, b_final, u, config):
    """Distributions and report of one protocol from the energy bases of its endpoints."""
    beta = float(config.beta)  # an int past 2^63 would make object arrays
    fwd = forward_distribution(b_init, b_final, u, beta, merge_tol=config.merge_tol)
    rev = reverse_distribution(b_init, b_final, u, beta, merge_tol=config.merge_tol)
    df = delta_F(b_init, b_final, beta)
    try:
        zratio = math.exp(-beta * df)
    except OverflowError:
        raise NumericError(f"e^(-beta delta_F) overflows the float range: beta delta_F = "
                           f"{beta * df:.6g}") from None
    residual = crooks_check(fwd, rev, beta, df)
    mw, lhs = mean_work(fwd), jarzynski_average(fwd, beta)
    if not abs(lhs - zratio) <= 1e-10 * zratio:  # A2's tolerance, relative here
        raise NumericError(f"Jarzynski relation broken: <e^(-beta W)> = {lhs:.17g} against "
                           f"e^(-beta delta_F) = {zratio:.17g}")
    report = ProtocolReport(
        beta=config.beta,
        delta_F=df,
        mean_work=mw,
        jarzynski_lhs=lhs,
        jarzynski_rhs=zratio,
        crooks_max_residual=residual,
    )
    return fwd, rev, report


def _frame(config: ScenarioConfig) -> FrameData:
    """The scenario's frame: uniform gravity of g, de Sitter of hubble below omega0, or
    the config's frame tables, which must cover tau in [0, duration]."""
    if config.scenario == "newtonian":
        return uniform_gravity_frame(float(config.geometry["g"]))
    if config.scenario == "desitter":
        hubble, omega0 = float(config.geometry["hubble"]), float(config.system["omega0"])
        _require(hubble < omega0,
                 "hubble must stay below omega0 (the effective oscillator would invert)")
        _require(omega0 <= math.sqrt(np.finfo(float).max),
                 f"omega0 {omega0:g} is too large: omega0^2 overflows the float range")
        return desitter_frame(hubble)
    tables = config.geometry["frame_tables"]
    frame = _frame_from_tables(tables, config.tolerances)
    first, last = float(tables["tau"][0]), float(tables["tau"][-1])
    _require(first <= 0 and last >= config.duration, f"frame tables cover tau in "
             f"[{first}, {last}], not [0, {float(config.duration)}]")
    return frame


def _frame_from_tables(tables: dict, tolerances: dict) -> FrameData:
    keys = {"tau", *ROW_SHAPES}
    if not isinstance(tables, dict) or set(tables) != keys:
        raise InputError(f"frame_tables must have exactly the keys {sorted(keys)}")
    taus = _reals("frame_tables.tau", tables["tau"], (None,))
    frame = FrameData(tau=taus, **{
        key: _reals(f"frame_tables.{key}", tables[key], (taus.size, *shape))
        for key, shape in ROW_SHAPES.items()})
    tol = float(tolerances.get("frame_symmetry", 1e-9))
    bad = {k: v for k, v in validate_frame(frame).items() if v > tol}
    if bad:
        raise InputError(f"frame tables violate Riemann symmetries: {bad}")
    return frame


def _rescaled(config: ScenarioConfig, frame: FrameData, times):
    """Quench z_0 h -> z_T h of the two_level or matrix system h, z(tau) the time dilation on
    the straight line from rest at the origin to the configured position and momentum at the end.

    z(tau) h commutes with itself, so in h's eigenbasis U is the identity and each
    endpoint basis is h's spectrum times z.  The expansion guard is checked along the
    whole line.  Returns both endpoint bases, U and z at `times`, 0 first and duration last.
    """
    system = config.system
    h = (two_level_hamiltonian(float(system["eps"])) if system["kind"] == "two_level"
         else HermitianOperator(np.asarray(system["entries"], dtype=float)))
    sysmass, duration = float(system.get("mass", 1.0)), float(config.duration)
    x_end = np.asarray(config.position, dtype=float)
    p_end = np.asarray(config.momentum, dtype=float)
    check_straight_line(frame, duration, x_end)
    zs = np.empty(times.size)
    for start in range(0, times.size, Z_CHUNK):
        t = times[start:start + Z_CHUNK]
        frac = t[:, None] / duration
        with np.errstate(all="ignore"):  # an overflow, or 2 mass^2 at 0, is a non-finite z
            zs[start:start + Z_CHUNK] = time_dilation(frame, FramePoint(tau=t, x=frac * x_end),
                                                      frac * p_end, sysmass)
    if not np.all(np.isfinite(zs)):
        raise InputError("non-finite time-dilation factor on the trajectory")
    basis = EnergyBasis(np.linalg.eigvalsh(h.entries), np.eye(h.dim))
    return basis.scaled(zs[0]), basis.scaled(zs[-1]), UnitaryOperator(np.eye(h.dim)), zs


def _newtonian_outputs(config: ScenarioConfig, b0, bt, zf):
    """The entropy block at the final z and the entropy curves over the z grid."""
    g, eps = float(config.geometry["g"]), float(config.system["eps"])
    zgrid = np.asarray(config.zfactor_grid if config.zfactor_grid is not None
                       else np.linspace(0.5, 1.5, 41), dtype=float)
    sigma_formula = np.array([entropy_production_two_level(z, config.beta * eps) for z in zgrid])
    sigma_oracle = config.beta * dissipated_work_thermal(b0, b0.scaled(zgrid), config.beta)[1]

    gx, sysmass = g * float(config.position[0]), float(config.system.get("mass", 1.0))
    p2 = float(np.asarray(config.momentum, dtype=float) @ np.asarray(config.momentum, dtype=float))
    blocks = {"newtonian": {
        "zfactor": zf,
        # the doubled weak-field convention (2gx, p^2/2m) that appears in some
        # presentations is echoed for comparison with the general expansion
        "zfactor_doubled_convention": 1.0 + 2.0 * gx - p2 / (2.0 * sysmass),
        "entropy_closed_form": entropy_production_two_level(zf, config.beta * eps)
        if zf > 0 else None,
        "entropy_thermal_oracle": config.beta * dissipated_work_thermal(b0, bt, config.beta)[1],
    }}
    curves = {"zfactor": zgrid, "entropy_closed_form": sigma_formula,
              "entropy_thermal_oracle": sigma_oracle}
    return blocks, curves


def _oscillator_protocol(config, frame):
    """Center-of-mass oscillator pipeline over the frame's curvature history R_txtx(tau).

    Measurements are projective in the eigenbasis of the unperturbed oscillator, whose
    populations the curvature term drives, so both endpoint bases are that one.
    """
    mass = float(config.system["mass"])
    omega0 = float(config.system["omega0"])
    dim = int(config.system.get("dim", DEFAULT_OSCILLATOR_DIM))
    h0 = qho_hamiltonian(mass, omega0, dim)
    r_txtx = frame.riemann_titj[:, 0, 0]
    path = AffinePath(h0, x_squared_matrix(mass, omega0, dim),
                      lambda tau: 0.5 * mass * np.interp(tau, frame.tau, r_txtx))
    u = propagator(path, 0.0, float(config.duration), config.steps)

    # truncation guard: evolved thermal populations must not reach the cutoff
    b0 = energy_basis(h0)
    rho0 = thermal_state(b0, config.beta)
    top = u.entries[dim - 2:]  # the diagonal of U rho0 U^dagger at the top two levels
    leak = float(np.real(np.sum((top @ rho0) * top.conj())))
    if leak > LEAKAGE_LIMIT:
        raise ConvergenceError(
            f"top-two-level population {leak:.3g} exceeds {LEAKAGE_LIMIT}; raise dim"
        )
    return path, b0, b0, u, {"oscillator": {"dim": dim, "truncation_leakage": leak,
                                            "unitarity_defect": u.unitarity_defect}}


def _desitter_outputs(config: ScenarioConfig, frame: FrameData, path: AffinePath, times):
    """The effective-frequency block and the P(2 <- 0) curves of the de Sitter oscillator.

    The constant tidal curvature adds -(mass H^2/2) x^2 to the oscillator
    Hamiltonian; transition-probability curves compare exact propagation, the
    first-order amplitude, and the closed-form probability.
    """
    hubble, omega0 = float(config.geometry["hubble"]), float(config.system["omega0"])
    mass = float(config.system["mass"])
    # the de Sitter frame is one row, so one eigensystem at its tidal term serves
    # the effective-frequency diagnostic and the exact transition curve
    spectrum = energy_basis(path(0.0))

    # effective-frequency diagnostic on the lowest half of the spectrum
    omega_eff = math.sqrt(omega0 ** 2 - hubble ** 2)
    spacings = np.diff(spectrum.eigenvalues)[: path.h0.dim // 2]
    blocks = {"effective_frequency": {
        "expected": omega_eff,
        "max_spacing_deviation": float(np.max(np.abs(spacings - omega_eff))),
    }, "hubble_ratio": hubble / omega0}

    p_exact = np.abs(np.concatenate([spectrum.amplitudes(2, 0, times[start:start + Z_CHUNK])
                                     for start in range(0, times.size, Z_CHUNK)])) ** 2
    p_pert = np.abs(perturbative_amplitude(
        mass, omega0, frame.tau, frame.riemann_titj[:, 0, 0], 2, 0, times)) ** 2
    p_formula = transition_probability_formula(mass, omega0, hubble, 2, 0, times)
    curves = {"t": times, "p20_exact": p_exact, "p20_perturbative": p_pert,
              "p20_formula": p_formula}
    return blocks, curves


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Run the config's scenario: the frame the scenario picks, the protocol its system
    kind picks, the scenario's own outputs, then distributions, report and sampling."""
    frame = _frame(config)
    times = np.linspace(0.0, float(config.duration), config.curve_points)
    if config.system["kind"] == "oscillator":
        path, b_init, b_final, u, blocks = _oscillator_protocol(config, frame)
        if config.scenario == "desitter":
            extra, curves = _desitter_outputs(config, frame, path, times)
            blocks.update(extra)
        else:
            curves = {"t": times,
                      "curvature_tt": np.interp(times, frame.tau, frame.riemann_titj[:, 0, 0])}
    else:  # newtonian reports z at the two ends only
        newtonian = config.scenario == "newtonian"
        b_init, b_final, u, zs = _rescaled(config, frame, times[[0, -1]] if newtonian else times)
        if newtonian:
            blocks, curves = _newtonian_outputs(config, b_init, b_final, zs[-1])
        else:
            blocks = {"custom": {"zfactor_initial": zs[0], "zfactor_final": zs[-1],
                                 "unitarity_defect": u.unitarity_defect}}
            curves = {"t": times, "zfactor": zs}
    fwd, rev, report = _protocol_outputs(b_init, b_final, u, config)
    metadata = {**_base_metadata(config), **blocks}
    if config.samples is not None:
        seed = 0 if config.seed is None else config.seed
        est, se = sample_work(fwd, config.beta, config.samples, seed)
        metadata["sampling"] = {"samples": config.samples, "seed": seed,
                                "jarzynski_estimate": est, "standard_error": se}
    return RunArtifacts(report=report, forward=fwd, reverse=rev, curves=curves,
                        metadata=metadata)


def sample_work(fwd: WorkDistribution, beta: float, samples: int, seed: int):
    """Seeded empirical estimate of <e^{-beta W}> with its standard error."""
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    if fwd.works.size == 1:
        return float(math.exp(-beta * fwd.works[0])), 0.0
    draws = rng.choice(fwd.works, size=samples, p=fwd.probs / np.sum(fwd.probs))
    vals = np.exp(-beta * draws)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return est, se
