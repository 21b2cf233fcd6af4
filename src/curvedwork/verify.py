"""Self-verification suite: each criterion exercises a documented guarantee.

`run_verification` executes every criterion at its stated tolerance and
returns a machine-readable summary.  The fast level trims ensemble sizes and
skips the step-halving convergence studies; full runs everything.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .errors import InputError
from .frame import FramePoint, metric_components, redshift_exact, redshift_weakfield, \
    time_dilation
from .quantum import (
    AffinePath,
    HermitianOperator,
    energy_basis,
    propagator,
    qho_hamiltonian,
    thermal_state,
    transition_probability_formula,
    two_level_hamiltonian,
    x_squared_matrix,
)
from .spacetimes import desitter_frame, flat_frame, uniform_gravity_frame
from .tpm import (
    crooks_check,
    delta_F,
    dissipated_work_thermal,
    entropy_production_two_level,
    forward_distribution,
    jarzynski_average,
    mean_work,
    reverse_distribution,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime: float = 0.0  # run_verification sets it on the first result of each criterion
    details: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)


def _random_symmetric(rng, dim, scale=0.3):
    m = rng.normal(scale=scale, size=(dim, dim))
    return 0.5 * (m + m.T)


def check_fluctuation_relations(n_protocols=200, seed=7):
    """Shared ensemble for the detailed and integral fluctuation relations.

    Protocol i has dimension 2, 4 or 8 in turn, beta, and H(tau) = a + sin(tau) b over
    [0, 1] with random real-symmetric a and b, drawn in that order.  The protocols of one
    dimension are one stack: one propagator call, one energy_basis call per endpoint and
    one call per TPM reader; the relations are then checked on each protocol's own
    distributions.  Returns the largest Crooks residual, Jarzynski deviation and mean-work
    deviation |<W> - (Tr(H_T U rho U^dagger) - Tr(H_0 rho))| / max(1, |trace|), rho the
    Gibbs state of H_0 at beta: the relations hold in any orthonormal endpoint bases, so
    only the last figure sees bases that do not diagonalise the endpoints.
    """
    rng = np.random.default_rng(seed)
    dims = [2, 4, 8]
    draws = {dim: [] for dim in dims}
    for i in range(n_protocols):
        dim = dims[i % len(dims)]
        beta = float(rng.uniform(0.1, 5.0))
        draws[dim].append((beta, _random_symmetric(rng, dim), _random_symmetric(rng, dim)))
    max_crooks = max_jarzynski = max_mean_work = 0.0
    for protocols in filter(None, draws.values()):
        betas, a, b = (np.array(column) for column in zip(*protocols))
        path = AffinePath(HermitianOperator(a), HermitianOperator(b), np.sin)
        u = propagator(path, 0.0, 1.0, 40)
        h0, ht = path(0.0), path(1.0)
        b0, bt = energy_basis(h0), energy_basis(ht)
        rho = thermal_state(b0, betas)
        evolved = u.entries @ rho @ np.swapaxes(u.entries.conj(), -1, -2)
        traces = (np.einsum("kij,kji->k", ht.entries, evolved)
                  - np.einsum("kij,kji->k", h0.entries, rho)).real
        fwd, df = forward_distribution(b0, bt, u, betas), delta_F(b0, bt, betas)
        crooks = crooks_check(fwd, reverse_distribution(b0, bt, u, betas), betas, df)
        jarzynski = np.abs(jarzynski_average(fwd, betas) - np.exp(-betas * df))
        mean_dev = np.abs(mean_work(fwd) - traces) / np.maximum(1.0, np.abs(traces))
        max_crooks = max(max_crooks, float(crooks.max()))
        max_jarzynski = max(max_jarzynski, float(jarzynski.max()))
        max_mean_work = max(max_mean_work, float(mean_dev.max()))
    return max_crooks, max_jarzynski, max_mean_work


def criterion_crooks_jarzynski(level="full"):
    n = 200 if level == "full" else 60
    max_crooks, max_jarzynski, max_mean_work = check_fluctuation_relations(n_protocols=n)
    a1 = CriterionResult(
        name="A1",
        passed=max_crooks < 1e-8 and max_mean_work < 1e-10,
        details={"protocols": n, "max_crooks_residual": max_crooks, "tolerance": 1e-8,
                 "max_mean_work_deviation": max_mean_work, "mean_work_tolerance": 1e-10},
    )
    a2 = CriterionResult(
        name="A2",
        passed=max_jarzynski < 1e-10,
        details={"max_jarzynski_deviation": max_jarzynski, "tolerance": 1e-10},
    )
    return [a1, a2]


def criterion_entropy_two_level(level="full"):
    at_unity_ok = all(
        entropy_production_two_level(1.0, c) == 0.0 for c in np.linspace(0.1, 10.0, 21)
    )
    zs, cs = np.linspace(0.5, 1.5, 21), np.linspace(0.1, 10.0, 21)
    sigma = np.array([[entropy_production_two_level(float(z), float(c)) for c in cs]
                      for z in zs])
    sign_ok = all(math.isclose(z, 1.0) or np.all(np.sign(row) == np.sign(z - 1.0))
                  for z, row in zip(zs, sigma))
    # oracle: beta * (<W> - delta_F) with thermal endpoint bookkeeping, beta = c on the
    # unit-gap system, one stacked call over the z x c grid
    b_ref = energy_basis(two_level_hamiltonian(1.0))
    _, wdiss = dissipated_work_thermal(b_ref, b_ref.scaled(zs[:, None]), cs)
    max_mismatch = float(np.max(np.abs(sigma - cs * wdiss)))
    result = CriterionResult(
        name="A3",
        passed=at_unity_ok and sign_ok,
        details={
            "zero_at_unit_zfactor": at_unity_ok,
            "sign_matches_zfactor": sign_ok,
            "max_formula_vs_oracle_mismatch": max_mismatch,
        },
    )
    if max_mismatch > 1e-10:
        result.findings.append(
            "closed-form two-level entropy production disagrees with the thermal-endpoint "
            f"oracle beta*(<W> - dF) by up to {max_mismatch:.3g}; documented finding, "
            "not a failure"
        )
    return [result]


def criterion_effective_frequency(level="full"):
    omega0, mass, dim = 1.0, 1.0, 60
    worst = 0.0
    for ratio in (0.1, 0.3, 0.5):
        hubble = ratio * omega0
        evals = _constant_oscillator(mass, omega0, hubble, dim).eigenvalues
        spacings = np.diff(evals)[:30]
        expected = math.sqrt(omega0 ** 2 - hubble ** 2)
        worst = max(worst, float(np.max(np.abs(spacings - expected))))
    return [CriterionResult(
        name="A4",
        passed=worst < 1e-10 * omega0,
        details={"max_spacing_deviation": worst, "tolerance": 1e-10 * omega0},
    )]


def _oscillator(mass, omega0, dim, f):
    """The oscillator path h0 + f(tau) x^2, whose blocks are its even and odd levels."""
    return AffinePath(qho_hamiltonian(mass, omega0, dim), x_squared_matrix(mass, omega0, dim), f)


def _constant_oscillator(mass, omega0, hubble, dim):
    """Energy basis of the oscillator under the de Sitter tidal term -(mass H^2/2) x^2."""
    tidal = -0.5 * mass * hubble ** 2
    return energy_basis(_oscillator(mass, omega0, dim, lambda tau: tidal)(0.0))


def criterion_perturbation_vs_propagator(level="full"):
    mass, omega0, dim = 1.0, 1.0, 40
    hubble = 0.01 * omega0
    basis = _constant_oscillator(mass, omega0, hubble, dim)
    times = np.linspace(0.0, 10.0 / omega0, 50)
    formula = transition_probability_formula(mass, omega0, hubble, 2, 0, times)
    exact = np.abs(basis.amplitudes(2, 0, times)) ** 2
    peak_mask = formula >= 0.5 * float(np.max(formula))
    rel_err = float(np.max(np.abs(exact[peak_mask] - formula[peak_mask])
                           / formula[peak_mask]))
    # propagator's even and odd blocks against the one whole block a stack of one path takes
    driven = _oscillator(mass, omega0, dim, lambda tau: 0.05 * np.sin(2.0 * tau))
    dense = AffinePath(*(HermitianOperator(m.entries[None]) for m in (driven.h0, driven.x)),
                       driven.f)
    deviation = float(np.max(np.abs(propagator(driven, 0.0, 3.0, 24).entries
                                    - propagator(dense, 0.0, 3.0, 24).entries[0])))
    return [CriterionResult(
        name="A5",
        passed=rel_err < 0.05 and deviation < 1e-12,
        details={"max_peak_relative_error": rel_err, "max_parity_vs_dense_deviation": deviation},
    )]


def criterion_propagator_quality(level="full"):
    defects = {}
    mass, omega0, dim = 1.0, 1.0, 40
    hubble = 0.01
    tidal = 0.5 * mass * desitter_frame(hubble).riemann_titj[0, 0, 0]
    ds_path = _oscillator(mass, omega0, dim, lambda tau: tidal)
    defects["desitter_oscillator"] = propagator(ds_path, 0.0, 10.0, 200).unitarity_defect
    rng = np.random.default_rng(11)
    driven_path = AffinePath(HermitianOperator(_random_symmetric(rng, 6, scale=0.5)),
                             HermitianOperator(_random_symmetric(rng, 6, scale=0.5)),
                             lambda tau: np.sin(2.0 * tau))
    defects["driven_two_level_family"] = propagator(driven_path, 0.0, 4.0, 200).unitarity_defect
    banded_path = _oscillator(mass, omega0, 12, lambda tau: 0.05 * np.sin(2.0 * tau))
    defects["driven_banded_oscillator"] = propagator(banded_path, 0.0, 4.0, 200).unitarity_defect
    max_defect = max(defects.values())
    details = {"unitarity_defects": defects, "unitarity_tolerance": 1e-9}
    passed = max_defect < 1e-9
    if level == "full":
        # step-halving self-convergence, log2 |U_n - U_2n| / |U_2n - U_4n|; the catalog de
        # Sitter history is tau-independent (midpoint rule is exact there), so the order is
        # measured on genuinely time-dependent paths, one dense and one parity-banded
        for prefix, path in (("", driven_path), ("banded_", banded_path)):
            u = [propagator(path, 0.0, 4.0, steps).entries for steps in (32, 64, 128, 256)]
            diffs = [float(np.max(np.abs(a - b))) for a, b in zip(u, u[1:])]
            orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)]
            details[prefix + "self_convergence_orders"] = orders
            details[prefix + "mean_order"] = float(np.mean(orders))
            passed = passed and abs(details[prefix + "mean_order"] - 2.0) <= 0.2
    return [CriterionResult(
        name="A6",
        passed=passed,
        details=details,
    )]


def criterion_geometry(level="full"):
    details = {}
    flat = flat_frame()
    origin = FramePoint(tau=0.0, x=np.array([0.2, -0.1, 0.3]))
    m = metric_components(flat, origin)
    flat_ok = (
        m.g_tt == -1.0
        and np.all(m.g_ti == 0.0)
        and np.array_equal(m.g_ij, np.eye(3))
        and redshift_exact(m) == 1.0
    )
    p = np.array([0.01, -0.02, 0.005])
    massv = 2.0
    z_ok = time_dilation(flat, origin, p, massv) == 1.0 - float(p @ p) / (2 * massv ** 2)
    details["flat_minkowski_exact"] = bool(flat_ok)
    details["flat_time_dilation_exact"] = bool(z_ok)

    hubble = 0.3
    ds = desitter_frame(hubble)
    max_dev = 0.0
    for r in (0.1, 0.5, 1.0):
        g_tt = metric_components(ds, FramePoint(tau=0.7, x=np.array([r, 0.0, 0.0]))).g_tt
        max_dev = max(max_dev, abs(g_tt - (-(1.0 - hubble ** 2 * r ** 2))))
    details["desitter_gtt_deviation"] = max_dev

    # convergence order of the weak-field redshift against the exact one on a
    # frame with both acceleration and curvature
    curved = replace(ds, accel=[[0.3, 0.1, 0.0]])
    direction = np.array([1.0, 0.7, -0.4])
    direction /= np.linalg.norm(direction)
    radii = 0.2 * 0.5 ** np.arange(6)
    diffs = []
    for r in radii:
        pt = FramePoint(tau=0.0, x=r * direction)
        diffs.append(abs(redshift_exact(metric_components(curved, pt))
                         - redshift_weakfield(curved, pt)))
    slope = float(np.polyfit(np.log(radii), np.log(diffs), 1)[0])
    details["redshift_convergence_order"] = slope

    # uniform gravity linear-order agreement with the weak-field metric
    g = 0.05
    ug = uniform_gravity_frame(g)
    xval = 0.5
    g_tt = metric_components(ug, FramePoint(tau=0.0, x=np.array([xval, 0.0, 0.0]))).g_tt
    details["uniform_gravity_gtt_linear_gap"] = abs(g_tt - (-(1 + 2 * g * xval)))

    passed = flat_ok and z_ok and max_dev < 1e-14 and slope >= 2.0 \
        and details["uniform_gravity_gtt_linear_gap"] < (g * xval) ** 2 * 1.5
    return [CriterionResult(
        name="A7",
        passed=bool(passed),
        details=details,
    )]


def criterion_scale_estimate(level="full"):
    hubble_planck, omega0_planck = 1e-61, 1e-30
    ratio = hubble_planck / omega0_planck
    ratio_ok = math.isclose(ratio, 1e-31, rel_tol=1e-12)

    mass, omega0, dim = 1.0, 1.0, 40
    sweep = np.logspace(-3, -1, 7)
    peaks = []
    t_peak = math.pi / (2.0 * omega0)
    for hubble in sweep:
        basis = _constant_oscillator(mass, omega0, float(hubble), dim)
        peaks.append(abs(basis.amplitudes(2, 0, t_peak)) ** 2)
    slope = float(np.polyfit(np.log(sweep), np.log(peaks), 1)[0])
    return [CriterionResult(
        name="A8",
        passed=ratio_ok and abs(slope - 4.0) <= 0.01,
        details={"planck_ratio": ratio, "prefactor_exponent": slope},
    )]


CRITERIA = [
    criterion_crooks_jarzynski,
    criterion_entropy_two_level,
    criterion_effective_frequency,
    criterion_perturbation_vs_propagator,
    criterion_propagator_quality,
    criterion_geometry,
    criterion_scale_estimate,
]


def run_verification(level: str = "fast") -> dict:
    """Run the verification suite and return a machine-readable summary."""
    if level not in ("fast", "full"):
        raise InputError(f"level must be 'fast' or 'full', got {level!r}")
    results = []
    for criterion in CRITERIA:
        t0 = time.perf_counter()
        found = criterion(level=level)
        found[0].runtime = time.perf_counter() - t0
        results.extend(found)
    return {
        "level": level,
        "passed": all(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
    }
