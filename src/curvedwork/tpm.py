"""Two-point-measurement protocol engine.

Exact enumeration over measurement outcome pairs produces discrete forward
and reverse work distributions, from which the detailed (Crooks) and
integral (Jarzynski) fluctuation relations, dissipated work and entropy
production are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .quantum import (UNITARITY_TOL, EnergyBasis, HermitianOperator, UnitaryOperator,
                      energy_basis, thermal_state)

P_FLOOR = 1e-12
MERGE_TOL_RELATIVE = 1e-9


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete distribution over work values, degenerate values merged."""

    works: np.ndarray
    probs: np.ndarray
    merge_tol: float

    def __post_init__(self):
        works = np.asarray(self.works, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if works.shape != probs.shape or works.ndim != 1:
            raise InputError("works and probs must be matching 1-d arrays")
        total = float(np.sum(probs))
        if abs(total - 1.0) > 1e-10:
            raise InputError(f"probabilities sum to {total}, not 1")
        if np.any(probs < -1e-15) or np.any(probs > 1 + 1e-12):
            raise InputError("probabilities outside [0, 1]")
        if works.size > 1 and np.any(np.diff(works) <= self.merge_tol):
            raise InputError("work values must be increasing with gaps above merge_tol")
        object.__setattr__(self, "works", works)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_raw(cls, works, probs, merge_tol: float) -> "WorkDistribution":
        """Sort raw (work, probability) pairs and coalesce values within merge_tol.

        Merged work values are probability-weighted means, so the distribution
        mean is preserved exactly.  Each mean is clipped to its group's range
        against rounding, so merged values stay more than merge_tol apart.
        """
        works = np.asarray(works, dtype=float).ravel()
        probs = np.asarray(probs, dtype=float).ravel()
        keep = probs > 0.0  # exactly forbidden outcomes carry no support
        works, probs = works[keep], probs[keep]
        if works.size == 0:
            raise InputError("distribution has no support")
        order = np.argsort(works, kind="stable")
        works, probs = works[order], probs[order]
        # a chain of neighbours each within merge_tol of the previous one is one group
        starts = np.flatnonzero(np.concatenate(([True], ~(np.diff(works) <= merge_tol))))
        p = np.add.reduceat(probs, starts)
        w = np.add.reduceat(works * probs, starts) / p
        w = np.clip(w, works[starts], works[np.append(starts[1:], works.size) - 1])
        return cls(w, p, merge_tol=merge_tol)


@dataclass(frozen=True)
class ProtocolReport:
    """Summary quantities of one protocol run; internal consistency is asserted."""

    beta: float
    delta_F: float
    mean_work: float
    jarzynski_lhs: float
    jarzynski_rhs: float
    crooks_max_residual: float
    entropy_production: float
    dissipated_work: float

    def __post_init__(self):
        scale = max(1.0, abs(self.mean_work), abs(self.delta_F))
        if abs(self.dissipated_work - (self.mean_work - self.delta_F)) > 1e-12 * scale:
            raise NumericError("dissipated_work must equal mean_work - delta_F")
        sscale = max(1.0, abs(self.entropy_production))
        if abs(self.entropy_production - self.beta * self.dissipated_work) > 1e-12 * sscale:
            raise NumericError("entropy_production must equal beta * dissipated_work")


def default_merge_tol(*spectra) -> float:
    span = max(float(np.max(w)) for w in spectra) - min(float(np.min(w)) for w in spectra)
    return MERGE_TOL_RELATIVE * span if span > 0 else 1e-12


# A protocol endpoint: a Hamiltonian, or its energy basis, so that a caller
# evaluating several quantities of one protocol diagonalises each endpoint once.
Endpoint = HermitianOperator | EnergyBasis


def _basis(h: Endpoint) -> EnergyBasis:
    return h if isinstance(h, EnergyBasis) else energy_basis(h)


def delta_F(h_init: Endpoint, h_final: Endpoint, beta: float) -> float:
    """Free-energy difference -(1/beta)(ln Z_T - ln Z_0) between the endpoint Hamiltonians."""
    if h_init.dim != h_final.dim:
        raise InputError(f"dimension mismatch: {h_init.dim} != {h_final.dim}")
    lz0 = _basis(h_init).gibbs(beta)[1]
    lzt = _basis(h_final).gibbs(beta)[1]
    return -(lzt - lz0) / beta


def _measured_work(first: EnergyBasis, second: EnergyBasis, u: np.ndarray, beta, merge_tol):
    """TPM work distribution: Gibbs-weighted measurement in `first`, u, measurement in `second`."""
    if merge_tol is None:
        merge_tol = default_merge_tol(first.eigenvalues, second.eigenvalues)
    amp = second.eigenvectors.conj().T @ u @ first.eigenvectors
    joint = np.abs(amp) ** 2 * first.gibbs(beta)[0][None, :]
    works = second.eigenvalues[:, None] - first.eigenvalues[None, :]
    return WorkDistribution.from_raw(works, joint, merge_tol=merge_tol)


def forward_distribution(
    h_init: Endpoint, h_final: Endpoint, u: UnitaryOperator, beta: float,
    merge_tol: float | None = None,
) -> WorkDistribution:
    """Forward-protocol work distribution from exact outcome enumeration.

    First measurement in the eigenbasis of h_init with Gibbs weights at beta,
    evolution by u, second measurement in the eigenbasis of h_final.
    """
    if h_init.dim != h_final.dim or u.dim != h_init.dim:
        raise InputError("operator dimensions must match")
    if u.unitarity_defect > UNITARITY_TOL:
        raise InputError("propagator is not unitary within tolerance")
    return _measured_work(_basis(h_init), _basis(h_final), u.entries, beta, merge_tol)


def _real_basis(name: str, h: Endpoint) -> EnergyBasis:
    basis = _basis(h)
    if float(np.max(np.abs(basis.eigenvectors.imag))) > 1e-12:
        raise InputError(
            f"{name} has complex eigenvectors; the reverse protocol assumes time-reversal "
            "invariance, i.e. real-symmetric Hamiltonians in the computational basis"
        )
    return basis


def reverse_distribution(
    h_init: Endpoint, h_final: Endpoint, u: UnitaryOperator, beta: float,
    merge_tol: float | None = None,
) -> WorkDistribution:
    """Reverse-protocol distribution over the reverse work variable -W.

    The reverse propagator follows from micro-reversibility with the
    time-reversal operator taken as complex conjugation in the computational
    basis, which requires real-symmetric endpoint Hamiltonians; an endpoint
    given as a basis must have real eigenvectors.
    """
    if h_init.dim != h_final.dim or u.dim != h_init.dim:
        raise InputError("operator dimensions must match")
    b0 = _real_basis("h_init", h_init)
    # conjugation-Theta micro-reversibility: Theta U^dagger Theta^dagger = U^T, and
    # Theta acts trivially on the real eigenvectors of the endpoint Hamiltonians
    return _measured_work(_real_basis("h_final", h_final), b0, u.entries.T, beta, merge_tol)


def crooks_check(
    fwd: WorkDistribution,
    rev: WorkDistribution,
    beta: float,
    delta_f: float,
    p_floor: float = P_FLOOR,
) -> float:
    """Maximum residual |ln(P_fwd(W)/P_rev(-W)) - beta (W - delta_F)| over matched support.

    Each forward point above p_floor is matched to the nearest of the three
    reverse points around -W; it counts when that point lies within the
    reverse merge_tol and carries probability above p_floor.
    """
    keep = fwd.probs > p_floor
    w, p = fwd.works[keep], fwd.probs[keep]
    cand = np.searchsorted(rev.works, -w)[:, None] + np.array([-1, 0, 1])
    dist = np.abs(rev.works[np.clip(cand, 0, rev.works.size - 1)] + w[:, None])
    dist[(cand < 0) | (cand >= rev.works.size)] = np.inf
    nearest = np.argmin(dist, axis=1)  # the first of equally near points, as a scan would pick
    rows = np.arange(w.size)
    q = rev.probs[cand[rows, nearest]]
    matched = (dist[rows, nearest] <= rev.merge_tol) & (q > p_floor)
    if not np.any(matched):
        raise NumericError("no matchable support points between forward and reverse distributions")
    w, p, q = w[matched], p[matched], q[matched]
    return float(np.max(np.abs(np.log(p / q) - beta * (w - delta_f))))


def jarzynski_average(fwd: WorkDistribution, beta: float) -> float:
    """Exponential work average sum_W P(W) e^{-beta W}."""
    return float(np.sum(fwd.probs * np.exp(-beta * fwd.works)))


def mean_work(fwd: WorkDistribution) -> float:
    """First moment sum_W W P(W)."""
    return float(np.sum(fwd.works * fwd.probs))


def dissipated_work_thermal(
    h_init: Endpoint, h_final: Endpoint, beta: float
) -> tuple[float, float]:
    """Average and dissipated work with thermal states at both protocol endpoints.

    <W> = Tr{h_final rho_T} - Tr{h_init rho_0}, both states Gibbs at beta;
    W_diss = <W> - delta_F, with delta_F from the two states' partition functions.
    Each endpoint is a Hamiltonian or its energy basis.
    """
    if h_init.dim != h_final.dim:
        raise InputError(f"dimension mismatch: {h_init.dim} != {h_final.dim}")
    state0 = thermal_state(h_init, beta)
    statet = thermal_state(h_final, beta)
    mw = statet.mean_energy - state0.mean_energy
    delta_f = -(statet.log_partition - state0.log_partition) / beta
    return mw, mw - delta_f


def entropy_production_two_level(zfactor: float, beta_eps: float) -> float:
    """Closed-form average entropy production for the shifted two-level system.

    Sigma = (Z - 1) beta eps + ln((1 - e^{-Z beta eps}) / (1 - e^{-beta eps})),
    implemented exactly as the closed form states.  Cross-validate against
    beta * dissipated_work_thermal, which this package treats as ground truth;
    the two are not identical (see the scenario reports).
    """
    if zfactor <= 0 or beta_eps <= 0:
        raise InputError("zfactor and beta_eps must be positive")
    return float(
        (zfactor - 1.0) * beta_eps
        + math.log(-math.expm1(-zfactor * beta_eps)) - math.log(-math.expm1(-beta_eps))
    )
