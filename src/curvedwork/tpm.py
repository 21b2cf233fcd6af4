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
from .quantum import HermitianOperator, UnitaryOperator, energy_basis, thermal_state

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
        mean is preserved exactly.
        """
        works = np.asarray(works, dtype=float).ravel()
        probs = np.asarray(probs, dtype=float).ravel()
        keep = probs > 0.0  # exactly forbidden outcomes carry no support
        works, probs = works[keep], probs[keep]
        if works.size == 0:
            raise InputError("distribution has no support")
        order = np.argsort(works, kind="stable")
        works, probs = works[order], probs[order]
        out_w, out_p = [], []
        i = 0
        while i < works.size:
            j = i + 1
            while j < works.size and works[j] - works[j - 1] <= merge_tol:
                j += 1
            p = float(np.sum(probs[i:j]))
            w = float(np.sum(works[i:j] * probs[i:j]) / p)
            out_w.append(w)
            out_p.append(p)
            i = j
        return cls(np.array(out_w), np.array(out_p), merge_tol=merge_tol)

    def probability_at(self, work: float) -> float | None:
        """Probability of the support point matching `work` within merge_tol, or None."""
        idx = np.searchsorted(self.works, work)
        best, dist = None, math.inf
        for k in (idx - 1, idx, idx + 1):
            if 0 <= k < self.works.size and abs(self.works[k] - work) < dist:
                best, dist = k, abs(self.works[k] - work)
        if best is None or dist > self.merge_tol:
            return None
        return float(self.probs[best])


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


def delta_F(h_init: HermitianOperator, h_final: HermitianOperator, beta: float) -> float:
    """Free-energy difference -(1/beta)(ln Z_T - ln Z_0) between the endpoint Hamiltonians."""
    if h_init.dim != h_final.dim:
        raise InputError(f"dimension mismatch: {h_init.dim} != {h_final.dim}")
    lz0 = thermal_state(h_init, beta).log_partition
    lzt = thermal_state(h_final, beta).log_partition
    return -(lzt - lz0) / beta


def forward_distribution(
    h_init: HermitianOperator,
    h_final: HermitianOperator,
    u: UnitaryOperator,
    beta: float,
    merge_tol: float | None = None,
) -> WorkDistribution:
    """Forward-protocol work distribution from exact outcome enumeration.

    First measurement in the eigenbasis of h_init with Gibbs weights at beta,
    evolution by u, second measurement in the eigenbasis of h_final.
    """
    if h_init.dim != h_final.dim or u.dim != h_init.dim:
        raise InputError("operator dimensions must match")
    if u.unitarity_defect > u.tol:
        raise InputError("propagator is not unitary within tolerance")
    b0 = energy_basis(h_init)
    bt = energy_basis(h_final)
    if merge_tol is None:
        merge_tol = default_merge_tol(b0.eigenvalues, bt.eigenvalues)
    gibbs = np.exp(-beta * (b0.eigenvalues - b0.eigenvalues[0]))
    gibbs /= np.sum(gibbs)
    amp = bt.eigenvectors.conj().T @ u.entries @ b0.eigenvectors
    joint = np.abs(amp) ** 2 * gibbs[None, :]  # p_{k,l}
    works = bt.eigenvalues[:, None] - b0.eigenvalues[None, :]
    return WorkDistribution.from_raw(works, joint, merge_tol=merge_tol)


def reverse_distribution(
    h_init: HermitianOperator,
    h_final: HermitianOperator,
    u: UnitaryOperator,
    beta: float,
    merge_tol: float | None = None,
) -> WorkDistribution:
    """Reverse-protocol distribution over the reverse work variable -W.

    The reverse propagator follows from micro-reversibility with the
    time-reversal operator taken as complex conjugation in the computational
    basis, which requires real-symmetric endpoint Hamiltonians.
    """
    if h_init.dim != h_final.dim or u.dim != h_init.dim:
        raise InputError("operator dimensions must match")
    for name, h in (("h_init", h_init), ("h_final", h_final)):
        if float(np.max(np.abs(h.entries.imag))) > 1e-12:
            raise InputError(
                f"{name} has complex entries; the reverse protocol assumes time-reversal "
                "invariance, i.e. real-symmetric Hamiltonians in the computational basis"
            )
    b0 = energy_basis(HermitianOperator(h_init.entries.real.astype(complex)))
    bt = energy_basis(HermitianOperator(h_final.entries.real.astype(complex)))
    if merge_tol is None:
        merge_tol = default_merge_tol(b0.eigenvalues, bt.eigenvalues)
    # conjugation-Theta micro-reversibility: Theta U^dagger Theta^dagger = U^T
    u_rev = u.entries.T
    gibbs = np.exp(-beta * (bt.eigenvalues - bt.eigenvalues[0]))
    gibbs /= np.sum(gibbs)
    # Theta acts trivially on the real eigenvectors of the endpoint Hamiltonians
    amp = b0.eigenvectors.conj().T @ u_rev @ bt.eigenvectors
    joint = np.abs(amp) ** 2 * gibbs[None, :]  # p_{l,k}
    rev_works = b0.eigenvalues[:, None] - bt.eigenvalues[None, :]  # -W_{k,l}
    return WorkDistribution.from_raw(rev_works, joint, merge_tol=merge_tol)


def crooks_check(
    fwd: WorkDistribution,
    rev: WorkDistribution,
    beta: float,
    delta_f: float,
    p_floor: float = P_FLOOR,
) -> float:
    """Maximum residual |ln(P_fwd(W)/P_rev(-W)) - beta (W - delta_F)| over matched support."""
    residual = 0.0
    matched = 0
    for w, p in zip(fwd.works, fwd.probs):
        if p <= p_floor:
            continue
        q = rev.probability_at(-w)
        if q is None or q <= p_floor:
            continue
        matched += 1
        residual = max(residual, abs(math.log(p / q) - beta * (w - delta_f)))
    if matched == 0:
        raise NumericError("no matchable support points between forward and reverse distributions")
    return residual


def jarzynski_average(fwd: WorkDistribution, beta: float) -> float:
    """Exponential work average sum_W P(W) e^{-beta W}."""
    return float(np.sum(fwd.probs * np.exp(-beta * fwd.works)))


def mean_work(fwd: WorkDistribution) -> float:
    """First moment sum_W W P(W)."""
    return float(np.sum(fwd.works * fwd.probs))


def dissipated_work_thermal(
    h_init: HermitianOperator, h_final: HermitianOperator, beta: float
) -> tuple[float, float]:
    """Average and dissipated work with thermal states at both protocol endpoints.

    <W> = Tr{h_final rho_T} - Tr{h_init rho_0}, both states Gibbs at beta;
    W_diss = <W> - delta_F.
    """
    if h_init.dim != h_final.dim:
        raise InputError(f"dimension mismatch: {h_init.dim} != {h_final.dim}")
    rho0 = thermal_state(h_init, beta).density
    rhot = thermal_state(h_final, beta).density
    mw = float(np.real(np.trace(h_final.entries @ rhot) - np.trace(h_init.entries @ rho0)))
    return mw, mw - delta_F(h_init, h_final, beta)


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
