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
from .quantum import (EnergyBasis, HermitianOperator, UnitaryOperator, broadcast_stacks,
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
        # negated comparisons, so that a NaN fails each check
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise InputError(f"probabilities sum to {total}, not 1")
        if not (probs.min() >= -1e-15 and probs.max() <= 1 + 1e-12):
            raise InputError("probabilities outside [0, 1]")
        # increasing values between finite ends are all finite
        if not (math.isfinite(works[0]) and math.isfinite(works[-1])):
            raise InputError("work values must be finite")
        if works.size > 1 and not np.diff(works).min() > self.merge_tol:
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
        works = np.asarray(works, dtype=float).reshape(1, -1)
        probs = np.asarray(probs, dtype=float).reshape(1, -1)
        return _merge_rows(works, probs, np.array([merge_tol], dtype=float))[0]


def _merge_rows(works, probs, merge_tols) -> tuple[WorkDistribution, ...]:
    """from_raw on each row of (works, probs), shape (rows, n), within its row's merge_tol,
    as one segmented merge: a stable sort along the rows, then one reduceat over all of
    them with each row's first kept outcome starting a group."""
    if not (np.isfinite(works).all() and np.isfinite(probs).all()):
        raise InputError("non-finite work or probability values")
    order = np.argsort(works, axis=-1, kind="stable")
    works = np.take_along_axis(works, order, -1)
    probs = np.take_along_axis(probs, order, -1)
    keep = probs > 0.0  # exactly forbidden outcomes carry no support
    counts = np.count_nonzero(keep, axis=-1)
    if not np.all(counts):
        raise InputError("distribution has no support")
    row = np.repeat(np.arange(counts.size), counts)
    works, probs = works[keep], probs[keep]
    # a chain of neighbours each within merge_tol of the previous one is one group
    new = np.concatenate(([True], ~(np.diff(works) <= merge_tols[row[1:]])))
    new[np.cumsum(counts)[:-1]] = True
    starts = np.flatnonzero(new)
    p = np.add.reduceat(probs, starts)
    w = np.add.reduceat(works * probs, starts) / p
    w = np.clip(w, works[starts], works[np.append(starts[1:], works.size) - 1])
    splits = np.cumsum(np.bincount(row[starts], minlength=counts.size))[:-1]
    return tuple(WorkDistribution(wk, pk, merge_tol=float(tol)) for wk, pk, tol
                 in zip(np.split(w, splits), np.split(p, splits), merge_tols))


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


def default_merge_tol(first, second) -> np.ndarray:
    """MERGE_TOL_RELATIVE times the span of both spectra's levels, or 1e-12 for one level,
    per stack row of the spectra (..., d)."""
    span = (np.maximum(np.max(first, axis=-1), np.max(second, axis=-1))
            - np.minimum(np.min(first, axis=-1), np.min(second, axis=-1)))
    return np.where(span > 0, MERGE_TOL_RELATIVE * span, 1e-12)


# A protocol endpoint: a Hamiltonian, or its energy basis, so that a caller
# evaluating several quantities of one protocol diagonalises each endpoint once.
# Either may be a stack (..., d, d), one protocol per stack entry.
Endpoint = HermitianOperator | EnergyBasis


def _endpoints(h_init: Endpoint, h_final: Endpoint, beta, u: UnitaryOperator | None = None):
    """Energy bases of both endpoints, beta as an array when it is one, and the stack shape
    that the endpoints, u and beta broadcast to; mismatched dims or stacks are InputErrors."""
    ops = (h_init, h_final) if u is None else (h_init, h_final, u)
    if len({op.dim for op in ops}) > 1:
        raise InputError("dimension mismatch: " + ", ".join(
            f"{name} {op.dim}" for name, op in zip(("h_init", "h_final", "u"), ops)))
    b0, bt = (h if isinstance(h, EnergyBasis) else energy_basis(h) for h in (h_init, h_final))
    beta = np.asarray(beta, dtype=float) if np.ndim(beta) else beta
    shapes = [b0.stack_shape, bt.stack_shape, np.shape(beta)]
    if u is not None:
        shapes.append(u.entries.shape[:-2])
    return b0, bt, beta, broadcast_stacks(*shapes)


def delta_F(h_init: Endpoint, h_final: Endpoint, beta):
    """Free-energy difference -(1/beta)(ln Z_T - ln Z_0) between the endpoint Hamiltonians;
    an array shaped like the broadcast stack of the endpoints and beta, or a float."""
    b0, bt, beta, _ = _endpoints(h_init, h_final, beta)
    return -(bt.gibbs(beta)[1] - b0.gibbs(beta)[1]) / beta


def _measured_work(first: EnergyBasis, second: EnergyBasis, u: np.ndarray, beta, merge_tol,
                   shape):
    """TPM work distribution: Gibbs-weighted measurement in `first`, u, measurement in
    `second`; one per entry of the broadcast stack `shape`, in C order, as one batched pass."""
    if merge_tol is None:
        merge_tol = default_merge_tol(first.eigenvalues, second.eigenvalues)
    amp = np.swapaxes(second.eigenvectors.conj(), -1, -2) @ u @ first.eigenvectors
    joint = np.abs(amp) ** 2 * first.gibbs(beta)[0][..., None, :]
    works = second.eigenvalues[..., :, None] - first.eigenvalues[..., None, :]
    rows = (math.prod(shape), -1)
    dists = _merge_rows(np.broadcast_to(works, shape + works.shape[-2:]).reshape(rows),
                        np.broadcast_to(joint, shape + joint.shape[-2:]).reshape(rows),
                        np.broadcast_to(merge_tol, shape).reshape(-1))
    return dists if shape else dists[0]


def forward_distribution(
    h_init: Endpoint, h_final: Endpoint, u: UnitaryOperator, beta,
    merge_tol: float | None = None,
) -> WorkDistribution | tuple[WorkDistribution, ...]:
    """Forward-protocol work distribution from exact outcome enumeration.

    First measurement in the eigenbasis of h_init with Gibbs weights at beta,
    evolution by u, second measurement in the eigenbasis of h_final.  Stacked
    endpoints, u and beta broadcast against each other, and a stack gives a tuple
    of distributions, one per protocol in C order.
    """
    b0, bt, beta, shape = _endpoints(h_init, h_final, beta, u)
    return _measured_work(b0, bt, u.entries, beta, merge_tol, shape)


def _check_real(name: str, basis: EnergyBasis) -> EnergyBasis:
    if float(np.max(np.abs(basis.eigenvectors.imag))) > 1e-12:
        raise InputError(
            f"{name} has complex eigenvectors; the reverse protocol assumes time-reversal "
            "invariance, i.e. real-symmetric Hamiltonians in the computational basis"
        )
    return basis


def reverse_distribution(
    h_init: Endpoint, h_final: Endpoint, u: UnitaryOperator, beta,
    merge_tol: float | None = None,
) -> WorkDistribution | tuple[WorkDistribution, ...]:
    """Reverse-protocol distribution over the reverse work variable -W.

    The reverse propagator follows from micro-reversibility with the
    time-reversal operator taken as complex conjugation in the computational
    basis, which requires real-symmetric endpoint Hamiltonians; an endpoint
    given as a basis, or a stack of them, must have real eigenvectors.  Stacks
    broadcast and return as in forward_distribution.
    """
    b0, bt, beta, shape = _endpoints(h_init, h_final, beta, u)
    # conjugation-Theta micro-reversibility: Theta U^dagger Theta^dagger = U^T, and
    # Theta acts trivially on the real eigenvectors of the endpoint Hamiltonians
    return _measured_work(_check_real("h_final", bt), _check_real("h_init", b0),
                          np.swapaxes(u.entries, -1, -2), beta, merge_tol, shape)


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


def dissipated_work_thermal(h_init: Endpoint, h_final: Endpoint, beta):
    """Average and dissipated work with thermal states at both protocol endpoints.

    <W> = Tr{h_final rho_T} - Tr{h_init rho_0}, both states Gibbs at beta;
    W_diss = <W> - delta_F, with delta_F from the two states' partition functions.
    Each endpoint is a Hamiltonian or its energy basis, or a stack of either; the
    pair is two floats, or two arrays shaped like the broadcast stack.
    """
    b0, bt, beta, _ = _endpoints(h_init, h_final, beta)
    state0 = thermal_state(b0, beta)
    statet = thermal_state(bt, beta)
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
