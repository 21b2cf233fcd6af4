"""Two-point-measurement protocol engine.

Exact enumeration over measurement outcome pairs produces discrete forward
and reverse work distributions, from which the detailed (Crooks) and
integral (Jarzynski) fluctuation relations, dissipated work and entropy
production are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .quantum import EnergyBasis, UnitaryOperator, broadcast_stacks
# unused here; benchmarks/tracer.py TARGETS wraps both names in this module (ROADMAP item 10)
from .quantum import energy_basis, thermal_state  # noqa: F401

P_FLOOR = 1e-12
MERGE_TOL_RELATIVE = 1e-9


@dataclass(frozen=True)
class WorkDistribution:
    """Discrete work distributions, degenerate values merged: one, or a stack of rows.

    Row k is the points bounds[k]:bounds[k + 1] of the flat `works` and `probs`, with
    gaps above its merge_tol: a float for one distribution (stack shape ()), else one
    per row of a stack, whose len() counts rows and whose index gives one row.
    """

    works: np.ndarray
    probs: np.ndarray
    merge_tol: float | np.ndarray
    bounds: np.ndarray | None = None

    def __post_init__(self):
        works, probs = np.asarray(self.works, dtype=float), np.asarray(self.probs, dtype=float)
        tol = np.asarray(self.merge_tol, dtype=float)
        bounds = np.asarray([0, works.size] if self.bounds is None else self.bounds, dtype=int)
        if not (works.shape == probs.shape == (works.size,) and tol.ndim < 2
                and bounds.shape == (tol.size + 1,) and bounds[0] == 0
                and bounds[-1] == works.size and np.all(np.diff(bounds) > 0)):
            raise InputError("works and probs must be matching 1-d arrays that bounds split "
                             "into one non-empty row per merge_tol")
        for name, value in (("works", works), ("probs", probs), ("bounds", bounds),
                            ("merge_tol", tol if tol.ndim else float(tol))):
            object.__setattr__(self, name, value)
        # finiteness first, so that no sum below meets an inf or a NaN
        if not np.isfinite(works).all():
            raise InputError("work values must be finite")
        if not np.isfinite(probs).all():
            raise InputError("probabilities must be finite")
        total = np.add.reduceat(probs, bounds[:-1])
        bad = np.argmax(np.abs(total - 1.0))
        if not abs(total[bad] - 1.0) <= 1e-10:
            raise InputError(f"{self._row(bad)}probabilities sum to {total[bad]}, not 1")
        if not (probs.min() >= -1e-15 and probs.max() <= 1 + 1e-12):
            raise InputError("probabilities outside [0, 1]")
        with np.errstate(over="ignore"):  # a gap past the float range is inf, still a gap
            gaps = np.diff(works) > np.reshape(tol, -1)[self._point_rows()[1:]]
        gaps[bounds[1:-1] - 1] = True  # a row's first point follows the row before
        if not gaps.all():
            raise InputError("work values must be increasing with gaps above merge_tol")

    @property
    def stack_shape(self) -> tuple:
        return np.shape(self.merge_tol)

    def __len__(self) -> int:
        if not self.stack_shape:
            raise TypeError("a single work distribution has no rows")
        return self.stack_shape[0]

    def __getitem__(self, k) -> "WorkDistribution":
        k = range(len(self))[k]
        points = slice(self.bounds[k], self.bounds[k + 1])
        return WorkDistribution(self.works[points], self.probs[points], float(self.merge_tol[k]))

    def _row(self, k) -> str:
        return f"row {k}: " if self.stack_shape else ""

    def _point_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.bounds.size - 1), np.diff(self.bounds))

    def _per_point(self, values) -> np.ndarray:
        """`values`, a scalar or one per row, at each point of its row."""
        return np.broadcast_to(values, self.stack_shape).reshape(-1)[self._point_rows()]

    def _per_row(self, values: np.ndarray):
        """One value per row as a reader returns it: the array, or a float for one row."""
        return values if self.stack_shape else float(values[0])

    @classmethod
    def from_raw(cls, works, probs, merge_tol) -> "WorkDistribution":
        """Sort raw (work, probability) pairs and coalesce values within merge_tol.

        1-d arrays give one distribution, 2-d ones a stack of their rows (merge_tol a
        scalar or one per row), merged by one stable sort along the rows and one
        reduceat.  Forbidden outcomes carry no support.  A merged value is its group's
        probability-weighted mean, clipped to the group's range against rounding, so
        each row's mean is kept and merged values stay more than merge_tol apart.
        """
        works, probs = np.asarray(works, dtype=float), np.asarray(probs, dtype=float)
        if works.shape != probs.shape or works.ndim not in (1, 2):
            raise InputError("raw works and probs must be matching 1-d or 2-d arrays")
        if not (np.isfinite(works).all() and np.isfinite(probs).all()):
            raise InputError("non-finite work or probability values")
        tols = np.broadcast_to(np.asarray(merge_tol, dtype=float), works.shape[:-1])
        order = np.argsort(works, axis=-1, kind="stable")
        works = np.take_along_axis(works, order, -1).reshape(-1, works.shape[-1])
        probs = np.take_along_axis(probs, order, -1).reshape(works.shape)
        keep = probs > 0.0
        counts = np.count_nonzero(keep, axis=-1)
        if not np.all(counts):
            raise InputError(f"{'row %d: ' % np.argmin(counts) if tols.ndim else ''}"
                             "distribution has no support")
        row = np.repeat(np.arange(counts.size), counts)
        works, probs = works[keep], probs[keep]
        # a chain of neighbours each within merge_tol of the previous one is one group
        with np.errstate(over="ignore"):  # a gap past the float range is inf: a new group
            new = np.concatenate(([True], ~(np.diff(works) <= np.reshape(tols, -1)[row[1:]])))
        new[np.cumsum(counts)[:-1]] = True
        starts = np.flatnonzero(new)
        p = np.add.reduceat(probs, starts)
        w = np.add.reduceat(works * probs, starts) / p
        w = np.clip(w, works[starts], works[np.append(starts[1:], works.size) - 1])
        return cls(w, p, tols, np.cumsum(np.bincount(row[starts] + 1, minlength=counts.size + 1)))


@dataclass(frozen=True)
class ProtocolReport:
    """Summary quantities of one protocol run from six inputs; dissipated_work =
    mean_work - delta_F and entropy_production = beta dissipated_work are derived."""

    beta: float
    delta_F: float
    mean_work: float
    jarzynski_lhs: float
    jarzynski_rhs: float
    crooks_max_residual: float
    entropy_production: float = field(init=False)
    dissipated_work: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "dissipated_work", self.mean_work - self.delta_F)
        object.__setattr__(self, "entropy_production", self.beta * self.dissipated_work)


def default_merge_tol(first, second) -> np.ndarray:
    """MERGE_TOL_RELATIVE times the span of both spectra's levels, or 1e-12 for one level,
    per stack row of the spectra (..., d)."""
    with np.errstate(over="ignore"):  # a span past the float range is inf, refused in from_raw
        span = (np.maximum(np.max(first, axis=-1), np.max(second, axis=-1))
                - np.minimum(np.min(first, axis=-1), np.min(second, axis=-1)))
    return np.where(span > 0, MERGE_TOL_RELATIVE * span, 1e-12)


def _endpoints(b0: EnergyBasis, bt: EnergyBasis, beta, u: UnitaryOperator | None = None):
    """beta as an array when it is one, and the stack shape that the endpoint bases, u and
    beta broadcast to; an endpoint that is no EnergyBasis, or mismatched dims or stacks, is
    an InputError."""
    if not (isinstance(b0, EnergyBasis) and isinstance(bt, EnergyBasis)):
        raise InputError(f"endpoints must be bases made by energy_basis, got "
                         f"{type(b0).__name__} and {type(bt).__name__}")
    ops = (b0, bt) if u is None else (b0, bt, u)
    if len({op.dim for op in ops}) > 1:
        raise InputError("dimension mismatch: " + ", ".join(
            f"{name} {op.dim}" for name, op in zip(("h_init", "h_final", "u"), ops)))
    beta = np.asarray(beta, dtype=float) if np.ndim(beta) else beta
    shapes = [b0.stack_shape, bt.stack_shape, np.shape(beta)]
    if u is not None:
        shapes.append(u.entries.shape[:-2])
    return beta, broadcast_stacks(*shapes)


def delta_F(h_init: EnergyBasis, h_final: EnergyBasis, beta):
    """Free-energy difference -(1/beta)(ln Z_T - ln Z_0) between the endpoint Hamiltonians,
    from their energy bases; an array shaped like the broadcast stack of the bases and beta,
    or a float."""
    beta, _ = _endpoints(h_init, h_final, beta)
    return -(h_final.gibbs(beta)[1] - h_init.gibbs(beta)[1]) / beta


def _measured_work(first: EnergyBasis, second: EnergyBasis, u: np.ndarray, beta, merge_tol,
                   shape):
    """TPM work distribution: Gibbs-weighted measurement in `first`, u, measurement in
    `second`; a stack with one row per entry of the broadcast stack `shape`, in C order,
    from one batched pass, or a single distribution for shape ()."""
    if merge_tol is None:
        merge_tol = default_merge_tol(first.eigenvalues, second.eigenvalues)
    amp = np.swapaxes(second.eigenvectors.conj(), -1, -2) @ u @ first.eigenvectors
    joint = np.abs(amp) ** 2 * first.gibbs(beta)[0][..., None, :]
    with np.errstate(over="ignore"):  # a work past the float range is inf, refused in from_raw
        works = second.eigenvalues[..., :, None] - first.eigenvalues[..., None, :]
    rows = (math.prod(shape),) if shape else ()
    return WorkDistribution.from_raw(
        np.broadcast_to(works, shape + works.shape[-2:]).reshape(rows + (-1,)),
        np.broadcast_to(joint, shape + joint.shape[-2:]).reshape(rows + (-1,)),
        np.broadcast_to(merge_tol, shape).reshape(rows))


def forward_distribution(
    h_init: EnergyBasis, h_final: EnergyBasis, u: UnitaryOperator, beta,
    merge_tol: float | None = None,
) -> WorkDistribution:
    """Forward-protocol work distribution from exact outcome enumeration.

    First measurement in the energy basis h_init with Gibbs weights at beta,
    evolution by u, second measurement in the energy basis h_final.  Stacked
    bases, u and beta broadcast against each other, and a stack gives one
    stacked WorkDistribution with a row per protocol in C order.
    """
    beta, shape = _endpoints(h_init, h_final, beta, u)
    return _measured_work(h_init, h_final, u.entries, beta, merge_tol, shape)


def _check_real(name: str, basis: EnergyBasis) -> EnergyBasis:
    if float(np.max(np.abs(basis.eigenvectors.imag))) > 1e-12:
        raise InputError(
            f"{name} has complex eigenvectors; the reverse protocol assumes time-reversal "
            "invariance, i.e. real-symmetric Hamiltonians in the computational basis"
        )
    return basis


def reverse_distribution(
    h_init: EnergyBasis, h_final: EnergyBasis, u: UnitaryOperator, beta,
    merge_tol: float | None = None,
) -> WorkDistribution:
    """Reverse-protocol distribution over the reverse work variable -W.

    The reverse propagator follows from micro-reversibility with the
    time-reversal operator taken as complex conjugation in the computational
    basis, which requires real-symmetric endpoint Hamiltonians: both energy
    bases, or stacks of them, must have real eigenvectors.  Stacks broadcast
    and return as in forward_distribution.
    """
    beta, shape = _endpoints(h_init, h_final, beta, u)
    # conjugation-Theta micro-reversibility: Theta U^dagger Theta^dagger = U^T, and
    # Theta acts trivially on the real eigenvectors of the endpoint Hamiltonians
    return _measured_work(_check_real("h_final", h_final), _check_real("h_init", h_init),
                          np.swapaxes(u.entries, -1, -2), beta, merge_tol, shape)


def crooks_check(fwd: WorkDistribution, rev: WorkDistribution, beta, delta_f):
    """Maximum residual |ln(P_fwd(W)/P_rev(-W)) - beta (W - delta_F)| over matched support.

    Each forward point above P_FLOOR is matched to the nearer of the reverse points
    either side of -W in its row, the lower on a tie; it counts when that point lies
    within the row's reverse merge_tol and carries probability above P_FLOOR.  For
    stacks of the same rows, beta and delta_f are scalars or one per row, and the
    residual is one per row.  A row with no matched point is a NumericError.
    """
    if fwd.stack_shape != rev.stack_shape:
        raise InputError(f"stack shapes {fwd.stack_shape} and {rev.stack_shape} differ")
    keep = fwd.probs > P_FLOOR
    w, p, row = fwd.works[keep], fwd.probs[keep], fwd._point_rows()[keep]
    # the reverse points up to -w, each counted in its row, from one stable sort of the
    # reverse points and the queries by (row, work); a point equal to -w is then the
    # lower neighbour, at distance 0, so ties need no order of their own
    n = rev.works.size
    order = np.lexsort((np.concatenate((rev.works, -w)),
                        np.concatenate((rev._point_rows(), row))))
    idx = np.cumsum(order < n)[np.argsort(order)[n:]]
    below = np.maximum(idx - 1, rev.bounds[row])  # a missing side falls on the other
    above = np.minimum(idx, rev.bounds[row + 1] - 1)
    dist_below, dist_above = np.abs(rev.works[below] + w), np.abs(rev.works[above] + w)
    q = rev.probs[np.where(dist_above < dist_below, above, below)]
    dist = np.minimum(dist_below, dist_above)
    matched = (dist <= np.reshape(rev.merge_tol, -1)[row]) & (q > P_FLOOR)
    counts = np.bincount(row[matched], minlength=fwd.bounds.size - 1)
    if not counts.all():
        raise NumericError(f"{fwd._row(np.argmin(counts))}no matchable support points between "
                           "forward and reverse distributions")
    with np.errstate(over="ignore"):  # an infinite drift leaves an infinite residual
        drift = fwd._per_point(beta)[keep] * (w - fwd._per_point(delta_f)[keep])
    residual = np.abs(np.log(p[matched] / q[matched]) - drift[matched])
    return fwd._per_row(np.maximum.reduceat(residual, np.cumsum(counts) - counts))


def jarzynski_average(fwd: WorkDistribution, beta):
    """Exponential work average sum_W P(W) e^{-beta W}: a float, or one per row of a stack,
    beta a scalar or one per row.  An average beyond the float range is a NumericError."""
    with np.errstate(over="ignore"):
        average = np.add.reduceat(fwd.probs * np.exp(-fwd._per_point(beta) * fwd.works),
                                  fwd.bounds[:-1])
    if not np.isfinite(average).all():
        raise NumericError("<e^{-beta W}> overflows the float range")
    return fwd._per_row(average)


def mean_work(fwd: WorkDistribution):
    """First moment sum_W W P(W): a float, or one per row of a stack."""
    return fwd._per_row(np.add.reduceat(fwd.works * fwd.probs, fwd.bounds[:-1]))


def entropy_production_two_level(zfactor: float, beta_eps: float) -> float:
    """Closed-form average entropy production for the shifted two-level system.

    Sigma = (Z - 1) beta eps + ln((1 - e^{-Z beta eps}) / (1 - e^{-beta eps})),
    implemented exactly as the closed form states.  A run's TPM entropy production is the
    relative entropy D(rho_0 || rho_T^eq) >= 0, which criterion A3 reports Sigma against.
    """
    # negated, so that a NaN fails it; the product of floats may underflow to 0 or overflow
    zfactor, beta_eps = float(zfactor), float(beta_eps)
    if not (zfactor > 0 and 0 < zfactor * beta_eps < math.inf):
        raise InputError(f"zfactor and zfactor * beta_eps must be positive and finite, got "
                         f"zfactor {zfactor:.6g} and beta_eps {beta_eps:.6g}")
    return float(
        (zfactor - 1.0) * beta_eps
        + math.log(-math.expm1(-zfactor * beta_eps)) - math.log(-math.expm1(-beta_eps))
    )
