"""Finite-dimensional quantum mechanics on a truncated Hilbert space.

Dense matrices with checked structure, float unless their entries are complex;
energy bases and Gibbs states from one eigendecomposition per parity block of
`_blocks`; a midpoint exponential-product propagator along the one Hamiltonian
path shape h0 + f(tau) x; and the first-order interaction-picture amplitude for
the curvature-driven oscillator, integrated exactly over a piecewise-linear history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InputError, NumericError

HERMITICITY_TOL = 1e-12
UNITARITY_TOL = 1e-9
# |omega h| below which a first-order amplitude segment takes the Taylor series of
# its weights, and the series' term count: the direct formulas cancel as omega h -> 0.
SERIES_SWITCH = 0.5
SERIES_TERMS = 16
NODE_TOL = 1e-16  # bound on the interpolation error of a step factor
NODE_ENTRIES = 2 ** 22  # entries of any array a run of a block holds, one step aside (64 MB)


def _check_hermitian(m: np.ndarray) -> None:
    """Raise InputError unless every matrix in `m` (shape (..., d, d)) is finite and Hermitian."""
    if not np.all(np.isfinite(m)):
        raise InputError("non-finite operator entries")
    dev = float(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))))
    if dev > HERMITICITY_TOL:
        raise InputError(f"matrix is not Hermitian: max deviation {dev:.3g}")


def broadcast_stacks(*shapes) -> tuple:
    """The stack shape that `shapes` broadcast to; shapes that do not are an InputError."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        raise InputError(f"stack shapes {', '.join(map(str, shapes))} do not broadcast") from None


def _square_stack(entries) -> np.ndarray:
    """A read-only copy of `entries` as square matrices, shape (..., d, d): complex when the
    entries are, else float.  This is the one place that sets the dtype of an operator and
    of a basis's eigenvectors."""
    m = np.array(entries, dtype=complex if np.iscomplexobj(entries) else float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InputError(f"operator must be square, got shape {m.shape}")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix, or a stack of them with leading axes (..., d, d);
    hermiticity enforced at construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = _square_stack(self.entries)
        _check_hermitian(m)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]


@dataclass(frozen=True)
class UnitaryOperator:
    """Dense unitary matrix, or a stack of them (..., d, d); unitarity enforced at construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = _square_stack(self.entries)
        if not np.all(np.isfinite(m)):
            raise NumericError("non-finite unitary entries")
        object.__setattr__(self, "entries", m)
        if self.unitarity_defect > UNITARITY_TOL:
            raise InputError(f"matrix is not unitary: max deviation {self.unitarity_defect:.3g}")

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    @cached_property
    def unitarity_defect(self) -> float:
        """max |U^dagger U - I| over the entries of every matrix in the stack."""
        m = self.entries
        return float(np.max(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]))))


@dataclass(frozen=True)
class EnergyBasis:
    """Ascending eigenvalues (..., d) with eigenvector columns (..., d, d), read-only; a
    single basis is the stack shape ()."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        w.flags.writeable = False
        v = _square_stack(self.eigenvectors)
        if w.ndim == 0 or v.shape != w.shape + w.shape[-1:]:
            raise InputError(f"eigenvectors of shape {v.shape} do not fit eigenvalues of "
                             f"shape {w.shape}")
        if np.any(w[..., 1:] < w[..., :-1]):
            raise InputError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def stack_shape(self) -> tuple:
        return self.eigenvalues.shape[:-1]

    def amplitudes(self, n, m, times) -> np.ndarray:
        """<n|exp(-i H t)|m> at each of `times`; `n` may be an index array or a slice."""
        if self.stack_shape:
            raise InputError(f"amplitudes reads a single basis, got a stack of shape "
                             f"{self.stack_shape}")
        v = self.eigenvectors
        return (v[n] * v[m].conj()) @ np.exp(-1j * np.multiply.outer(self.eigenvalues, times))

    def scaled(self, z) -> "EnergyBasis":
        """Energy basis of z H: the eigenvalues times z, reordered ascending (z < 0 reverses);
        z is a scalar or an array that broadcasts against the stack shape; a level z E past
        the float range is an InputError."""
        with np.errstate(over="ignore"):
            w = np.asarray(z, dtype=float)[..., None] * self.eigenvalues
        if not np.all(np.isfinite(w)):
            raise InputError("scaled levels z E overflow the float range")
        order = np.argsort(w, axis=-1, kind="stable")
        v = np.broadcast_to(self.eigenvectors, w.shape[:-1] + self.eigenvectors.shape[-2:])
        return EnergyBasis(np.take_along_axis(w, order, -1),
                           np.take_along_axis(v, order[..., None, :], -1))

    def gibbs(self, beta) -> tuple[np.ndarray, float | np.ndarray]:
        """Gibbs populations of the eigenstates at beta and ln Z, shifted against overflow.

        beta is a scalar or an array that broadcasts against the stack shape; ln Z is a
        float for a single basis at a scalar beta, else an array of the broadcast shape.
        Each ln Z is a math.log, so a stacked row equals its single-basis call exactly.
        """
        b = np.asarray(beta, dtype=float)
        broadcast_stacks(self.stack_shape, b.shape)
        if np.any(b <= 0):
            raise InputError(f"beta must be positive, got {float(np.min(b))}")
        shift = self.eigenvalues[..., :1]
        with np.errstate(over="ignore"):  # an overflowing beta (E - E_0) weighs 0, beta E_0 is inf
            boltz = np.exp(-b[..., None] * (self.eigenvalues - shift))
            z_shifted = np.sum(boltz, axis=-1)
            log_z = np.fromiter(map(math.log, z_shifted.ravel().tolist()), float, z_shifted.size)
            log_z = log_z.reshape(z_shifted.shape) - b * shift[..., 0]
        return boltz / z_shifted[..., None], float(log_z) if log_z.ndim == 0 else log_z


def _blocks(*matrices) -> list:
    """(indices, each matrix's block on them) for each set of indices that the matrices, all
    of one shape, never couple to the rest: the even and the odd indices when none is a stack
    or has an entry at an odd distance from the diagonal, else all indices as one block."""
    n = np.arange(matrices[0].shape[-1])
    # the entries at an odd distance from the diagonal: even rows' odd columns, and the reverse
    if matrices[0].ndim > 2 or any(np.any(m[0::2, 1::2]) or np.any(m[1::2, 0::2])
                                   for m in matrices):
        return [(n, *matrices)]
    return [(n[start::2], *(m[start::2, start::2] for m in matrices))
            for start in (0, 1) if start < n.size]


def energy_basis(op: HermitianOperator) -> EnergyBasis:
    """Eigendecomposition of a Hermitian operator, or of a stack, by one eigh per block of
    `_blocks`, each checked for faithful reconstruction against its own scale; the blocks'
    eigenvalues merge ascending, their eigenvectors are exactly zero off the block, and a
    real operator takes the real solver.  Every block is solved before the merge allocates."""
    solved = []
    for idx, m in _blocks(op.entries):
        bw, bv = np.linalg.eigh(m)
        recon = np.max(np.abs((bv * bw[..., None, :]) @ np.swapaxes(bv.conj(), -1, -2) - m),
                       axis=(-2, -1))
        excess = recon / np.maximum(np.max(np.abs(bw), axis=-1), 1.0)
        worst = np.argmax(excess)
        if excess.flat[worst] > 1e-10:
            raise NumericError(f"eigendecomposition reconstruction error {recon.flat[worst]:.3g}")
        solved.append((idx, bw, bv))
    if len(solved) == 1:  # eigh's eigenvalues ascend already
        return EnergyBasis(*solved[0][1:])
    # parity blocks, never of a stack: each block's columns go to their sorted places, ties
    # in index order
    w = np.empty(op.dim)
    for idx, bw, _ in solved:
        w[idx] = bw
    order = np.argsort(w, kind="stable")
    place = np.argsort(order)  # the sorted place of each index
    v = np.zeros_like(op.entries)
    for idx, _, bv in solved:
        v[idx[:, None], place[idx]] = bv
    return EnergyBasis(w[order], v)


def thermal_state(basis: EnergyBasis, beta) -> np.ndarray:
    """Gibbs density matrix e^(-beta H)/Z, Hermitian, from the energy basis of H; a stack
    of bases gives a stack, with beta a scalar or an array that broadcasts against it."""
    if not isinstance(basis, EnergyBasis):
        raise InputError(f"thermal_state needs an energy_basis, got {type(basis).__name__}")
    populations = basis.gibbs(beta)[0]
    v = basis.eigenvectors
    rho = (v * populations[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
    return 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))


def two_level_hamiltonian(eps: float) -> HermitianOperator:
    """Two-level system with energies 0 and eps."""
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    return HermitianOperator(np.diag([0.0, eps]))


def qho_hamiltonian(mass: float, omega: float, dim: int) -> HermitianOperator:
    """Truncated harmonic oscillator, diag((n + 1/2) omega) in the Fock basis."""
    if mass <= 0 or omega <= 0:
        raise InputError("mass and omega must be positive")
    if dim < 2:
        raise InputError(f"dim must be at least 2, got {dim}")
    if not math.isfinite((dim - 0.5) * float(omega)):  # the top level; a float product never warns
        raise InputError(f"levels (n + 1/2) omega overflow the float range at omega {omega:g}")
    return HermitianOperator(np.diag((np.arange(dim) + 0.5) * omega))


def x_squared_element(mass: float, omega: float, n, m):
    """<n|x^2|m> in the Fock basis (0-based indices), elementwise over index arrays."""
    n, m = np.asarray(n), np.asarray(m)
    lo = np.minimum(n, m)
    if not (mass > 0 and omega > 0) or np.any(lo < 0):
        raise InputError("mass and omega must be positive and Fock indices non-negative")
    band = np.where(n == m, 2 * m + 1.0,
                    np.where(np.abs(n - m) == 2, np.sqrt((lo + 1.0) * (lo + 2.0)), 0.0))
    scale = 2.0 * mass * omega  # the largest entry, and 1 / scale itself, must be finite
    if not (scale > 0 and math.isfinite(float(np.max(band, initial=1.0)) / scale)):
        raise InputError(f"<n|x^2|m> overflows the float range at mass {mass:g}, omega {omega:g}")
    return band / scale


def x_squared_matrix(mass: float, omega: float, dim: int) -> HermitianOperator:
    """Position-squared operator on the truncated Fock space."""
    n = np.arange(dim)
    return HermitianOperator(x_squared_element(mass, omega, n[:, None], n[None, :]))


def _exp_factor(w, v, t):
    """exp(-i H t) from the eigenpairs (w, v) of H, or of each H in a stack."""
    return (v * np.exp(-1j * w * t)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _block_eigh(h0, x, values):
    """Eigenpairs of h0 + f x at f = `values`, a scalar or a 1-d stack, each matrix checked
    Hermitian; h0 and x are one block, a matrix or a stack of them (..., d, d)."""
    stack = h0 + np.multiply.outer(values, x)
    _check_hermitian(stack)
    return np.linalg.eigh(stack)


@dataclass(frozen=True)
class AffinePath:
    """Hamiltonian path H(tau) = h0 + f(tau) x, real f taking an array of times to one of its
    shape (or a constant to a scalar); h0 and x may be stacks (..., d, d) that share f.
    `blocks` is its one split, by `_blocks`: propagator works one block at a time."""

    h0: HermitianOperator
    x: HermitianOperator
    f: Callable[[np.ndarray], np.ndarray | float]

    def __post_init__(self):
        if self.h0.entries.shape != self.x.entries.shape:
            raise InputError(f"dimension mismatch: h0 has shape {self.h0.entries.shape}, "
                             f"x {self.x.entries.shape}")

    def __call__(self, tau: float) -> HermitianOperator:
        return HermitianOperator(self.h0.entries + self.f(tau) * self.x.entries)

    @cached_property
    def blocks(self) -> list:
        """(indices, h0 block, x block) for each block of `_blocks(h0, x)`."""
        return _blocks(self.h0.entries, self.x.entries)


def _block_product(h0, x, values, dt):
    """Midpoint product of one block h0 + f x of `AffinePath.blocks` (a parity's indices, or
    the whole path or stack), from step factors interpolated in f run by run:
    e^(i mu dt) exp(-i H(f) dt) - 1 = V diag(e^(-i (w - mu) dt) - 1) V^dagger at the fewest
    Chebyshev nodes m whose error bound 2 (rho/2)^m / m! is within NODE_TOL, since the m-th
    f-derivative of the factor is at most (dt ||x||)^m; rho = dt ||x|| (max f - min f) / 2
    over the run, ||x|| the largest in the stack, and mu the middle of each node spectrum."""
    block = np.array(np.broadcast_to(np.eye(x.shape[-1], dtype=complex), x.shape))
    run = max(1, min(NODE_ENTRIES // x.size, math.isqrt(NODE_ENTRIES)))
    norm = float(np.max(np.sum(np.abs(x), axis=-1)))
    for vals in (values[start:start + run] for start in range(0, values.size, run)):
        lo, hi = float(vals.min()), float(vals.max())
        if lo == hi:  # the factors commute
            block = _exp_factor(*_block_eigh(h0, x, lo), vals.size * dt) @ block
            continue
        rho = dt * (hi - lo) / 2 * norm
        m, bound = 1, rho
        while bound > NODE_TOL and m < vals.size:
            m, bound = m + 1, bound * rho / (2 * m + 2)
        nodes, weights = vals, None  # where m reaches the run's length: no interpolation
        if m < vals.size:  # weights sum_k c_k T_k(s) T_k(s_j) of the interpolant on [-1, 1]
            k = np.arange(m)
            angles = (k + 0.5) * np.pi / m
            s = np.clip((2 * vals - lo - hi) / (hi - lo), -1.0, 1.0)
            weights = np.cos(np.outer(np.arccos(s), k)) @ (np.cos(np.outer(k, angles))
                                                         * np.where(k, 2 / m, 1 / m)[:, None])
            nodes = (lo + hi) / 2 + (hi - lo) / 2 * np.cos(angles)
        w, v = _block_eigh(h0, x, nodes)
        mu = (w.min(axis=(0, -1)) + w.max(axis=(0, -1))) / 2
        # as -2 sin^2(t/2) - i sin t: no cancellation
        bracket = np.expm1(-1j * (w - mu[..., None]) * dt)
        d = (v * bracket[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
        d = d.reshape(nodes.size, -1).view(float)  # the real weights times (re, im) pairs
        for start in range(0, vals.size, nodes.size):  # m factors per product, as d holds
            rows = slice(start, start + nodes.size)
            factors = (d[rows] if weights is None else weights[rows] @ d).view(complex)
            for factor in factors.reshape(-1, *x.shape):
                block += factor @ block
        block *= np.exp(-1j * mu * vals.size * dt)[..., None, None]
    return block


def propagator(path: AffinePath, tau0: float, tau1: float, steps: int) -> UnitaryOperator:
    """Time-ordered propagator of H(tau) = h0 + f(tau) x by the midpoint exponential-product rule.

    U = prod_j exp(-i H(tau_j + dt/2) dt) applied right to left, global error O(dt^2).
    f is called once, on the array of the midpoints.  U is written one of `path.blocks` at a
    time: the even and the odd indices of a single path with no entry of h0 or x at an odd
    distance from the diagonal, else the whole path, a stack giving a stack of its shape; a
    block is real when h0 and x are.  Each block takes eigendecompositions at a few
    Chebyshev nodes of f's range, or at every midpoint where the interpolation bound asks
    for as many, and interpolates each step factor between them within NODE_TOL; it takes
    one solve in all when f is equal at every midpoint.  An f that is complex or does not
    broadcast to the midpoints is an InputError, and a result that is not unitary is a
    NumericError: the input was a checked path.
    """
    if not isinstance(path, AffinePath):
        raise InputError(f"propagator needs an AffinePath, got {type(path).__name__}")
    if not (math.isfinite(tau0) and math.isfinite(tau1) and tau1 > tau0):
        raise InputError(f"need finite tau1 > tau0, got [{tau0}, {tau1}]")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise InputError(f"steps must be an integer of at least 1, got {steps!r}")
    dt = (tau1 - tau0) / steps
    values = np.asarray(path.f(tau0 + (np.arange(steps) + 0.5) * dt))
    if values.dtype.kind not in "biuf" or values.shape not in ((), (1,), (steps,)):
        raise InputError(f"path coefficient f must give a real number per midpoint, a shape "
                         f"({steps},) or () array, got {values.dtype} of shape {values.shape}")
    values = np.broadcast_to(values, steps).astype(float)
    norm = [float(np.max(np.sum(np.abs(m.entries), axis=-1))) for m in (path.h0, path.x)]
    if not math.isfinite((tau1 - tau0) * (norm[0] + float(np.max(np.abs(values))) * norm[1])):
        raise InputError(f"non-finite path coefficient at a midpoint, or phase (tau1 - tau0)"
                         f"(||h0|| + max|f| ||x||) past the float range, on [{tau0}, {tau1}]")
    u = np.zeros(path.h0.entries.shape, dtype=complex)
    for idx, h0, x in path.blocks:
        u[..., idx[:, None], idx] = _block_product(h0, x, values, dt)
    try:
        return UnitaryOperator(u)
    except InputError as exc:  # the path was checked, so the fault is the program's
        raise NumericError(f"propagator result: {exc}") from None


def _segment_weights(theta: np.ndarray):
    """I0 = int_0^1 e^(i theta u) du and I1 = int_0^1 u e^(i theta u) du, elementwise."""
    series = np.abs(theta) < SERIES_SWITCH
    zs = np.where(series, 1j * theta, 0.0)  # each branch sees only its own arguments
    zd = np.where(series, 1j, 1j * theta)
    i0 = i1 = np.zeros_like(zs)
    for k in reversed(range(SERIES_TERMS)):  # Horner on sum_k z^k/(k+1)! and sum_k (k+1) z^k/(k+2)!
        i0 = i0 * zs + 1.0 / math.factorial(k + 1)
        i1 = i1 * zs + (k + 1.0) / math.factorial(k + 2)
    e = np.exp(zd)
    d0 = (e - 1.0) / zd
    return np.where(series, i0, d0), np.where(series, i1, (e - d0) / zd)


def perturbative_amplitude(mass, omega0, knots, values, n: int, m: int,
                           tau: float | np.ndarray) -> complex | np.ndarray:
    """First-order interaction-picture amplitude for the curvature-driven oscillator.

    c_n(tau) = -(i mass / 2) <n|x^2|m> * integral_0^tau R_txtx(t') e^{i(n-m) omega0 t'} dt'.
    R_txtx is the curvature history given at strictly increasing `knots`: piecewise
    linear between them and held constant outside them, as np.interp does; a
    constant history is one knot.  The integral is exact, one linear segment at
    a time between 0, tau and the knots strictly inside (0, tau), with Filon-type
    weights that switch to their Taylor series where |omega h| < SERIES_SWITCH.
    tau is a scalar, which returns a complex, or an array, which returns an array of
    its shape: the whole segments up to its largest entry are integrated once and
    summed in order, and each tau adds its part segment to the sum before it.
    """
    try:
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        taus = np.asarray(tau, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"knots, values and tau must be real: {exc}") from None
    if knots.ndim != 1 or knots.shape != values.shape or knots.size == 0:
        raise InputError("knots and values must be 1-d sequences of equal, nonzero length")
    if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
        raise InputError("knots and values must be finite")
    if np.any(knots[1:] <= knots[:-1]):
        raise InputError("knots must be strictly increasing")
    if not (np.all(np.isfinite(taus)) and np.all(taus >= 0)):
        raise InputError(f"tau must be finite and non-negative, got {tau}")
    elem = x_squared_element(mass, omega0, n, m)
    freq = (n - m) * omega0

    def segments(lo, hi):
        """The integral over each segment [lo, hi], on which R is linear."""
        r_lo, r_hi = np.interp(lo, knots, values), np.interp(hi, knots, values)
        i0, i1 = _segment_weights(freq * (hi - lo))
        return (hi - lo) * np.exp(1j * freq * lo) * (r_lo * i0 + (r_hi - r_lo) * i1)

    starts = np.concatenate(([0.0], knots[(knots > 0.0) & (knots < taus.max(initial=0.0))]))
    whole = np.concatenate(([0.0], np.cumsum(segments(starts[:-1], starts[1:]))))
    k = np.searchsorted(starts[1:], taus)  # the whole segments below each tau
    c = -0.5j * mass * elem * (whole[k] + segments(starts[k], taus))
    return complex(c) if c.ndim == 0 else c


def transition_probability_formula(mass, omega0, hubble, n: int, m: int,
                                   t: float | np.ndarray) -> float | np.ndarray:
    """Closed-form first-order transition probability in the exponentially expanding universe.

    4 (mass H^2 / 2)^2 |<n|x^2|m>|^2 / |e_n - e_m|^2 * sin^2((n - m) omega0 t / 2).
    Undefined on the diagonal.  A scalar t returns a float, an array an array of its shape.
    """
    if n == m:
        raise InputError("transition probability is undefined for n = m")
    if mass <= 0 or omega0 <= 0 or hubble <= 0:
        raise InputError("mass, omega0 and hubble must be positive")
    elem = x_squared_element(mass, omega0, n, m)
    gap = abs(n - m) * omega0
    try:
        amp = 4.0 * (0.5 * mass * hubble * hubble) ** 2 * elem * elem / (gap * gap)
    except OverflowError:
        raise InputError(f"(mass H^2 / 2)^2 overflows the float range at mass {mass:g}") from None
    p = amp * np.sin(0.5 * (n - m) * omega0 * np.asarray(t, dtype=float)) ** 2
    return float(p) if np.ndim(p) == 0 else p
