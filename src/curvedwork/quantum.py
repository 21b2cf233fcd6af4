"""Finite-dimensional quantum mechanics on a truncated Hilbert space.

Dense complex matrices with checked structure, Gibbs states computed via
eigendecomposition, a midpoint exponential-product propagator along the one
Hamiltonian path shape h0 + f(tau) x, and the first-order interaction-picture
amplitude for the curvature-driven oscillator, integrated exactly over a
piecewise-linear curvature history.
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
# Complex entries per stack of midpoint Hamiltonians handed to one batched eigh;
# bounds the dense propagator's working memory whatever the dimension or step count.
DENSE_BATCH_ENTRIES = 2 ** 12
# |omega h| below which a first-order amplitude segment takes the Taylor series of
# its weights, and the series' term count: the direct formulas cancel as omega h -> 0.
SERIES_SWITCH = 0.5
SERIES_TERMS = 16


def _check_hermitian(m: np.ndarray) -> None:
    """Raise InputError unless every matrix in `m` (shape (..., d, d)) is finite and Hermitian."""
    if not np.all(np.isfinite(m)):
        raise InputError("non-finite operator entries")
    dev = float(np.max(np.abs(m - np.swapaxes(m.conj(), -1, -2))))
    if dev > HERMITICITY_TOL:
        raise InputError(f"matrix is not Hermitian: max deviation {dev:.3g}")


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix; hermiticity enforced at construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"operator must be square, got shape {m.shape}")
        _check_hermitian(m)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class UnitaryOperator:
    """Dense unitary matrix; unitarity enforced at construction."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"operator must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericError("non-finite unitary entries")
        object.__setattr__(self, "entries", m)
        if self.unitarity_defect > UNITARITY_TOL:
            raise InputError(f"matrix is not unitary: max deviation {self.unitarity_defect:.3g}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def unitarity_defect(self) -> float:
        m = self.entries
        return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


@dataclass(frozen=True)
class EnergyBasis:
    """Ascending eigenvalues with eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=complex)
        if np.any(np.diff(w) < 0):
            raise InputError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def amplitudes(self, n, m, times) -> np.ndarray:
        """<n|exp(-i H t)|m> at each of `times`; `n` may be an index array or a slice."""
        v = self.eigenvectors
        return (v[n] * v[m].conj()) @ np.exp(-1j * np.multiply.outer(self.eigenvalues, times))

    def scaled(self, z: float) -> "EnergyBasis":
        """Energy basis of z H: the eigenvalues times z, reordered ascending (z < 0 reverses)."""
        order = np.argsort(z * self.eigenvalues, kind="stable")
        return EnergyBasis(z * self.eigenvalues[order], self.eigenvectors[:, order])

    def gibbs(self, beta: float) -> tuple[np.ndarray, float]:
        """Gibbs populations of the eigenstates at beta and ln Z, shifted against overflow."""
        if beta <= 0:
            raise InputError(f"beta must be positive, got {beta}")
        shift = float(self.eigenvalues[0])
        boltz = np.exp(-beta * (self.eigenvalues - shift))
        z_shifted = float(np.sum(boltz))
        return boltz / z_shifted, math.log(z_shifted) - beta * shift


def energy_basis(op: HermitianOperator) -> EnergyBasis:
    """Eigendecomposition of a Hermitian operator, checked for faithful reconstruction."""
    w, v = np.linalg.eigh(op.entries)
    recon = float(np.max(np.abs(v @ np.diag(w) @ v.conj().T - op.entries)))
    scale = max(float(np.max(np.abs(w))), 1.0)
    if recon > 1e-10 * scale:
        raise NumericError(f"eigendecomposition reconstruction error {recon:.3g}")
    return EnergyBasis(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True)
class ThermalState:
    """Gibbs state e^(-beta H)/Z with its inverse temperature, log partition function
    and mean energy Tr(H rho)."""

    beta: float
    density: np.ndarray
    log_partition: float
    mean_energy: float


def thermal_state(op: HermitianOperator | EnergyBasis, beta: float) -> ThermalState:
    """Thermal state of a Hamiltonian, or of the energy basis it was diagonalised into."""
    basis = op if isinstance(op, EnergyBasis) else energy_basis(op)
    populations, log_partition = basis.gibbs(beta)
    v = basis.eigenvectors
    rho = (v * populations) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return ThermalState(beta=beta, density=rho, log_partition=log_partition,
                        mean_energy=float(populations @ basis.eigenvalues))


def two_level_hamiltonian(eps: float) -> HermitianOperator:
    """Two-level system with energies 0 and eps."""
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    return HermitianOperator(np.diag([0.0, eps]).astype(complex))


def qho_hamiltonian(mass: float, omega: float, dim: int) -> HermitianOperator:
    """Truncated harmonic oscillator, diag((n + 1/2) omega) in the Fock basis."""
    if mass <= 0 or omega <= 0:
        raise InputError("mass and omega must be positive")
    if dim < 2:
        raise InputError(f"dim must be at least 2, got {dim}")
    n = np.arange(dim)
    return HermitianOperator(np.diag((n + 0.5) * omega).astype(complex))


def x_squared_element(mass: float, omega: float, n, m):
    """<n|x^2|m> in the Fock basis (0-based indices), elementwise over index arrays."""
    n, m = np.asarray(n), np.asarray(m)
    lo = np.minimum(n, m)
    if mass <= 0 or omega <= 0 or np.any(lo < 0):
        raise InputError("mass and omega must be positive and Fock indices non-negative")
    band = np.where(n == m, 2 * m + 1.0,
                    np.where(np.abs(n - m) == 2, np.sqrt((lo + 1.0) * (lo + 2.0)), 0.0))
    return band / (2.0 * mass * omega)


def x_squared_matrix(mass: float, omega: float, dim: int) -> HermitianOperator:
    """Position-squared operator on the truncated Fock space."""
    n = np.arange(dim)
    return HermitianOperator(x_squared_element(mass, omega, n[:, None], n[None, :]).astype(complex))


def _exp_factor(w, v, t):
    """exp(-i H t) from the eigenpairs (w, v) of H, or of each H in a stack."""
    return (v * np.exp(-1j * w * t)[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _parity_sectors(h0: np.ndarray, x: np.ndarray):
    """Per-parity tridiagonal bands of h0 + f x, or None unless the path is parity-banded.

    Banded means h0 real diagonal and x real symmetric with nonzeros only on
    diagonals 0 and +-2; then even and odd indices never couple.  Each sector
    is (indices, diagonal of h0, diagonal of x, the +-2 diagonal of x).
    """
    i, j = np.indices(h0.shape)
    gap = np.abs(i - j)
    if (np.any(h0.imag) or np.any(x.imag) or np.any(h0[gap != 0])
            or np.any(x[(gap != 0) & (gap != 2)]) or np.any(x != x.T)):
        return None
    h0, x = h0.real, x.real
    sectors = []
    for parity in (0, 1):
        idx = np.arange(parity, h0.shape[0], 2)
        if idx.size:
            sectors.append((idx, np.diag(h0)[idx], np.diag(x)[idx], x[idx[:-1], idx[1:]]))
    return tuple(sectors)


def _sector_eigh(sector, value):
    from scipy.linalg import eigh_tridiagonal  # scipy loads only where a sector is solved

    _, d0, dx, ex = sector
    return eigh_tridiagonal(d0 + value * dx, value * ex)


@dataclass(frozen=True)
class AffinePath:
    """Hamiltonian path H(tau) = h0 + f(tau) x, with real-valued f."""

    h0: HermitianOperator
    x: HermitianOperator
    f: Callable[[float], float]

    def __post_init__(self):
        if self.h0.dim != self.x.dim:
            raise InputError(f"dimension mismatch: {self.h0.dim} != {self.x.dim}")

    def __call__(self, tau: float) -> HermitianOperator:
        return HermitianOperator(self.h0.entries + self.f(tau) * self.x.entries)

    @cached_property
    def sectors(self):
        """Parity sectors when the path is parity-banded, else None."""
        return _parity_sectors(self.h0.entries, self.x.entries)

    def spectrum(self, value: float) -> EnergyBasis:
        """Energy basis of h0 + value x by one tridiagonal solve per sector; the real
        eigenvectors are exactly zero between the even and odd indices."""
        if self.sectors is None:
            raise InputError("spectrum needs a parity-banded path")
        w, v = np.empty(0), np.zeros((self.h0.dim, self.h0.dim))
        for sector in self.sectors:
            ws, vs = _sector_eigh(sector, value)
            v[sector[0], w.size:w.size + ws.size] = vs
            w = np.concatenate((w, ws))
        order = np.argsort(w, kind="stable")
        return EnergyBasis(w[order], v[:, order])


def _dense_product(path: AffinePath, values, dt):
    """Midpoint product over checked stacks of <= DENSE_BATCH_ENTRIES entries, one eigh each."""
    h0, x = path.h0.entries, path.x.entries
    u = np.eye(h0.shape[0], dtype=complex)
    size = max(1, DENSE_BATCH_ENTRIES // h0.size)
    for start in range(0, values.size, size):
        stack = h0 + values[start:start + size, None, None] * x
        _check_hermitian(stack)
        for factor in _exp_factor(*np.linalg.eigh(stack), dt):
            u = factor @ u
    return u


def _parity_product(path: AffinePath, values, dt, duration):
    u = np.zeros((path.h0.dim, path.h0.dim), dtype=complex)
    for sector in path.sectors:
        if np.all(values == values[0]):  # the factors commute: one solve for the duration
            block = _exp_factor(*_sector_eigh(sector, values[0]), duration)
        else:
            # V_N P_N (V_N^T V_{N-1}) P_{N-1} ... P_1 V_1^T, carried in the current eigenbasis;
            # a real overlap acts on the complex block as one product over its (re, im) pairs
            w, prev = _sector_eigh(sector, values[0])
            block = np.exp(-1j * w * dt)[:, None] * prev.T
            for value in values[1:]:
                w, v = _sector_eigh(sector, value)
                block = (v.T @ prev @ block.view(np.float64)).view(complex)
                block, prev = np.exp(-1j * w * dt)[:, None] * block, v
            block = (prev @ block.view(np.float64)).view(complex)
        u[np.ix_(sector[0], sector[0])] = block
    return u


def propagator(path: AffinePath, tau0: float, tau1: float, steps: int) -> UnitaryOperator:
    """Time-ordered propagator of H(tau) = h0 + f(tau) x by the midpoint exponential-product rule.

    U = prod_j exp(-i H(tau_j + dt/2) dt) applied right to left; each factor
    is exactly unitary (Hermitian eigendecomposition), global error O(dt^2).
    f is evaluated once per midpoint, and the structure of the path picks the
    solver.  A parity-banded path takes one real tridiagonal solve per parity
    sector and step and chains the steps through the real overlaps of
    consecutive eigenbases, or takes one solve per sector in all when f is
    equal at every midpoint.  Any other path takes batched dense solves, one
    np.linalg.eigh call per stack of DENSE_BATCH_ENTRIES matrix entries.
    """
    if not isinstance(path, AffinePath):
        raise InputError(f"propagator needs an AffinePath, got {type(path).__name__}")
    if not (math.isfinite(tau0) and math.isfinite(tau1) and tau1 > tau0):
        raise InputError(f"need finite tau1 > tau0, got [{tau0}, {tau1}]")
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise InputError(f"steps must be an integer of at least 1, got {steps!r}")
    dt = (tau1 - tau0) / steps
    values = np.array([path.f(tau0 + (j + 0.5) * dt) for j in range(steps)], dtype=float)
    if not np.all(np.isfinite(values)):
        raise InputError("non-finite path coefficient at a propagator midpoint")
    if path.sectors is not None:
        u = _parity_product(path, values, dt, tau1 - tau0)
    else:
        u = _dense_product(path, values, dt)
    if not np.all(np.isfinite(u)):
        raise NumericError("non-finite propagator entries")
    return UnitaryOperator(u)


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


def perturbative_amplitude(mass, omega0, knots, values, n: int, m: int, tau: float) -> complex:
    """First-order interaction-picture amplitude for the curvature-driven oscillator.

    c_n(tau) = -(i mass / 2) <n|x^2|m> * integral_0^tau R_txtx(t') e^{i(n-m) omega0 t'} dt'.
    R_txtx is the curvature history given at strictly increasing `knots`: piecewise
    linear between them and held constant outside them, as np.interp does; a
    constant history is one knot.  The integral is exact, one linear segment at
    a time between 0, tau and the knots strictly inside (0, tau), with Filon-type
    weights that switch to their Taylor series where |omega h| < SERIES_SWITCH.
    """
    try:
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"knots and values must be real sequences: {exc}") from None
    if knots.ndim != 1 or knots.shape != values.shape or knots.size == 0:
        raise InputError("knots and values must be 1-d sequences of equal, nonzero length")
    if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
        raise InputError("knots and values must be finite")
    if np.any(np.diff(knots) <= 0):
        raise InputError("knots must be strictly increasing")
    if not (math.isfinite(tau) and tau >= 0):
        raise InputError(f"tau must be finite and non-negative, got {tau}")
    elem = x_squared_element(mass, omega0, n, m)
    if elem == 0.0 or tau == 0.0:
        return 0.0 + 0.0j
    freq = (n - m) * omega0
    breaks = np.concatenate(([0.0], knots[(knots > 0.0) & (knots < tau)], [tau]))
    r = np.interp(breaks, knots, values)
    h = np.diff(breaks)
    i0, i1 = _segment_weights(freq * h)
    f = np.sum(h * np.exp(1j * freq * breaks[:-1]) * (r[:-1] * i0 + np.diff(r) * i1))
    return complex(-0.5j * mass * elem * f)


def transition_probability_formula(mass, omega0, hubble, n: int, m: int, t: float) -> float:
    """Closed-form first-order transition probability in the exponentially expanding universe.

    4 (mass H^2 / 2)^2 |<n|x^2|m>|^2 / |e_n - e_m|^2 * sin^2((n - m) omega0 t / 2).
    Undefined on the diagonal.
    """
    if n == m:
        raise InputError("transition probability is undefined for n = m")
    if mass <= 0 or omega0 <= 0 or hubble <= 0:
        raise InputError("mass, omega0 and hubble must be positive")
    elem = x_squared_element(mass, omega0, n, m)
    gap = abs(n - m) * omega0
    amp = 4.0 * (0.5 * mass * hubble * hubble) ** 2 * elem * elem / (gap * gap)
    return float(amp * math.sin(0.5 * (n - m) * omega0 * t) ** 2)
