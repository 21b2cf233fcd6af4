"""Fermi-normal-frame geometry around a laboratory worldline.

A frame is described by the worldline's proper acceleration and by the
curvature components expressed in the orthonormal laboratory frame, all as
functions of proper time.  From these the second-order metric expansion,
the redshift factor and the non-relativistic time-dilation factor are
evaluated at points near the worldline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, GeometryError, InputError

# Expansion-control bound: both |a.x| and max|R| r^2 stay below this, keeping the
# O(r^3) truncation honest.
VALIDITY_BOUND = 0.1

Vector = np.ndarray


@dataclass(frozen=True)
class FrameData:
    """Worldline data in the Fermi frame.

    accel(tau) -> (3,) proper acceleration a_i.
    riemann_titj(tau) -> (3, 3) components R_{t i t j}, symmetric in (i, j).
    riemann_tjik(tau) -> (3, 3, 3) components R_{t j i k}, indexed [j, i, k],
        antisymmetric in (i, k).
    riemann_ikjl(tau) -> (3, 3, 3, 3) spatial components R_{i k j l}, indexed
        [i, k, j, l], with the full Riemann pair symmetries.
    """

    accel: Callable[[float], Vector]
    riemann_titj: Callable[[float], np.ndarray]
    riemann_tjik: Callable[[float], np.ndarray]
    riemann_ikjl: Callable[[float], np.ndarray]


@dataclass(frozen=True)
class FramePoint:
    """A point (tau, x) in Fermi normal coordinates."""

    tau: float
    x: Vector

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (3,):
            raise InputError(f"point must be a 3-vector, got shape {x.shape}")
        object.__setattr__(self, "x", x)

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.x))


@dataclass(frozen=True)
class MetricComponents:
    """Second-order metric at a frame point: scalar g_tt, vector g_ti, 3x3 g_ij."""

    g_tt: float
    g_ti: Vector
    g_ij: np.ndarray


@dataclass(frozen=True)
class FrameValidation:
    """Per-invariant maximum symmetry violations over the sampled proper times."""

    violations: dict = field(default_factory=dict)
    tol: float = 1e-12

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.violations.values())


def _eval_tensors(frame: FrameData, tau: float):
    a = np.asarray(frame.accel(tau), dtype=float)
    r_titj = np.asarray(frame.riemann_titj(tau), dtype=float)
    r_tjik = np.asarray(frame.riemann_tjik(tau), dtype=float)
    r_ikjl = np.asarray(frame.riemann_ikjl(tau), dtype=float)
    shapes = (a.shape, r_titj.shape, r_tjik.shape, r_ikjl.shape)
    if shapes != ((3,), (3, 3), (3, 3, 3), (3, 3, 3, 3)):
        raise InputError(f"frame tensors have wrong shapes: {shapes}")
    for t in (a, r_titj, r_tjik, r_ikjl):
        if not np.all(np.isfinite(t)):
            raise InputError(f"non-finite frame tensor entries at tau={tau}")
    return a, r_titj, r_tjik, r_ikjl


def validate_frame(frame: FrameData, tau_samples, tol: float = 1e-12) -> FrameValidation:
    """Check the Riemann index symmetries of user-supplied frame data.

    Returns the maximum violation magnitude per invariant over all samples.
    Raises InputError for empty samples or non-finite tensor entries.
    """
    tau_samples = list(tau_samples)
    if not tau_samples:
        raise InputError("tau_samples must be non-empty")
    v_titj = v_tjik = v_ik = v_jl = v_pair = 0.0
    for tau in tau_samples:
        _, r_titj, r_tjik, r_ikjl = _eval_tensors(frame, tau)
        v_titj = max(v_titj, float(np.max(np.abs(r_titj - r_titj.T))))
        # R_{t j i k}: antisymmetric in the last pair (i, k) = axes (1, 2)
        v_tjik = max(v_tjik, float(np.max(np.abs(r_tjik + np.swapaxes(r_tjik, 1, 2)))))
        # R_{i k j l}, indexed [i, k, j, l]
        v_ik = max(v_ik, float(np.max(np.abs(r_ikjl + np.swapaxes(r_ikjl, 0, 1)))))
        v_jl = max(v_jl, float(np.max(np.abs(r_ikjl + np.swapaxes(r_ikjl, 2, 3)))))
        v_pair = max(v_pair, float(np.max(np.abs(r_ikjl - np.transpose(r_ikjl, (2, 3, 0, 1))))))
    return FrameValidation(
        violations={
            "titj_symmetric": v_titj,
            "tjik_antisymmetric": v_tjik,
            "ikjl_antisymmetric_first_pair": v_ik,
            "ikjl_antisymmetric_second_pair": v_jl,
            "ikjl_pair_exchange": v_pair,
        },
        tol=tol,
    )


def _check_validity(point: FramePoint, a, tensors) -> None:
    r = point.r
    if abs(float(a @ point.x)) > VALIDITY_BOUND:
        raise DomainError(f"|a.x| = {abs(a @ point.x):.3g} exceeds expansion bound")
    for t in tensors:
        scale = float(np.max(np.abs(t))) * r * r
        if scale > VALIDITY_BOUND:
            raise DomainError(f"|R| r^2 = {scale:.3g} exceeds expansion bound")


def metric_components(frame: FrameData, point: FramePoint) -> MetricComponents:
    """Second-order Fermi metric at a point; truncation error O(r^3) by construction."""
    a, r_titj, r_tjik, r_ikjl = _eval_tensors(frame, point.tau)
    _check_validity(point, a, (r_titj, r_tjik, r_ikjl))
    x = point.x
    g_tt = -((1.0 + a @ x) ** 2) - x @ r_titj @ x
    g_ti = -(2.0 / 3.0) * np.einsum("jik,j,k->i", r_tjik, x, x)
    g_ij = np.eye(3) - (1.0 / 3.0) * np.einsum("ikjl,k,l->ij", r_ikjl, x, x)
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (g_ij + g_ij.T))))
    if eigmin <= 0.0:
        raise GeometryError(
            f"spatial metric not positive definite at r={point.r:.3g} (min eigenvalue {eigmin:.3g})"
        )
    return MetricComponents(g_tt=float(g_tt), g_ti=g_ti, g_ij=g_ij)


def redshift_exact(metric: MetricComponents) -> float:
    """Redshift factor z = |g_tt - g^{ij} g_ti g_tj|^{1/2} from metric components."""
    try:
        sol = np.linalg.solve(metric.g_ij, metric.g_ti)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("singular spatial metric block") from exc
    return float(np.sqrt(abs(metric.g_tt - metric.g_ti @ sol)))


def redshift_weakfield(frame: FrameData, point: FramePoint) -> float:
    """Weak-field redshift expansion 1 + a.x + (1/2) R_{titj} x^i x^j."""
    a, r_titj, r_tjik, r_ikjl = _eval_tensors(frame, point.tau)
    _check_validity(point, a, (r_titj, r_tjik, r_ikjl))
    x = point.x
    return float(1.0 + a @ x + 0.5 * (x @ r_titj @ x))


def time_dilation(frame: FrameData, point: FramePoint, p, mass: float) -> float:
    """Non-relativistic time-dilation factor between the lab worldline and the system.

    Returns 1 - p^2/(2 mass^2) + a.x + (1/2) R_{titj} x^i x^j.  The point must
    lie inside the expansion's validity bound, as for metric_components; the
    condition |p|/mass << 1 is not enforced.
    """
    if mass <= 0:
        raise InputError(f"mass must be positive, got {mass}")
    p = np.asarray(p, dtype=float)
    if p.shape != (3,):
        raise InputError(f"momentum must be a 3-vector, got shape {p.shape}")
    a, r_titj, r_tjik, r_ikjl = _eval_tensors(frame, point.tau)
    _check_validity(point, a, (r_titj, r_tjik, r_ikjl))
    x = point.x
    return float(1.0 - (p @ p) / (2.0 * mass * mass) + a @ x + 0.5 * (x @ r_titj @ x))
