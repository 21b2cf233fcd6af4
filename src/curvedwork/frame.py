"""Fermi-normal-frame geometry around a laboratory worldline.

A frame is a table over proper time of the worldline's proper acceleration and
of the curvature components expressed in the orthonormal laboratory frame.
From these the second-order metric expansion, the redshift factor and the
non-relativistic time-dilation factor are evaluated at points near the
worldline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GeometryError, InputError

# Expansion-control bound: both |a.x| and max|R| r^2 stay below this, keeping the
# O(r^3) truncation honest.
VALIDITY_BOUND = 0.1

# The shape of one row of each tensor table
ROW_SHAPES = {"accel": (3,), "riemann_titj": (3, 3), "riemann_tjik": (3, 3, 3),
              "riemann_ikjl": (3, 3, 3, 3)}

Vector = np.ndarray


@dataclass(frozen=True)
class FrameData:
    """Worldline data in the Fermi frame, one row per proper time.

    tau (n,) strictly increasing proper times.
    accel (n, 3) proper acceleration a_i.
    riemann_titj (n, 3, 3) components R_{t i t j}, symmetric in (i, j).
    riemann_tjik (n, 3, 3, 3) components R_{t j i k}, indexed [j, i, k],
        antisymmetric in (i, k).
    riemann_ikjl (n, 3, 3, 3, 3) spatial components R_{i k j l}, indexed
        [i, k, j, l], with the full Riemann pair symmetries.

    Each entry is linear in tau between rows and held at the nearest row
    outside them, as np.interp does, so a constant frame is one row.  The
    fields are stored as read-only float copies.
    """

    tau: np.ndarray
    accel: np.ndarray
    riemann_titj: np.ndarray
    riemann_tjik: np.ndarray
    riemann_ikjl: np.ndarray

    def __post_init__(self):
        for name, shape in (("tau", ()), *ROW_SHAPES.items()):
            try:
                arr = np.array(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:
                raise InputError(f"frame {name} is not an array of numbers") from exc
            rows = arr.size if name == "tau" else self.tau.size
            if rows == 0:
                raise InputError("frame tables are empty")
            if arr.shape != (rows, *shape):
                raise InputError(f"frame {name} has shape {arr.shape}, not {(rows, *shape)}")
            if not np.all(np.isfinite(arr)):
                raise InputError(f"non-finite frame {name} entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(np.diff(self.tau) <= 0):
            raise InputError("frame table taus must be strictly increasing")

    def at(self, tau: float):
        """(accel, R_titj, R_tjik, R_ikjl) at proper time tau, by np.interp's formula."""
        tau = float(tau)
        if math.isnan(tau):
            raise InputError("frame evaluated at tau = nan")
        taus, rows = self.tau, (self.accel, self.riemann_titj, self.riemann_tjik,
                                self.riemann_ikjl)
        j = int(np.searchsorted(taus, tau, side="right")) - 1
        if j < 0 or j >= taus.size - 1 or taus[j] == tau:
            return tuple(r[max(j, 0)] for r in rows)
        return tuple((r[j + 1] - r[j]) / (taus[j + 1] - taus[j]) * (tau - taus[j]) + r[j]
                     for r in rows)


@dataclass(frozen=True)
class FramePoint:
    """A point (tau, x) in Fermi normal coordinates."""

    tau: float
    x: Vector

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (3,):
            raise InputError(f"point must be a 3-vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InputError(f"non-finite point coordinates {x}")
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
    """Per-invariant maximum symmetry violations over a frame's rows."""

    violations: dict = field(default_factory=dict)
    tol: float = 1e-12

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.violations.values())


def validate_frame(frame: FrameData, tol: float = 1e-12) -> FrameValidation:
    """Check the Riemann index symmetries of user-supplied frame data.

    Returns the maximum violation magnitude per invariant over all rows; each
    defect is linear in the entries, so it is largest at a row.
    """
    r_titj, r_tjik, r_ikjl = frame.riemann_titj, frame.riemann_tjik, frame.riemann_ikjl
    defects = {
        "titj_symmetric": r_titj - np.swapaxes(r_titj, 1, 2),
        # R_{t j i k}: antisymmetric in the last pair (i, k)
        "tjik_antisymmetric": r_tjik + np.swapaxes(r_tjik, 2, 3),
        # R_{i k j l}, indexed [i, k, j, l]
        "ikjl_antisymmetric_first_pair": r_ikjl + np.swapaxes(r_ikjl, 1, 2),
        "ikjl_antisymmetric_second_pair": r_ikjl + np.swapaxes(r_ikjl, 3, 4),
        "ikjl_pair_exchange": r_ikjl - np.transpose(r_ikjl, (0, 3, 4, 1, 2)),
    }
    return FrameValidation(
        violations={k: float(np.max(np.abs(d))) for k, d in defects.items()}, tol=tol)


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
    a, r_titj, r_tjik, r_ikjl = frame.at(point.tau)
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
    a, r_titj, r_tjik, r_ikjl = frame.at(point.tau)
    _check_validity(point, a, (r_titj, r_tjik, r_ikjl))
    x = point.x
    return float(1.0 + a @ x + 0.5 * (x @ r_titj @ x))


def time_dilation(frame: FrameData, point: FramePoint, p, mass: float) -> float:
    """Non-relativistic time-dilation factor between the lab worldline and the system.

    Returns 1 - p^2/(2 mass^2) + a.x + (1/2) R_{titj} x^i x^j.  The point must
    lie inside the expansion's validity bound, as for metric_components; the
    condition |p|/mass << 1 is not enforced.
    """
    if not (math.isfinite(mass) and mass > 0):
        raise InputError(f"mass must be a finite positive number, got {mass}")
    p = np.asarray(p, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise InputError(f"momentum must be a finite 3-vector, got {p}")
    a, r_titj, r_tjik, r_ikjl = frame.at(point.tau)
    _check_validity(point, a, (r_titj, r_tjik, r_ikjl))
    x = point.x
    return float(1.0 - (p @ p) / (2.0 * mass * mass) + a @ x + 0.5 * (x @ r_titj @ x))
