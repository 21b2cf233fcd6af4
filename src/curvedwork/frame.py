"""Fermi-normal-frame geometry around a laboratory worldline.

A frame is a table over proper time of the worldline's proper acceleration and
of the curvature components expressed in the orthonormal laboratory frame.
From these the second-order metric expansion, the redshift factor and the
non-relativistic time-dilation factor are evaluated at points near the
worldline.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if np.any(self.tau[1:] <= self.tau[:-1]):  # no difference, which may overflow
            raise InputError("frame table taus must be strictly increasing")

    def at(self, tau):
        """(accel, R_titj, R_tjik, R_ikjl) at proper time tau, a scalar or an array, by
        np.interp's formula: read-only tensors, each with tau's shape in front."""
        tau = np.asarray(tau, dtype=float)
        if np.isnan(tau).any():
            raise InputError("frame evaluated at tau = nan")
        table = np.hstack([getattr(self, key).reshape(self.tau.size, -1) for key in ROW_SHAPES])
        j = np.maximum(np.searchsorted(self.tau, tau, side="right") - 1, 0)
        k = np.minimum(j + 1, self.tau.size - 1)
        lo, hi, t, below = self.tau[j][..., None], self.tau[k][..., None], tau[..., None], table[j]
        rows = np.take(table, k, axis=0)  # a copy, so the lerp runs in place on N x 120 floats
        with np.errstate(all="ignore"):  # the lerp is dropped outside the rows and at a row
            rows -= below
            rows /= hi - lo
            rows *= t - lo
            rows += below
        np.copyto(rows, below, where=(t <= lo) | (hi <= t))
        rows.flags.writeable = False
        sizes = np.cumsum([np.prod(shape) for shape in ROW_SHAPES.values()])[:-1]
        return tuple(part.reshape(tau.shape + shape) for part, shape
                     in zip(np.split(rows, sizes, axis=-1), ROW_SHAPES.values()))


@dataclass(frozen=True)
class FramePoint:
    """A point (tau, x) in Fermi normal coordinates, or a stack: x has tau's shape + (3,)."""

    tau: float | np.ndarray
    x: Vector

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != np.shape(self.tau) + (3,):
            raise InputError(f"point must be a 3-vector per tau, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise InputError(f"non-finite point coordinates {x}")
        object.__setattr__(self, "x", x)

    @property
    def r(self) -> float | np.ndarray:
        with np.errstate(over="ignore"):  # a radius past the float range is inf
            return np.hypot.reduce(self.x, axis=-1)


@dataclass(frozen=True)
class MetricComponents:
    """Second-order metric at a frame point: scalar g_tt, vector g_ti, 3x3 g_ij."""

    g_tt: float
    g_ti: Vector
    g_ij: np.ndarray


def validate_frame(frame: FrameData) -> dict:
    """Maximum violation of each Riemann index symmetry of frame data over its rows.

    Each defect is linear in the entries, so it is largest at a row.
    """
    r_titj, r_tjik, r_ikjl = frame.riemann_titj, frame.riemann_tjik, frame.riemann_ikjl
    with np.errstate(over="ignore"):  # a defect past the float range is inf, a violation
        defects = {
            "titj_symmetric": r_titj - np.swapaxes(r_titj, 1, 2),
            # R_{t j i k}: antisymmetric in the last pair (i, k)
            "tjik_antisymmetric": r_tjik + np.swapaxes(r_tjik, 2, 3),
            # R_{i k j l}, indexed [i, k, j, l]
            "ikjl_antisymmetric_first_pair": r_ikjl + np.swapaxes(r_ikjl, 1, 2),
            "ikjl_antisymmetric_second_pair": r_ikjl + np.swapaxes(r_ikjl, 3, 4),
            "ikjl_pair_exchange": r_ikjl - np.transpose(r_ikjl, (0, 3, 4, 1, 2)),
        }
    return {k: float(np.max(np.abs(d))) for k, d in defects.items()}


def _check_validity(frame: FrameData, point: FramePoint) -> tuple:
    """frame.at(point.tau), once |a.x| and then max|R| r^2 stay within VALIDITY_BOUND."""
    a, *tensors = at = frame.at(point.tau)
    r = point.r
    with np.errstate(over="ignore", invalid="ignore"):  # r^2 may be inf, and 0 * inf NaN
        ax = np.abs(a[..., None, :] @ point.x[..., :, None])[..., 0, 0]
        scale = np.max([np.abs(t).reshape(r.shape + (-1,)).max(-1) for t in tensors], 0) * (r * r)
    if not np.max(ax) <= VALIDITY_BOUND:
        raise DomainError(f"|a.x| = {np.max(ax):.3g} exceeds expansion bound")
    if not np.max(scale) <= VALIDITY_BOUND:  # a NaN is the max, and argmax finds the first
        raise DomainError(f"|R| r^2 = {np.max(scale):.3g} at r = {r.flat[np.argmax(scale)]:.3g} "
                          "exceeds expansion bound")
    return at


def check_straight_line(frame: FrameData, duration: float, x_end) -> None:
    """_check_validity on the worst points of x(tau) = (tau / duration) x_end, tau in [0, T].

    Between knots (0, T and the rows between) a.x_end and each R entry are c0 + c1 tau, so
    |a.x| and each |R entry| r^2 are (tau/T)^k |c0 + c1 tau| times a constant, k = 1 and 2:
    each is largest at a knot or at tau* = -k c0 / ((k + 1) c1), where its derivative is 0.
    """
    x_end = np.asarray(x_end, dtype=float)
    t = np.concatenate(([0.0], frame.tau[(frame.tau > 0) & (frame.tau < duration)], [duration]))
    a, *tensors = frame.at(t)
    t, worst = t[:, None], np.empty(2)
    with np.errstate(all="ignore"):  # tau* of c1 = 0 is dropped; inf or NaN is the worst
        for k, v in ((1, a @ x_end[:, None]),
                     (2, np.hstack([r.reshape(len(t), -1) for r in tensors]))):
            c1 = np.diff(v, axis=0) / np.diff(t, axis=0)
            c0 = v[:-1] - c1 * t[:-1]
            star = -k * c0 / ((k + 1) * c1)
            taus = np.stack([np.broadcast_to(t[1:], c1.shape),
                             np.where((t[:-1] < star) & (star < t[1:]), star, t[1:])])
            worst[k - 1] = taus.flat[np.argmax(np.abs(c0 + c1 * taus) * (taus / duration) ** k)]
    _check_validity(frame, FramePoint(worst, worst[:, None] / duration * x_end))


def metric_components(frame: FrameData, point: FramePoint) -> MetricComponents:
    """Second-order Fermi metric at a point; truncation error O(r^3) by construction."""
    a, r_titj, r_tjik, r_ikjl = _check_validity(frame, point)
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
    a, r_titj, _, _ = _check_validity(frame, point)
    x = point.x
    return float(1.0 + a @ x + 0.5 * (x @ r_titj @ x))


def time_dilation(frame: FrameData, point: FramePoint, p, mass: float) -> float | np.ndarray:
    """Non-relativistic time-dilation factor between the lab worldline and the system.

    Returns 1 - p^2/(2 mass^2) + a.x + (1/2) R_{titj} x^i x^j: a float, or an array over a
    stack of points and momenta, equal to the per-point calls.  The points must lie inside
    the expansion's validity bound, as for metric_components; |p|/mass << 1 is not enforced.
    """
    if not 0 < mass < np.inf:
        raise InputError(f"mass must be a finite positive number, got {mass}")
    p = np.asarray(p, dtype=float)
    if p.shape != point.x.shape or not np.all(np.isfinite(p)):
        raise InputError(f"momentum must be a finite 3-vector per point, got {p}")
    a, r_titj, _, _ = _check_validity(frame, point)
    x, p = point.x[..., :, None], p[..., :, None]
    z = (1.0 - (p.swapaxes(-1, -2) @ p) / (2.0 * mass * mass) + a[..., None, :] @ x
         + 0.5 * (x.swapaxes(-1, -2) @ r_titj @ x))[..., 0, 0]
    return float(z) if z.ndim == 0 else z
