"""Catalog of concrete Fermi-frame builders.

All builders return reentrant function bundles; for FRW frames the scale
factor is evaluated at cosmic time t = tau, since on the comoving worldline
cosmic time coincides with proper time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .frame import FrameData

_DELTA = np.eye(3)
# indexed [i, k, j, l]: d_ij d_kl - d_il d_kj realizes all Riemann pair symmetries
_PAIR = np.einsum("ij,kl->ikjl", _DELTA, _DELTA) - np.einsum("il,kj->ikjl", _DELTA, _DELTA)


@dataclass(frozen=True)
class ScaleFactor:
    """FRW scale factor a(t) with its first two cosmic-time derivatives."""

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]


def flat_frame() -> FrameData:
    """Inertial frame in flat spacetime: zero acceleration and curvature."""
    return FrameData(
        accel=lambda tau: np.zeros(3),
        riemann_titj=lambda tau: np.zeros((3, 3)),
        riemann_tjik=lambda tau: np.zeros((3, 3, 3)),
        riemann_ikjl=lambda tau: np.zeros((3, 3, 3, 3)),
    )


def uniform_gravity_frame(g: float) -> FrameData:
    """Uniformly accelerated frame equivalent to a homogeneous gravitational field.

    Acceleration (g, 0, 0), all curvature components zero.
    """
    a = np.array([g, 0.0, 0.0])
    return FrameData(
        accel=lambda tau: a,
        riemann_titj=lambda tau: np.zeros((3, 3)),
        riemann_tjik=lambda tau: np.zeros((3, 3, 3)),
        riemann_ikjl=lambda tau: np.zeros((3, 3, 3, 3)),
    )


def _checked(sf: ScaleFactor, t: float) -> float:
    a = sf.value(t)
    if a <= 0:
        raise InputError(f"scale factor must stay positive, got a({t}) = {a}")
    return a


def frw_frame(sf: ScaleFactor) -> FrameData:
    """Comoving frame of a spatially flat FRW universe.

    Curvature in the Fermi frame: R_{txtx} = R_{tyty} = R_{tztz} = -addot/a and
    R_{xyxy} = R_{xzxz} = R_{yzyz} = (adot/a)^2, with the remaining components
    generated by the Riemann symmetries.  The worldline is geodesic (zero
    acceleration).
    """

    def titj(tau: float) -> np.ndarray:
        a = _checked(sf, tau)
        return -(sf.d2(tau) / a) * _DELTA

    def ikjl(tau: float) -> np.ndarray:
        a = _checked(sf, tau)
        return (sf.d1(tau) / a) ** 2 * _PAIR

    return FrameData(
        accel=lambda tau: np.zeros(3),
        riemann_titj=titj,
        riemann_tjik=lambda tau: np.zeros((3, 3, 3)),
        riemann_ikjl=ikjl,
    )


def desitter_frame(hubble: float) -> FrameData:
    """Comoving frame of the de Sitter universe with Hubble parameter H.

    The frw_frame curvature of a(t) = e^(Ht), built as the constant tensors
    R_titj = -H^2 delta_ij and R_ikjl = H^2 (d_ij d_kl - d_il d_kj): forming
    addot/a from the scale factor rounds to different values at different tau.
    """
    if hubble <= 0:
        raise InputError(f"hubble must be positive, got {hubble}")
    h2 = hubble * hubble
    titj = -h2 * _DELTA
    ikjl = h2 * _PAIR
    return FrameData(
        accel=lambda tau: np.zeros(3),
        riemann_titj=lambda tau: titj.copy(),
        riemann_tjik=lambda tau: np.zeros((3, 3, 3)),
        riemann_ikjl=lambda tau: ikjl.copy(),
    )
