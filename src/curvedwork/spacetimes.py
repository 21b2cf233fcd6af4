"""Catalog of concrete Fermi-frame builders.

Each catalog frame's tensors are constant along its worldline, so each
builder returns a one-row frame table.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .frame import FrameData

_DELTA = np.eye(3)
# indexed [i, k, j, l]: d_ij d_kl - d_il d_kj realizes all Riemann pair symmetries
_PAIR = np.einsum("ij,kl->ikjl", _DELTA, _DELTA) - np.einsum("il,kj->ikjl", _DELTA, _DELTA)


def _one_row(accel=np.zeros(3), titj=np.zeros((3, 3)), ikjl=np.zeros((3, 3, 3, 3))):
    return FrameData(tau=[0.0], accel=[accel], riemann_titj=[titj],
                     riemann_tjik=np.zeros((1, 3, 3, 3)), riemann_ikjl=[ikjl])


def flat_frame() -> FrameData:
    """Inertial frame in flat spacetime: zero acceleration and curvature."""
    return _one_row()


def uniform_gravity_frame(g: float) -> FrameData:
    """Uniformly accelerated frame equivalent to a homogeneous gravitational field.

    Acceleration (g, 0, 0), all curvature components zero.
    """
    return _one_row(accel=[g, 0.0, 0.0])


def desitter_frame(hubble: float) -> FrameData:
    """Comoving frame of the de Sitter universe with Hubble parameter H.

    The FRW curvature of a(t) = e^(Ht) at cosmic time t = tau, built as the
    constant tensors R_titj = -H^2 delta_ij and R_ikjl = H^2 (d_ij d_kl - d_il d_kj):
    forming addot/a from the scale factor would round to different values at
    different tau.
    """
    if hubble <= 0:
        raise InputError(f"hubble must be positive, got {hubble}")
    h2 = hubble * hubble
    return _one_row(titj=-h2 * _DELTA, ikjl=h2 * _PAIR)
