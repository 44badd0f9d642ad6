"""Volume-change energy density, with an optional cut-off.

The energy is (K/4)*(J^2 - 1 - log J) with J the determinant of the
deformation gradient.  Since -log J blows up as J -> 0+ while |F| stays
bounded, a cut-off eta > 0 freezes it at its J = eta value for J <= eta,
which restores the polynomial upper growth bound; eta = 0 is the raw form,
undefined for J <= 0.  The scalar-in-J form w_vol_eta_j and its slope are
what the assembly evaluates; w_vol and w_vol_gradient apply them to one
matrix F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meshing import cofactors


class InvertedElementError(ValueError):
    """An element has non-positive deformed volume and no cut-off is active."""


@dataclass(frozen=True)
class VolumetricParams:
    """Bulk-like modulus K and cut-off threshold eta (eta = 0: no cut-off)."""

    K: float = 1.0
    eta: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.K < np.inf:
            raise ValueError("bulk modulus K must be positive")
        if not (0.0 <= self.eta < 1.0):
            raise ValueError("cut-off eta must lie in [0, 1)")


def _clamped(J, params: VolumetricParams):
    """(J, s = max(J, eta)) as arrays; InvertedElementError for J <= 0 at eta = 0."""
    J = np.asarray(J, dtype=float)
    if params.eta == 0.0 and np.any(J <= 0.0):
        raise InvertedElementError("volume-change energy undefined for J <= 0 without cut-off")
    return J, np.maximum(J, params.eta)


def w_vol_eta_j(J, params: VolumetricParams):
    """Scalar form (K/4)*(s^2 - 1 - log s), s = max(J, eta): the raw density
    for J > eta, its seam value on the plateau J <= eta.  Total for all J
    when eta > 0; with eta = 0 it requires J > 0."""
    _, s = _clamped(J, params)
    out = 0.25 * params.K * (s * s - 1.0 - np.log(s))
    return out if out.ndim else float(out)


def w_vol_eta_dj(J, params: VolumetricParams):
    """dw/dJ of w_vol_eta_j: (K/4)*(2J - 1/J) for J > eta, zero on the
    plateau J <= eta, the seam included (one-sided derivative).  With
    eta = 0 it requires J > 0."""
    J, s = _clamped(J, params)
    out = np.where(J > params.eta, 0.25 * params.K * (2.0 * s - 1.0 / s), 0.0)
    return out if out.ndim else float(out)


def w_vol(F, params: VolumetricParams):
    """Volume-change energy density of a deformation gradient F, w_vol_eta_j(det F)."""
    return w_vol_eta_j(np.linalg.det(np.asarray(F, dtype=float)), params)


def w_vol_gradient(F, params: VolumetricParams):
    """dW/dF of the (cut-off) volumetric energy, w_vol_eta_dj(det F) cof(F):
    the zero matrix on the plateau det(F) <= eta (eta > 0)."""
    F = np.asarray(F, dtype=float)
    if F.shape not in ((2, 2), (3, 3)):
        raise ValueError("w_vol_gradient expects a 2x2 or 3x3 matrix")
    return w_vol_eta_dj(np.linalg.det(F), params) * np.array(cofactors(list(F.T))[0]).T
