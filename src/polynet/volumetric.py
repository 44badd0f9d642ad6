"""Volume-change energy density and its cut-off variant.

The energy is (K/4)*(J^2 - 1 - log J) with J the determinant of the
deformation gradient.  Since -log J blows up as J -> 0+ while |F| stays
bounded, a cut-off variant freezes the value to a constant for J <= eta,
which restores the polynomial upper growth bound.  The scalar-in-J form is
exposed alongside the matrix form; the scalar form is the oracle for the
matrix form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meshing import cofactors


class NonPositiveJacobianError(ValueError):
    """Raised when the raw volumetric energy is evaluated at det(F) <= 0."""


@dataclass(frozen=True)
class VolumetricParams:
    """Bulk-like modulus K and cut-off threshold eta (eta = 0: no cut-off)."""

    K: float = 1.0
    eta: float = 0.0

    def __post_init__(self):
        if not self.K > 0.0:
            raise ValueError("bulk modulus K must be positive")
        if not (0.0 <= self.eta < 1.0):
            raise ValueError("cut-off eta must lie in [0, 1)")


def w_vol_j(J, params: VolumetricParams):
    """Scalar form (K/4)*(J^2 - 1 - log J); requires J > 0."""
    J = np.asarray(J, dtype=float)
    if np.any(J <= 0.0):
        raise NonPositiveJacobianError("volume-change energy undefined for J <= 0")
    out = 0.25 * params.K * (J * J - 1.0 - np.log(J))
    return out if out.ndim else float(out)


def w_vol_eta_j(J, params: VolumetricParams):
    """Scalar cut-off form: w_vol_j for J > eta, constant otherwise.

    Total for all J when eta > 0; for eta = 0 this reduces to w_vol_j.
    """
    if params.eta == 0.0:
        return w_vol_j(J, params)
    J = np.asarray(J, dtype=float)
    eta = params.eta
    plateau = 0.25 * params.K * (eta * eta - 1.0 - math.log(eta))
    safe = np.where(J > eta, J, 1.0)
    out = np.where(
        J > eta,
        0.25 * params.K * (safe * safe - 1.0 - np.log(safe)),
        plateau,
    )
    return out if out.ndim else float(out)


def w_vol_eta_dj(J, params: VolumetricParams):
    """dw/dJ of w_vol_eta_j: (K/4)*(2J - 1/J) for J > eta, zero on the
    plateau J <= eta, the seam included (one-sided derivative).  With
    eta = 0 it requires J > 0."""
    J = np.asarray(J, dtype=float)
    if params.eta == 0.0 and np.any(J <= 0.0):
        raise NonPositiveJacobianError("volume-change energy undefined for J <= 0")
    active = J > params.eta
    safe = np.where(active, J, 1.0)
    out = np.where(active, 0.25 * params.K * (2.0 * safe - 1.0 / safe), 0.0)
    return out if out.ndim else float(out)


def w_vol(F, params: VolumetricParams):
    """Volume-change energy density of a deformation gradient F (no cut-off).

    Raises NonPositiveJacobianError for det(F) <= 0, which with eta = 0
    signals an inverted element.
    """
    J = float(np.linalg.det(np.asarray(F, dtype=float)))
    if J <= 0.0:
        raise NonPositiveJacobianError(
            f"det(F) = {J:g} <= 0: inverted configuration without cut-off"
        )
    return w_vol_j(J, params)


def w_vol_eta(F, params: VolumetricParams):
    """Cut-off volumetric energy; total for all F, including det(F) <= 0."""
    if not params.eta > 0.0:
        raise ValueError("w_vol_eta requires eta > 0; use w_vol for eta = 0")
    J = float(np.linalg.det(np.asarray(F, dtype=float)))
    return w_vol_eta_j(J, params)


def cofactor_matrix(F):
    """Cofactor matrix dJ/dF = J*F^{-T} in closed form for d in {2, 3}."""
    F = np.asarray(F, dtype=float)
    d = F.shape[0]
    if F.shape != (d, d) or d not in (2, 3):
        raise ValueError("cofactor_matrix expects a 2x2 or 3x3 matrix")
    return np.array(cofactors(list(F.T))[0]).T


def w_vol_gradient(F, params: VolumetricParams):
    """dW/dF of the (cut-off) volumetric energy, w_vol_eta_dj(det F) cof(F):
    the zero matrix on the plateau det(F) <= eta (eta > 0)."""
    J = float(np.linalg.det(np.asarray(F, dtype=float)))
    return w_vol_eta_dj(J, params) * cofactor_matrix(F)
