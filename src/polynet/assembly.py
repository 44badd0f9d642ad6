"""Discrete network energy and its gradient with respect to nodal positions.

The total energy sums, per element, the pair potential over every distinct
vertex pair of the element (an edge shared by k elements is counted k
times, as the model prescribes), weighted either by h^dim or by the element
volume, plus the exact per-element volumetric contribution of the
piecewise-affine deformation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .chains import PairPotential
from .meshing import Mesh
from .volumetric import VolumetricParams, w_vol_eta_j

UNIFORM_WEIGHTS = "uniform-h"
VOLUME_WEIGHTS = "element-volume"


class InvertedElementError(ValueError):
    """An element has non-positive deformed volume and no cut-off is active."""


class CoincidentVerticesError(ValueError):
    """Two deformed vertices of a pair coincide; the stretch direction is undefined."""


class FullyConstrainedError(ValueError):
    """A boundary condition pins every degree of freedom."""


@dataclass(frozen=True)
class EnergyModel:
    """Pair potential, chains-per-volume factor f, optional volumetric term,
    and the element weighting convention for the pair sum."""

    pair: PairPotential
    f: float = 1.0
    vol: VolumetricParams | None = None
    weight_mode: str = UNIFORM_WEIGHTS

    def __post_init__(self):
        if not self.f > 0.0:
            raise ValueError("chains-per-volume factor f must be positive")
        if self.weight_mode not in (UNIFORM_WEIGHTS, VOLUME_WEIGHTS):
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")


@dataclass(frozen=True)
class BoundaryCondition:
    """Displacement boundary data.

    affine-layer pins every vertex within `depth` of the unit-box boundary to
    xi @ x; dirichlet-face-free-traction pins only vertices on the named box
    faces ("x-", "x+", "y-", ...) to xi @ x, leaving the rest traction-free.
    """

    kind: str
    xi: np.ndarray
    depth: float | None = None
    faces: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        if not np.all(np.isfinite(self.xi)):
            raise ValueError("macroscopic gradient must be finite")
        if self.kind == "affine-layer":
            if self.depth is None or self.depth < 0.0:
                raise ValueError("affine-layer needs a nonnegative depth")
        elif self.kind == "dirichlet-face-free-traction":
            if not self.faces:
                raise ValueError("dirichlet-face-free-traction needs face names")
        else:
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")


def _pair_data(mesh: Mesh):
    """Per-mesh geometry cache: pair and unique-edge index arrays, the
    pair->edge map, edge rest lengths, element matrices for the deformation
    gradient."""
    cache = mesh._cache
    if "pairs" in cache:
        return cache["pairs"]
    dim = mesh.dim
    combos = list(itertools.combinations(range(dim + 1), 2))
    elements = mesh.elements
    ij = np.concatenate(
        [elements[:, a] for a, _ in combos] + [elements[:, b] for _, b in combos]
    )
    i_idx, j_idx = np.split(ij, 2)
    # a pair and its reversed copy have bitwise equal lengths, so every
    # per-pair quantity of the stretch is evaluated once per unique edge
    n = mesh.num_vertices
    edge_keys, pair_edge = np.unique(
        np.minimum(i_idx, j_idx) * n + np.maximum(i_idx, j_idx), return_inverse=True
    )
    edge_i, edge_j = edge_keys // n, edge_keys % n
    rest = np.linalg.norm(mesh.vertices[edge_i] - mesh.vertices[edge_j], axis=1)
    if np.any(rest == 0.0):
        raise ValueError("mesh contains zero-length reference edges")
    p = mesh.vertices[elements]
    xmat = np.swapaxes(p[:, 1:, :] - p[:, :1, :], 1, 2)  # columns x_k - x_0
    det_x = np.linalg.det(xmat)
    data = {
        "n_pairs": len(combos),
        "i": i_idx,
        "j": j_idx,
        "ij": ij,
        "edge_i": edge_i,
        "edge_j": edge_j,
        "pair_edge": pair_edge,
        "rest": rest,
        "xinv": np.linalg.inv(xmat),
        "det_x": det_x,
        "volumes": mesh.element_volumes(),
    }
    cache["pairs"] = data
    return data


def _element_weights(mesh: Mesh, model: EnergyModel) -> np.ndarray:
    if model.weight_mode == UNIFORM_WEIGHTS:
        # h^dim = 1/N_el exactly, by the definition of the mesh scale
        return np.full(mesh.num_elements, 1.0 / mesh.num_elements)
    return _pair_data(mesh)["volumes"]


def _edge_matrices(mesh: Mesh, positions: np.ndarray) -> np.ndarray:
    """Deformed element matrices, columns q_k - q_0."""
    q = positions[mesh.elements]
    return np.swapaxes(q[:, 1:, :] - q[:, :1, :], 1, 2)


def _point_state(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> dict:
    """Per-edge lengths and stretches and per-element Jacobians at one point.

    The line search evaluates energy and gradient at the same positions, so
    the last state is kept on the mesh and reused while positions (compared
    bit for bit) and model are unchanged; the energies and the gradient are
    added to it on first use.
    """
    key = (positions.shape, positions.tobytes(), model)
    state = mesh._cache.get("state")
    if state is not None and state["key"] == key:
        return state
    data = _pair_data(mesh)
    dist = np.linalg.norm(positions[data["edge_i"]] - positions[data["edge_j"]], axis=1)
    state = {"key": key, "dist": dist, "stretch": dist / data["rest"]}
    if model.vol is not None:
        state["jac"] = np.linalg.det(_edge_matrices(mesh, positions)) / data["det_x"]
    mesh._cache["state"] = state
    return state


def _check_not_inverted(state: dict, vol: VolumetricParams) -> None:
    jac = state["jac"]
    if vol.eta == 0.0 and np.any(jac <= 0.0):
        bad = int(np.flatnonzero(jac <= 0.0)[0])
        raise InvertedElementError(
            f"element {bad} is inverted (det = {jac[bad]:g}) and no cut-off is active"
        )


def _element_energies(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    state = _point_state(mesh, positions, model)
    if model.vol is not None:
        _check_not_inverted(state, model.vol)
    if "energies" not in state:
        data = _pair_data(mesh)
        edge_w = np.asarray(model.pair.energy(state["stretch"]), dtype=float)
        pair_w = edge_w[data["pair_edge"]]
        per_elem = model.f * pair_w.reshape(data["n_pairs"], mesh.num_elements).sum(axis=0)
        energies = _element_weights(mesh, model) * per_elem
        if model.vol is not None:
            energies = energies + data["volumes"] * w_vol_eta_j(state["jac"], model.vol)
        state["energies"] = energies
    return state["energies"]


def element_energies(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> np.ndarray:
    """Per-element energies; their sum is the total energy."""
    return _element_energies(mesh, positions, model).copy()


def total_energy(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> float:
    """Total network energy of the deformed positions."""
    return float(_element_energies(mesh, positions, model).sum())


def energy_gradient(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> np.ndarray:
    """Exact analytic gradient of total_energy, one d-vector per vertex."""
    positions = np.asarray(positions, dtype=float)
    state = _point_state(mesh, positions, model)
    if np.any(state["dist"] == 0.0):
        raise CoincidentVerticesError(
            "coincident deformed vertices: stretch-ratio derivative undefined"
        )
    if model.vol is not None:
        _check_not_inverted(state, model.vol)
    if "grad" not in state:
        state["grad"] = _gradient(mesh, positions, model, state)
    return state["grad"].copy()


def _gradient(mesh: Mesh, positions: np.ndarray, model: EnergyModel, state: dict):
    """Scatter every pair and volumetric term into the vertices with one
    bincount per component.  bincount adds its weights one at a time in
    index order, so the terms keep the order of sequential np.add.at calls:
    pairs at i, pairs at j, then the volumetric moments at vertices 1..d and
    at vertex 0 of each active element."""
    data = _pair_data(mesh)
    pair_edge = data["pair_edge"]
    dW = np.asarray(model.pair.derivative(state["stretch"]), dtype=float)[pair_edge]
    weights = np.tile(_element_weights(mesh, model), data["n_pairs"])
    coef = weights * model.f * dW / (data["rest"] * state["dist"])[pair_edge]

    index = data["ij"]
    moment = None
    if model.vol is not None:
        vol = model.vol
        jac = state["jac"]
        active = jac > vol.eta if vol.eta > 0.0 else np.ones_like(jac, dtype=bool)
        if np.any(active):
            xinv = data["xinv"][active]
            f_def = _edge_matrices(mesh, positions)[active] @ xinv
            cof = _cofactor_batch(f_def)
            scale = 0.25 * vol.K * (2.0 * jac[active] - 1.0 / jac[active])
            g_vol = scale[:, None, None] * cof
            moment = (
                data["volumes"][active, None, None] * g_vol @ np.swapaxes(xinv, 1, 2)
            )
            moment_sum = moment.sum(axis=2)
            els = mesh.elements[active]
            index = np.concatenate([index, *els[:, 1:].T, els[:, 0]])

    grad = np.empty_like(positions)
    for c in range(mesh.dim):
        col = positions[:, c]
        contrib = coef * (col[data["i"]] - col[data["j"]])
        values = [contrib, -contrib]
        if moment is not None:
            values += [*moment[:, c, :].T, -moment_sum[:, c]]
        grad[:, c] = np.bincount(index, np.concatenate(values), minlength=mesh.num_vertices)
    return grad


def edge_stiffness_laplacian(mesh: Mesh, positions: np.ndarray, model: EnergyModel):
    """Scalar graph Laplacian of the unique edges, n x n sparse CSC.

    Edge weight (summed element weight) * f * W''(r_e) / rest_e^2, with W''
    a central difference of the pair derivative at the given positions,
    clipped below at 1e-8 of its maximum.  The volumetric term is left out.
    Applied to each component, it is the exact Hessian for quadratic springs.
    """
    data = _pair_data(mesh)
    edge_i, edge_j, rest = data["edge_i"], data["edge_j"], data["rest"]
    positions = np.asarray(positions, dtype=float)
    stretch = np.linalg.norm(positions[edge_i] - positions[edge_j], axis=1) / rest
    step = 1e-6
    d2w = (
        np.asarray(model.pair.derivative(stretch + step), dtype=float)
        - np.asarray(model.pair.derivative(stretch - step), dtype=float)
    ) / (2.0 * step)
    d2w = np.maximum(d2w, 1e-8 * d2w.max())
    summed = np.bincount(
        data["pair_edge"], np.tile(_element_weights(mesh, model), data["n_pairs"]),
        minlength=rest.size,
    )
    w = summed * model.f * d2w / rest**2
    rows = np.concatenate([edge_i, edge_j, edge_i, edge_j])
    cols = np.concatenate([edge_j, edge_i, edge_i, edge_j])
    n = mesh.num_vertices
    return coo_matrix((np.concatenate([-w, -w, w, w]), (rows, cols)), shape=(n, n)).tocsc()


def _cofactor_batch(f: np.ndarray) -> np.ndarray:
    d = f.shape[-1]
    if d == 2:
        cof = np.empty_like(f)
        cof[:, 0, 0] = f[:, 1, 1]
        cof[:, 0, 1] = -f[:, 1, 0]
        cof[:, 1, 0] = -f[:, 0, 1]
        cof[:, 1, 1] = f[:, 0, 0]
        return cof
    cof = np.empty_like(f)
    cof[:, :, 0] = np.cross(f[:, :, 1], f[:, :, 2])
    cof[:, :, 1] = np.cross(f[:, :, 2], f[:, :, 0])
    cof[:, :, 2] = np.cross(f[:, :, 0], f[:, :, 1])
    return cof


_FACE_AXES = {"x": 0, "y": 1, "z": 2}
FACE_TOL = 1e-12  # distance within which a vertex lies on a named box face


def apply_bc(mesh: Mesh, bc: BoundaryCondition):
    """Resolve a boundary condition into (fixed mask, fixed target positions).

    Raises FullyConstrainedError when nothing is left to minimize.
    """
    if bc.xi.shape != (mesh.dim, mesh.dim):
        raise ValueError("macroscopic gradient does not match the mesh dimension")
    targets = mesh.vertices @ bc.xi.T
    if bc.kind == "affine-layer":
        mask = mesh.boundary_flags <= bc.depth
    else:
        mask = np.zeros(mesh.num_vertices, dtype=bool)
        for face in bc.faces:
            axis_name, side = face[0], face[1:]
            if axis_name not in _FACE_AXES or side not in ("-", "+"):
                raise ValueError(f"unknown face name {face!r}")
            axis = _FACE_AXES[axis_name]
            if axis >= mesh.dim:
                raise ValueError(f"face {face!r} out of range for dim {mesh.dim}")
            value = 0.0 if side == "-" else 1.0
            mask |= np.abs(mesh.vertices[:, axis] - value) <= FACE_TOL
    if mask.all():
        raise FullyConstrainedError("boundary condition pins every vertex")
    values = np.where(mask[:, None], targets, 0.0)
    return mask, values


def affine_positions(mesh: Mesh, xi: np.ndarray) -> np.ndarray:
    """Positions of the homogeneous deformation x -> xi @ x."""
    xi = np.asarray(xi, dtype=float)
    return mesh.vertices @ xi.T
