"""Discrete network energy and its gradient with respect to nodal positions.

The total energy sums, per element, the pair potential over every distinct
vertex pair of the element (an edge shared by k elements is counted k
times, as the model prescribes), weighted either by h^dim or by the element
volume, plus the exact per-element volumetric contribution of the
piecewise-affine deformation.  It is evaluated in one pass over the unique
edges, each with the summed weight of its elements, and one over the
elements, with closed-form determinants and cofactors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix

from .chains import PairPotential
from .meshing import Mesh, cofactors, edge_columns
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


def _geometry(mesh: Mesh) -> dict:
    """Per-mesh cache: unique edges with their rest lengths, the element ->
    edge map, the bincount index of every gradient term, the reference
    determinants, and the edge weights summed per weight mode."""
    cache = mesh._cache
    if "geometry" in cache:
        return cache["geometry"]
    corners = mesh.elements.T
    combos = list(itertools.combinations(range(mesh.dim + 1), 2))
    a = np.concatenate([corners[p] for p, _ in combos])
    b = np.concatenate([corners[q] for _, q in combos])
    n = mesh.num_vertices
    edge_keys, elem_edge = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                                     return_inverse=True)
    edge_i, edge_j = edge_keys // n, edge_keys % n
    rest = np.linalg.norm(mesh.vertices[edge_i] - mesh.vertices[edge_j], axis=1)
    if np.any(rest == 0.0):
        raise ValueError("mesh contains zero-length reference edges")
    geometry = {
        "edge_i": edge_i, "edge_j": edge_j, "rest": rest,
        "elem_edge": elem_edge.reshape(len(combos), mesh.num_elements),
        # pair terms at i and at j, then volumetric moments at corners 1..d and 0
        "index": np.concatenate([edge_i, edge_j, *corners[1:], corners[0]]),
        "det_x": math.factorial(mesh.dim) * mesh.element_volumes(),
        "edge_weights": {},
    }
    cache["geometry"] = geometry
    return geometry


def _element_weights(mesh: Mesh, model: EnergyModel) -> np.ndarray:
    if model.weight_mode == UNIFORM_WEIGHTS:
        # h^dim = 1/N_el of the mesh h was defined on; rounding recovers that
        # count exactly, so a sub-mesh keeps its parent's weight
        return np.full(mesh.num_elements, 1.0 / round(mesh.h ** -mesh.dim))
    return mesh.element_volumes()


def _edge_weights(mesh: Mesh, model: EnergyModel) -> np.ndarray:
    """Weights of the elements that share each unique edge, summed."""
    geometry = _geometry(mesh)
    summed = geometry["edge_weights"]
    if model.weight_mode not in summed:
        elem_edge = geometry["elem_edge"]
        summed[model.weight_mode] = np.bincount(
            elem_edge.ravel(), np.tile(_element_weights(mesh, model), elem_edge.shape[0]),
            minlength=geometry["rest"].size,
        )
    return summed[model.weight_mode]


def _point_state(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> dict:
    """Per-edge differences, lengths and stretches and, with a volumetric
    term, per-element Jacobians and cofactors of the deformed edge matrix.

    The line search evaluates energy and gradient at the same positions, so
    the last state is kept on the mesh and reused while positions (compared
    bit for bit) and model are unchanged; the energies and the gradient are
    added to it on first use.
    """
    key = (positions.shape, positions.tobytes(), model)
    state = mesh._cache.get("state")
    if state is not None and state["key"] == key:
        return state
    geometry = _geometry(mesh)
    delta = [x[geometry["edge_i"]] - x[geometry["edge_j"]] for x in positions.T]
    dist = np.sqrt(sum(d * d for d in delta))
    state = {"key": key, "delta": delta, "dist": dist, "stretch": dist / geometry["rest"]}
    if model.vol is not None:
        state["cof"], det = cofactors(edge_columns(positions, mesh.elements))
        state["jac"] = det / geometry["det_x"]
    mesh._cache["state"] = state
    return state


def _check_not_inverted(mesh: Mesh, state: dict, vol: VolumetricParams) -> None:
    jac = state["jac"]
    if vol.eta == 0.0 and np.any(jac <= 0.0):
        bad = int(np.flatnonzero(jac <= 0.0)[0])
        raise InvertedElementError(
            f"element with vertices {mesh.elements[bad].tolist()} is inverted "
            f"(det = {jac[bad]:g}) and no cut-off is active"
        )


def _check_not_coincident(state: dict) -> None:
    if np.any(state["dist"] == 0.0):
        raise CoincidentVerticesError(
            "coincident deformed vertices: stretch-ratio derivative undefined"
        )


def _energy_state(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> dict:
    """The point state with per-edge pair energies and per-element
    volumetric energies added."""
    state = _point_state(mesh, np.asarray(positions, dtype=float), model)
    if model.vol is not None:
        _check_not_inverted(mesh, state, model.vol)
    if "pair" not in state:
        state["pair"] = np.asarray(model.pair.energy(state["stretch"]), dtype=float)
        state["vol"] = (0.0 if model.vol is None else
                        mesh.element_volumes() * w_vol_eta_j(state["jac"], model.vol))
    return state


def element_energies(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> np.ndarray:
    """Per-element energies; their sum is the total energy."""
    state = _energy_state(mesh, positions, model)
    per_elem = state["pair"][_geometry(mesh)["elem_edge"]].sum(axis=0)
    return _element_weights(mesh, model) * model.f * per_elem + state["vol"]


def total_energy(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> float:
    """Total network energy of the deformed positions."""
    state = _energy_state(mesh, positions, model)
    pair = model.f * float(_edge_weights(mesh, model) @ state["pair"])
    return pair + float(np.sum(state["vol"]))


def energy_gradient(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> np.ndarray:
    """Exact analytic gradient of total_energy, one d-vector per vertex."""
    state = _point_state(mesh, np.asarray(positions, dtype=float), model)
    _check_not_coincident(state)
    if model.vol is not None:
        _check_not_inverted(mesh, state, model.vol)
    if "grad" not in state:
        state["grad"] = _gradient(mesh, model, state)
    return state["grad"].copy()


def _gradient(mesh: Mesh, model: EnergyModel, state: dict) -> np.ndarray:
    """One term per unique edge at each endpoint and, with a volumetric term,
    the moment w'(J) cof(Q) / d! of every element at its corners, Q the
    deformed edge matrix; one bincount per component."""
    geometry = _geometry(mesh)
    dW = np.asarray(model.pair.derivative(state["stretch"]), dtype=float)
    coef = model.f * _edge_weights(mesh, model) * dW / (geometry["rest"] * state["dist"])
    moments = []
    if model.vol is not None:
        vol, jac = model.vol, state["jac"]
        active = jac > vol.eta  # all elements at eta = 0, inverted ones raised
        safe = np.where(active, jac, 1.0)
        scale = np.where(active, 0.25 * vol.K * (2.0 * safe - 1.0 / safe), 0.0)
        scale /= math.factorial(mesh.dim)
        moments = [[scale * c for c in column] for column in state["cof"]]
    index = geometry["index"] if moments else geometry["index"][: 2 * coef.size]
    grad = np.empty((mesh.num_vertices, mesh.dim))
    for c in range(mesh.dim):
        term = coef * state["delta"][c]
        values = [term, -term]
        if moments:
            values += [m[c] for m in moments] + [-sum(m[c] for m in moments)]
        grad[:, c] = np.bincount(index, np.concatenate(values), minlength=mesh.num_vertices)
    return grad


def edge_stiffness_laplacian(mesh: Mesh, positions: np.ndarray, model: EnergyModel):
    """Scalar graph Laplacian of the unique edges, n x n sparse CSC.

    Edge weight (summed element weight) * f * W''(r_e) / rest_e^2, with W''
    a central difference of the pair derivative at the given positions,
    clipped below at 1e-8 of its maximum.  The volumetric term is left out.
    Applied to each component, it is the exact Hessian for quadratic springs.
    """
    geometry = _geometry(mesh)
    edge_i, edge_j, rest = geometry["edge_i"], geometry["edge_j"], geometry["rest"]
    # the state minimize has just evaluated, so it is usually cached
    stretch = _point_state(mesh, np.asarray(positions, dtype=float), model)["stretch"]
    step = 1e-6
    d2w = (
        np.asarray(model.pair.derivative(stretch + step), dtype=float)
        - np.asarray(model.pair.derivative(stretch - step), dtype=float)
    ) / (2.0 * step)
    d2w = np.maximum(d2w, 1e-8 * d2w.max())
    w = _edge_weights(mesh, model) * model.f * d2w / rest**2
    rows = np.concatenate([edge_i, edge_j, edge_i, edge_j])
    cols = np.concatenate([edge_j, edge_i, edge_i, edge_j])
    n = mesh.num_vertices
    return coo_matrix((np.concatenate([-w, -w, w, w]), (rows, cols)), shape=(n, n)).tocsc()


def _submesh(mesh: Mesh, keep: np.ndarray) -> Mesh:
    """The elements `keep` of mesh, with its vertices, scale and volumes."""
    return Mesh(mesh.dim, mesh.vertices, mesh.elements[keep], mesh.h, mesh.boundary_flags,
                {"volumes": mesh.element_volumes()[keep]})


def split_pinned(mesh: Mesh, free: np.ndarray, positions: np.ndarray, model: EnergyModel):
    """(active sub-mesh, pinned energy) for moving only the `free` vertices.

    The active sub-mesh holds the elements that touch a free vertex and keeps
    the vertex numbering; the other elements' energy stays constant.  They
    are checked once for what total_energy and energy_gradient of the whole
    mesh raise on them.
    """
    positions = np.asarray(positions, dtype=float)
    touches = free[mesh.elements].any(axis=1)
    pinned = _submesh(mesh, ~touches)
    energy = total_energy(pinned, positions, model)
    _check_not_coincident(_point_state(pinned, positions, model))
    return _submesh(mesh, touches), energy


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
