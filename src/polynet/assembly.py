"""Discrete network energy and its gradient with respect to nodal positions.

The total energy sums, per element, the pair potential over every distinct
vertex pair of the element (an edge shared by k elements is counted k
times, as the model prescribes), weighted by h^dim, plus the exact
per-element volumetric contribution of the piecewise-affine deformation.
It is evaluated in one pass over the unique edges, each weighted by h^dim
times the number of its elements, and one over the elements, whose
Jacobians and cofactors come from one closed-form routine,
meshing.cofactors.  At an affine state x -> xi x every element's Jacobian
is det xi, so affine_energy needs only the edge pass, on the reference
edge vectors; gradients are always evaluated at positions.  An inverted
element without a cut-off raises volumetric's InvertedElementError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chains import PairPotential
from .meshing import Mesh, cofactors, edge_columns
from .volumetric import InvertedElementError, VolumetricParams, w_vol_eta_dj, w_vol_eta_j


class CoincidentVerticesError(ValueError):
    """Two deformed vertices of a pair coincide; the stretch direction is undefined."""


class FullyConstrainedError(ValueError):
    """A boundary condition pins every degree of freedom."""


@dataclass(frozen=True)
class EnergyModel:
    """Pair potential, chains-per-volume factor f and optional volumetric term."""

    pair: PairPotential
    f: float = 1.0
    vol: VolumetricParams | None = None

    def __post_init__(self):
        if not 0.0 < self.f < math.inf:
            raise ValueError("chains-per-volume factor f must be positive")


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
            if self.depth is None or not self.depth >= 0.0:
                raise ValueError("affine-layer needs a nonnegative depth")
        elif self.kind == "dirichlet-face-free-traction":
            if not self.faces:
                raise ValueError("dirichlet-face-free-traction needs face names")
        else:
            raise ValueError(f"unknown boundary condition kind {self.kind!r}")


def _geometry(mesh: Mesh) -> dict:
    """Per-mesh cache: the unique edges among the vertex pairs of every
    element, found by the key min * n + max (n the vertex count), with their
    reference vectors X_i - X_j (one array per component) and rest lengths,
    the bincount index of every gradient term, the reference determinants,
    and each edge's pair weight h^dim times the number of its elements.
    h^dim = 1/N_el of the mesh h was defined on; rounding recovers that
    count exactly, so a sub-mesh keeps its parent's weight."""
    cache = mesh._cache
    if "geometry" in cache:
        return cache["geometry"]
    corners, n = mesh.elements.T, mesh.num_vertices
    keys = [np.minimum(corners[p], corners[q]) * n + np.maximum(corners[p], corners[q])
            for p, q in itertools.combinations(range(mesh.dim + 1), 2)]
    edge_keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    edge_i, edge_j = edge_keys // n, edge_keys % n
    ref = np.array([x[edge_i] - x[edge_j] for x in mesh.vertices.T])
    rest = np.linalg.norm(ref, axis=0)
    if np.any(rest == 0.0):
        raise ValueError("mesh contains zero-length reference edges")
    geometry = {
        "edge_i": edge_i, "edge_j": edge_j, "ref": ref, "rest": rest,
        # pair terms at i and at j, then volumetric moments at corners 1..d and 0
        "index": np.concatenate([edge_i, edge_j, *corners[1:], corners[0]]),
        "det_x": math.factorial(mesh.dim) * mesh.element_volumes(),
        "edge_weights": counts * (1.0 / round(mesh.h ** -mesh.dim)),
    }
    cache["geometry"] = geometry
    return geometry


def _edges(mesh: Mesh, positions=None, xi=None):
    """Per-edge deformed differences (one array per component), lengths and
    stretches at the positions or, given xi, at the affine positions
    xi @ x, where an edge's difference is xi v_e, v_e its reference vector;
    a stack of xi (n, d, d) gives one row per xi."""
    geometry = _geometry(mesh)
    delta = (np.moveaxis(xi @ geometry["ref"], -2, 0) if xi is not None else
             [x[geometry["edge_i"]] - x[geometry["edge_j"]] for x in positions.T])
    dist = np.sqrt(sum(d * d for d in delta))
    return delta, dist, dist / geometry["rest"]


def _state(mesh: Mesh, model: EnergyModel, positions=None, xi=None, gradient=True) -> dict:
    """Per-edge differences, lengths and stretches at the positions or, given
    xi, at affine_positions(mesh, xi), and with a volumetric term each
    element's Jacobian: from the cofactors of its deformed edge matrix, or
    det xi for all (one per xi of a stack).  Coincident vertices are checked
    first, except for a point energy (gradient False), which needs no
    stretch direction; then inversion."""
    if xi is not None:
        xi = np.asarray(xi, dtype=float)
    else:
        positions = np.asarray(positions, dtype=float)
    delta, dist, stretch = _edges(mesh, positions, xi)
    state = {"delta": delta, "dist": dist, "stretch": stretch}
    if gradient:
        _check_not_coincident(state)
    if model.vol is not None:
        if xi is None:
            state["cof"], det = cofactors(edge_columns(positions, mesh.elements))
            state["jac"] = det / _geometry(mesh)["det_x"]
        else:
            state["jac"] = cofactors(list(xi.T))[1]
        _check_not_inverted(mesh, state, model.vol)
    return state


def _check_not_inverted(mesh: Mesh, state: dict, vol: VolumetricParams) -> None:
    if vol.eta == 0.0 and mesh.num_elements and np.any(state["jac"] <= 0.0):
        jac = np.ravel(state["jac"])  # affine: det xi, one per xi, for every element
        bad = int(np.flatnonzero(jac <= 0.0)[0])
        element = mesh.elements[bad if "cof" in state else 0]
        raise InvertedElementError(
            f"element with vertices {element.tolist()} is inverted "
            f"(det = {jac[bad]:g}) and no cut-off is active"
        )


def _check_not_coincident(state: dict) -> None:
    if np.any(state["dist"] == 0.0):
        raise CoincidentVerticesError(
            "coincident deformed vertices: stretch-ratio derivative undefined"
        )


def _energy(mesh: Mesh, model: EnergyModel, state: dict, pair) -> float:
    """Total energy of the point state from its per-edge pair energies `pair`."""
    total = model.f * float(_geometry(mesh)["edge_weights"] @ np.asarray(pair, dtype=float))
    if model.vol is None:
        return total
    return total + float(np.sum(mesh.element_volumes() * w_vol_eta_j(state["jac"], model.vol)))


def total_energy(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> float:
    """Total network energy of the deformed positions."""
    state = _state(mesh, model, positions, gradient=False)
    return _energy(mesh, model, state, model.pair.energy(state["stretch"]))


def affine_energy(mesh: Mesh, xi: np.ndarray, model: EnergyModel):
    """total_energy at affine_positions(mesh, xi), from the closed-form
    affine state; coincident vertices raise as in energy_gradient.  A stack
    xi (..., d, d) gives an array of that shape from one pass over the
    edges, each energy equal to its own call's bit for bit; a gradient that
    raises raises for the stack."""
    xi = np.asarray(xi, dtype=float)
    check_gradient_shape(xi.shape[-2:], mesh.dim)
    state = _state(mesh, model, xi=xi.reshape(-1, mesh.dim, mesh.dim))
    weights, pair = _geometry(mesh)["edge_weights"], model.pair.energy(state["stretch"])
    vol = (0.0 if model.vol is None or not mesh.num_elements else np.sum(
        mesh.element_volumes() * w_vol_eta_j(state["jac"], model.vol)[:, None], axis=1))
    energy = model.f * np.array([float(weights @ row) for row in pair]) + vol
    return energy.reshape(xi.shape[:-2]) if xi.ndim > 2 else float(energy[0])


def energy_gradient(mesh: Mesh, positions: np.ndarray, model: EnergyModel) -> np.ndarray:
    """Exact analytic gradient of total_energy, one d-vector per vertex."""
    state = _state(mesh, model, positions)
    return _gradient(mesh, model, state, model.pair.derivative(state["stretch"]))


def energy_and_gradient(mesh: Mesh, positions: np.ndarray, model: EnergyModel):
    """(total_energy, energy_gradient) from one evaluation of the point state
    and of the pair potential, with energy_gradient's checks."""
    state = _state(mesh, model, positions)
    pair, dW = model.pair.energy_and_derivative(state["stretch"])
    return _energy(mesh, model, state, pair), _gradient(mesh, model, state, dW)


def _gradient(mesh: Mesh, model: EnergyModel, state: dict, dW) -> np.ndarray:
    """One term per unique edge at each endpoint, dW the per-edge pair
    derivative, and, with a volumetric term, the moment w'(J) cof(Q) / d! of
    every element at its corners, Q the deformed edge matrix."""
    geometry = _geometry(mesh)
    coef = (model.f * geometry["edge_weights"] * np.asarray(dW, dtype=float)
            / (geometry["rest"] * state["dist"]))
    pair = [coef * d for d in state["delta"]]
    if model.vol is None:
        return _scatter(mesh, pair)
    scale = w_vol_eta_dj(state["jac"], model.vol) / math.factorial(mesh.dim)
    return _scatter(mesh, pair, [[scale * c for c in column] for column in state["cof"]])


def _scatter(mesh: Mesh, pair, moments=()) -> np.ndarray:
    """Per-vertex sums, one bincount per component: each edge's term pair[c]
    at its endpoint i and minus it at j and, when given, each element's
    moments (columns for corners 1..d) at those corners and minus their sum
    at corner 0."""
    index = _geometry(mesh)["index"]
    if not moments:
        index = index[: 2 * len(pair[0])]
    grad = np.empty((mesh.num_vertices, mesh.dim))
    for c in range(mesh.dim):
        values = [pair[c], -pair[c]]
        if moments:
            values += [m[c] for m in moments] + [-sum(m[c] for m in moments)]
        grad[:, c] = np.bincount(index, np.concatenate(values), minlength=mesh.num_vertices)
    return grad


def edge_stiffness_laplacian(mesh: Mesh, positions: np.ndarray, model: EnergyModel,
                             free: np.ndarray | None = None):
    """Scalar graph Laplacian of the unique edges, sparse CSC, restricted to
    the vertices of the boolean mask `free` (all of them by default).

    Edge weight (summed element weight) * f * W''(r_e) / rest_e^2, with W''
    the pair potential's analytic second derivative at the given positions
    (positive for both potentials, so no weight is clipped).  The volumetric
    term is left out.  Applied to each component, it is the exact Hessian
    for quadratic springs.
    The block is assembled directly: an edge adds its weight to the diagonal
    of each free endpoint, and -weight off the diagonal when both are free.
    """
    from scipy.sparse import csc_matrix

    geometry = _geometry(mesh)
    edge_i, edge_j, rest = geometry["edge_i"], geometry["edge_j"], geometry["rest"]
    stretch = _edges(mesh, np.asarray(positions, dtype=float))[2]
    w = geometry["edge_weights"] * model.f * model.pair.second_derivative(stretch) / rest**2
    n = mesh.num_vertices
    free = np.ones(n, dtype=bool) if free is None else free
    block = np.cumsum(free) - 1  # index of each free vertex in the block
    diagonal = (np.bincount(edge_i, w, n) + np.bincount(edge_j, w, n))[free]
    both = free[edge_i] & free[edge_j]
    i, j, off = block[edge_i[both]], block[edge_j[both]], -w[both]
    k = np.arange(diagonal.size)
    return csc_matrix((np.concatenate([off, off, diagonal]),
                       (np.concatenate([i, j, k]), np.concatenate([j, i, k]))),
                      shape=(k.size, k.size))


def _submesh(mesh: Mesh, keep: np.ndarray) -> Mesh:
    """The elements `keep` of mesh, with its vertices, scale and volumes."""
    return Mesh(mesh.dim, mesh.vertices, mesh.elements[keep], mesh.h, mesh.boundary_flags,
                {"volumes": mesh.element_volumes()[keep]})


def split_pinned(mesh: Mesh, free: np.ndarray, xi: np.ndarray, model: EnergyModel):
    """(active sub-mesh, pinned energy) for moving only the `free` vertices
    while every other vertex sits at xi @ x.

    The active sub-mesh holds the elements that touch a free vertex and keeps
    the vertex numbering.  The other elements have every vertex pinned, so
    they stay in the affine state: their energy is a constant, affine_energy
    of their sub-mesh, checked once per call for what energy_gradient of the
    whole mesh raises on them.  Both sub-meshes, and with them their
    geometry, stay on mesh for the last free mask, so restarts and further
    xi on the same mesh split it once.
    """
    key = free.tobytes()
    split = mesh._cache.get("split")
    if split is None or split[0] != key:
        touches = free[mesh.elements].any(axis=1)
        split = (key, _submesh(mesh, touches), _submesh(mesh, ~touches))
        mesh._cache["split"] = split
    _, active, pinned = split
    return active, affine_energy(pinned, xi, model)


_FACE_AXES = {"x": 0, "y": 1, "z": 2}
FACE_TOL = 1e-12  # distance within which a vertex lies on a named box face


def apply_bc(mesh: Mesh, bc: BoundaryCondition):
    """Resolve a boundary condition into (fixed mask, target positions):
    the targets are the affine positions xi @ x of every vertex, so the
    free rows hold the affine start.

    Raises FullyConstrainedError when nothing is left to minimize.
    """
    check_gradient_shape(bc.xi.shape, mesh.dim)
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
    return mask, targets


def check_gradient_shape(shape, dim: int, name: str = "macroscopic gradient") -> None:
    """ValueError unless shape is (dim, dim), a gradient's on a dim-D mesh."""
    if tuple(shape) != (dim, dim):
        raise ValueError(f"{name} does not match the mesh dimension")


def affine_positions(mesh: Mesh, xi: np.ndarray) -> np.ndarray:
    """Positions of the homogeneous deformation x -> xi @ x."""
    xi = np.asarray(xi, dtype=float)
    return mesh.vertices @ xi.T
