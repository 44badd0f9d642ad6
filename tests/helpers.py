"""Shared oracles for the test suite: finite differences, rotations and an
exact spring-network solve."""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve


def fd_gradient(fun, x, eps=1e-6):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xm = x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        out[idx] = (fun(xp) - fun(xm)) / (2.0 * eps)
    return out


def rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    if dim == 2:
        return rotation_2d(rng.uniform(0.0, 2.0 * np.pi))
    a = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(a)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rel_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.linalg.norm(b), np.finfo(float).tiny)
    return float(np.linalg.norm(a - b) / denom)


def patch_cell_mesh(monkeypatch, wrap):
    """Set PeriodicCell.mesh and StochasticCell.mesh to wrap(that class's
    mesh method).  The m = 1 meshes that periodic_density shares keep the
    original method, so only cell sources' meshes reach the replacement."""
    from polynet import homogenize

    unit_mesh = homogenize.PeriodicCell.mesh
    monkeypatch.setattr(homogenize, "_unit_cell", functools.cache(
        lambda dim, diagonal: unit_mesh(homogenize.PeriodicCell(1, dim, diagonal))))
    for cls in (homogenize.PeriodicCell, homogenize.StochasticCell):
        monkeypatch.setattr(cls, "mesh", wrap(cls.mesh))


def count_cell_meshes(monkeypatch) -> list:
    """Patch both mesh methods (see patch_cell_mesh) to append each source
    to the returned list before building its mesh."""
    built = []

    def counting(build):
        def counting_build(source):
            built.append(source)
            return build(source)
        return counting_build

    patch_cell_mesh(monkeypatch, counting)
    return built


def element_pair_laplacian(mesh, positions, coefficient):
    """Weighted graph Laplacian, sparse CSR, built from mesh.elements alone:
    every element adds coefficient(r) / (N_el rest^2) to each of its vertex
    pairs, r the pair's stretch at the positions and rest its reference
    length."""
    n, n_el = mesh.num_vertices, mesh.num_elements
    pairs = np.concatenate([
        mesh.elements[:, [a, b]]
        for a, b in itertools.combinations(range(mesh.dim + 1), 2)
    ])
    i, j = pairs[:, 0], pairs[:, 1]
    rest2 = ((mesh.vertices[i] - mesh.vertices[j]) ** 2).sum(axis=1)
    stretch = np.sqrt(((positions[i] - positions[j]) ** 2).sum(axis=1) / rest2)
    c = coefficient(stretch) / (n_el * rest2)
    return coo_matrix(
        (np.concatenate([c, c, -c, -c]),
         (np.concatenate([i, j, i, j]), np.concatenate([i, j, j, i]))),
        shape=(n, n),
    ).tocsr()


def spring_oracle(mesh, xi, depth, stiffness=1.0, f=1.0):
    """Exact minimal energy of a uniform-h quadratic-spring network with the
    vertices within `depth` of the unit-box boundary pinned to xi @ x.

    The energy sum_e c_e |q_i - q_j|^2 is quadratic, so each component solves
    L_ff x_f = -L_fp x_p with the weighted graph Laplacian L: every element
    adds c = f * stiffness / (N_el rest^2) to each of its vertex pairs.
    """
    lap = element_pair_laplacian(mesh, mesh.vertices,
                                 lambda stretch: np.full(stretch.shape, f * stiffness))
    pinned = mesh.boundary_flags <= depth
    free = ~pinned
    q = mesh.vertices @ np.asarray(xi, dtype=float).T
    l_ff = lap[free][:, free].tocsc()
    l_fp = lap[free][:, pinned]
    for comp in range(mesh.dim):
        q[free, comp] = spsolve(l_ff, -(l_fp @ q[pinned, comp]))
    return float(sum(q[:, comp] @ (lap @ q[:, comp]) for comp in range(mesh.dim)))


def single_cell_oracle_2d(xi, stiffness=1.0, f=1.0, diagonal="nw") -> float:
    """Homogenized density of the 2D quadratic-spring lattice, summed by hand
    over one periodic cell.

    The lattice has one vertex per cell, so the one-cell problem with
    periodic fluctuations has none to minimize over: the density is the
    affine energy of the unit cell's two triangles, each of its edges v
    adding f k |xi v|^2 / (2 |v|^2) (pair weight h^2 = 1/2).  Written out
    here, apart from polynet's meshes and kernel, so that the periodic
    values polynet computes are checked against something other than
    themselves.
    """
    if diagonal == "nw":
        tris = [((0, 0), (1, 0), (0, 1)), ((1, 0), (1, 1), (0, 1))]
    elif diagonal == "ne":
        tris = [((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))]
    else:
        raise ValueError("diagonal must be 'nw' or 'ne'")
    xi = np.asarray(xi, dtype=float)
    value = 0.0
    for tri in tris:
        for a, b in ((0, 1), (0, 2), (1, 2)):
            vec = np.subtract(tri[a], tri[b])
            c = xi @ vec
            value += 0.5 * f * stiffness / (vec @ vec) * (c @ c)
    return float(value)
